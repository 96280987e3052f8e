"""Spans around the calls one layer of sinespec makes into the next.

The tracer replaces module-level names, and a few ``Coefficient``
methods, with wrappers that record one span per call: id, parent id,
name, layer, start, end and an optional note (matrix size, spectrum
key).  The package itself is not changed; ``uninstall`` puts every name
back.  Spans stay in memory until the run writes them out.

A span's name is ``<caller module>.<attribute>``, the name the caller
looks up; its layer is the module that defines the callee, or the
caller's module if the callee lives outside the seven layers, so the
set of metrics stays fixed.  Only the
standard library is imported here, so the CLI child can time
``import sinespec.cli`` without this module's imports in the way.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("coeffs", "operators", "linalg", "eigensolve", "traces", "inverse", "cli")

# the benchmark's truncation K and basis size N (workloads.py)
K_SUM = 64
N_BASIS = 256

# (module, attribute) pairs: the names through which one layer reaches the next.
TARGETS = (
    ("sinespec.coeffs", "Coefficient.cosine_coeffs"),
    ("sinespec.coeffs", "Coefficient.functionals"),
    ("sinespec.coeffs", "Coefficient.shift"),
    ("sinespec.coeffs", "Coefficient.derivative"),
    ("sinespec.coeffs", "Coefficient.evaluate"),
    ("sinespec.coeffs", "Coefficient.__mul__"),
    ("sinespec.traces", "big_P"),
    ("sinespec.traces", "build_V"),
    ("sinespec.operators", "assemble_h"),
    ("sinespec.operators", "assemble_H"),
    ("sinespec.operators", "assemble_h2_plus_Q"),
    ("sinespec.operators", "multiplication_matrix"),
    ("sinespec.operators", "graded_eigh"),
    ("sinespec.eigensolve", "assemble_spec"),
    ("sinespec.eigensolve", "graded_eigvalsh"),
    ("sinespec.traces", "spectrum"),
    ("sinespec.traces", "compensated_cumsum"),
    ("sinespec.traces", "check_preconditions"),
    ("sinespec.traces", "spectra_for"),
    ("sinespec.traces", "partial_sums"),
    ("sinespec.traces", "tail_accelerate"),
    ("sinespec.traces", "rhs"),
    ("sinespec.traces", "verify"),
    ("sinespec.traces", "dispute"),
    ("sinespec.inverse", "check_preconditions"),
    ("sinespec.inverse", "spectra_for"),
    ("sinespec.inverse", "partial_sums"),
    ("sinespec.inverse", "tail_accelerate"),
    ("sinespec.inverse", "localization"),
    ("sinespec.inverse", "sweep"),
    ("sinespec.inverse", "recover_V"),
    ("sinespec.inverse", "recover_q"),
    ("sinespec.inverse", "recover_Q"),
    ("sinespec.cli", "load_coefficient"),
    ("sinespec.cli", "assemble_spec"),
    ("sinespec.cli", "spectrum"),
    ("sinespec.cli", "verify"),
    ("sinespec.cli", "dispute"),
    ("sinespec.cli", "asym_residuals"),
    ("sinespec.cli", "localization"),
    ("sinespec.cli", "sweep"),
    ("sinespec.cli", "recover_V"),
    ("sinespec.cli", "recover_q"),
    ("sinespec.cli", "recover_Q"),
)

ASSEMBLE_KIND = {"assemble_h": "h", "assemble_H": "H", "assemble_h2_plus_Q": "h2q"}

# Textbook flop counts for a dense symmetric n x n solve (Golub & Van Loan):
# 4/3 n^3 for eigenvalues only, 9 n^3 with eigenvectors.
EIGVALSH_FLOP = 4.0 / 3.0
EIGH_FLOP = 9.0

# span fields
ID, PARENT, NAME, LAYER, START, END, NOTE = range(7)


def _matrix_note(args, kwargs, result):
    return {"n": len(args[0])}


def _spectrum_note(args, kwargs, result):
    spec, n = args[0], args[1] if len(args) > 1 else kwargs["n"]
    err = getattr(result, "est_abs_err", None)
    return {
        "key": repr((spec, n)),
        "n_trusted": int(result.n_trusted),
        "basis_n": int(result.basis_n),
        "err_sum_k": float(err[:K_SUM].sum()) if err is not None else 0.0,
    }


NOTES = {
    "graded_eigvalsh": _matrix_note,
    "graded_eigh": _matrix_note,
    "spectrum": _spectrum_note,
}


class Tracer:
    """Records spans in memory; ``install`` wraps the TARGETS names."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._saved = []

    def record(self, name, layer, start, end, parent=None):
        span = [len(self.spans), parent, name, layer, start, end, None]
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name, layer):
        rec = self.record(name, layer, time.perf_counter(), None,
                          self._stack[-1] if self._stack else None)
        self._stack.append(rec[ID])
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def adopt(self, spans, parent):
        """Append spans recorded elsewhere (a child process) under ``parent``."""
        offset = len(self.spans)
        for s in spans:
            self.spans.append([s[ID] + offset,
                               parent if s[PARENT] is None else s[PARENT] + offset,
                               *s[NAME:]])

    def _wrapper(self, fn, name, layer, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            rec = tracer.record(name, layer, time.perf_counter(), None,
                                stack[-1] if stack else None)
            stack.append(rec[ID])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target whose module is loaded; note the ones not found."""
        for module_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner = module
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            caller = module_name.rsplit(".", 1)[-1]
            layer = (getattr(fn, "__module__", None) or "").rsplit(".", 1)[-1]
            if layer not in LAYERS:
                # defined outside the seven layers: count it where it is looked up
                layer = caller
            name = caller + "." + leaf
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrapper(fn, name, layer, NOTES.get(leaf)))

    def uninstall(self):
        while self._saved:
            owner, leaf, fn = self._saved.pop()
            setattr(owner, leaf, fn)


def covered(intervals, start, end):
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Self time per span id: its duration minus the part its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return {
        s[ID]: (s[END] - s[START]) - covered(children[s[ID]], s[START], s[END])
        for s in spans
    }


def _leaf(span):
    return span[NAME].rsplit(".", 1)[-1]


def layer_metrics(spans):
    """Per-layer metrics of one traced pass (see perfbench/README.md)."""
    by_id = {s[ID]: s for s in spans}
    selfs = self_times(spans)
    m = {f"{layer}.self_s": 0.0 for layer in (*LAYERS, "bench")}
    for s in spans:
        m[f"{s[LAYER]}.self_s"] = m.get(f"{s[LAYER]}.self_s", 0.0) + selfs[s[ID]]

    def dur(s):
        return s[END] - s[START]

    def inside(s, leaves):
        p = s[PARENT]
        while p is not None:
            if _leaf(by_id[p]) in leaves:
                return True
            p = by_id[p][PARENT]
        return False

    def total(leaf):
        return sum(dur(s) for s in spans if _leaf(s) == leaf)

    for kind in ASSEMBLE_KIND.values():
        m[f"operators.assemble_s.{kind}"] = 0.0
    m["operators.assemble_calls"] = 0
    for s in spans:
        kind = ASSEMBLE_KIND.get(_leaf(s))
        if kind is not None and not inside(s, ASSEMBLE_KIND):
            m[f"operators.assemble_s.{kind}"] += dur(s)
            m["operators.assemble_calls"] += 1

    coarse = refine = eigh = gflop = mbytes = 0.0
    for s in spans:
        leaf = _leaf(s)
        if leaf not in ("graded_eigvalsh", "graded_eigh"):
            continue
        n = s[NOTE]["n"]
        gflop += (EIGVALSH_FLOP if leaf == "graded_eigvalsh" else EIGH_FLOP) * n**3 / 1e9
        mbytes += 8.0 * n * n / 1e6
        if leaf == "graded_eigh":
            eigh += dur(s)
        elif n == N_BASIS:
            coarse += dur(s)
        else:
            refine += dur(s)
    m["linalg.eigh_s"] = eigh
    m["linalg.eigvalsh_s.coarse"] = coarse
    m["linalg.eigvalsh_s.refine"] = refine
    pass_s = sum(selfs.values())
    m["eigensolve.refine_share"] = refine / pass_s if pass_s else 0.0
    m["linalg.eig_gflop_computed"] = gflop
    m["linalg.eig_gflops"] = gflop / (eigh + coarse + refine) if gflop else 0.0
    m["linalg.matrix_mb_computed"] = mbytes
    m["linalg.cumsum_s"] = total("compensated_cumsum")

    spectra = [s[NOTE] for s in spans if _leaf(s) == "spectrum" and s[LAYER] == "eigensolve"]
    seen = set()
    repeats = 0
    for note in spectra:
        repeats += note["key"] in seen
        seen.add(note["key"])
    m["eigensolve.spectrum_calls"] = len(spectra)
    m["eigensolve.spectrum_repeat_share"] = repeats / len(spectra) if spectra else 0.0
    basis = sum(note["basis_n"] for note in spectra)
    m["eigensolve.trusted_share"] = (
        sum(note["n_trusted"] for note in spectra) / basis if basis else 0.0
    )
    m["eigensolve.err_sum_K"] = sum(note["err_sum_k"] for note in spectra)

    m["traces.partial_sums_s"] = total("partial_sums")
    m["traces.tail_s"] = total("tail_accelerate")
    m["traces.rhs_s"] = total("rhs")
    m["coeffs.calls"] = sum(1 for s in spans if s[LAYER] == "coeffs")

    m["inverse.sweep_s"] = total("sweep")
    taus = sum(1 for s in spans if s[NAME] == "inverse.spectra_for")
    m["inverse.per_tau_s"] = m["inverse.sweep_s"] / taus if taus else 0.0

    mains = [s for s in spans if s[NAME] == "cli.main"]
    main_ids = {s[ID] for s in mains}
    library = sum(dur(s) for s in spans if s[PARENT] in main_ids and s[LAYER] != "cli")
    m["cli.process_s"] = total("process")
    m["cli.import_s"] = sum(dur(s) for s in spans if s[NAME] == "cli.import")
    m["cli.main_s"] = sum(dur(s) for s in mains)
    m["cli.startup_s"] = m["cli.process_s"] - m["cli.main_s"]
    m["cli.io_s"] = m["cli.main_s"] - library
    m["trace.spans"] = len(spans)
    return m
