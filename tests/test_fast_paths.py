"""The faster paths keep every output bit for bit.

Each is held to the path it replaced (``reference_paths``) or to its own
undecorated function: the 2n x n block ``spectrum`` assembles, the memo
caches, coefficient sums and products over Python floats, the running
partial sums against the compensated ones, the searchsorted localization
counts, and the closed-form rate fit.  ``verify`` is held to the public
functions it calls, and those still refuse bad input on every call.  The last tests check the memo
caches: every one is found, every one is hit on the panel and a sweep,
and a repeated panel pass computes nothing again.
"""

import importlib.util
import math
import os
import pickle
import struct
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given

from conftest import coefficients, shifted_spec
from reference_paths import (
    loop_localization,
    numpy_scalar_cumsum,
    numpy_scalar_product,
    numpy_sum,
    polyfit_rate,
    square_spectrum,
)
from sinespec import (
    Coefficient,
    CoefficientSet,
    FormulaId,
    KIND_FOURTH_ORDER,
    KIND_SECOND_ORDER,
    KIND_SQUARE_PLUS_Q,
    OperatorSpec,
    PreconditionError,
    ZERO,
    assemble_spec,
    check_preconditions,
    dispute,
    partial_sums,
    recover_q,
    rhs,
    spectra_for,
    spectrum,
    summand,
    sweep,
    tail_accelerate,
    verify,
)
from sinespec import coeffs, eigensolve, inverse, linalg, operators, traces
from sinespec.eigensolve import Spectrum
from sinespec.operators import assemble_diagonal

ROOT = Path(__file__).resolve().parents[1]
COS1 = Coefficient.harmonic_cos(1)
COS2 = Coefficient.harmonic_cos(2)
SIN2 = Coefficient.harmonic_sin(2)
SIN3 = Coefficient.harmonic_sin(3)
COS4 = Coefficient.harmonic_cos(4)


def bits(x):
    """x with every float as its IEEE bytes, so that 0.0 and -0.0 differ."""
    if isinstance(x, Coefficient):
        return bits((x.u, x.w))
    if isinstance(x, (tuple, list)):
        return tuple(bits(v) for v in x)
    if isinstance(x, float):
        return struct.pack("<d", x)
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    return x


def specs(shifted):
    """One spec per kind (H twice: without and with Q); odd frequencies
    only where there is no shift."""
    tau = 0.3 if shifted else 0.0
    p = COS2 + SIN2.scale(0.5) if shifted else COS1 + SIN3.scale(0.5)
    q = SIN2 if shifted else SIN3 + COS2
    Q = COS4 - COS2.scale(0.25) if shifted else COS1.scale(0.75)
    return [
        shifted_spec(KIND_SECOND_ORDER, tau, p=p),
        shifted_spec(KIND_FOURTH_ORDER, tau, p=p, q=q),
        shifted_spec(KIND_FOURTH_ORDER, tau, p=p, q=q, Q=Q),
        shifted_spec(KIND_SQUARE_PLUS_Q, tau, p=p, Q=Q),
    ]


# -- the 2n x n block ------------------------------------------------------------------


@pytest.mark.parametrize("n", [8, 64, 256])
@pytest.mark.parametrize("shifted", [False, True])
def test_spectrum_matches_square_assembly_oracle(n, shifted):
    for spec in specs(shifted):
        s = spectrum.__wrapped__(spec, n)
        vals, est, n_trusted = square_spectrum(spec, n)
        assert bits((s.vals, s.est_abs_err, s.n_trusted)) == bits((vals, est, n_trusted))


@pytest.mark.parametrize("n", [8, 64, 256])
@pytest.mark.parametrize("shifted", [False, True])
def test_block_rows_equal_square_columns(n, shifted):
    for spec in specs(shifted):
        square = assemble_spec(spec, 2 * n)
        block = assemble_spec(spec, n, rows=2 * n)
        assert block.shape == (2 * n, n)
        assert bits(block) == bits(np.ascontiguousarray(square[:, :n]))
        assert bits(assemble_diagonal(spec, 2 * n)) == bits(np.diagonal(square).copy())


@given(coefficients(max_degree=5), coefficients(max_degree=5), coefficients(max_degree=5),
       st.sampled_from(["h", "H", "h2q"]), st.integers(8, 40), st.integers(0, 24))
def test_block_and_diagonal_bit_for_bit_on_random_coefficients(p, q, Q, kind, n, extra):
    spec = {
        "h": OperatorSpec(KIND_SECOND_ORDER, p=p),
        "H": OperatorSpec(KIND_FOURTH_ORDER, p=p, q=q, Q=Q),
        "h2q": OperatorSpec(KIND_SQUARE_PLUS_Q, p=p, Q=Q),
    }[kind]
    rows = n + extra
    square = assemble_spec(spec, rows)
    assert bits(assemble_spec(spec, n, rows=rows)) == bits(np.ascontiguousarray(square[:, :n]))
    assert bits(assemble_diagonal(spec, rows)) == bits(np.diagonal(square).copy())


@pytest.mark.parametrize("kind, builds, reuses", [
    (KIND_SECOND_ORDER, 0, 0),
    # assembly, diagonal and factored shift
    (KIND_FOURTH_ORDER, 1, 2),
    # assembly and diagonal; the shift reads Q itself
    (KIND_SQUARE_PLUS_Q, 1, 1),
])
def test_a_spectrum_builds_its_fourth_order_q_once(kind, builds, reuses):
    spec = next(s for s in specs(False) if s.kind == kind)
    OperatorSpec.fourth_order_q.cache_clear()
    spectrum.__wrapped__(spec, 32)
    info = OperatorSpec.fourth_order_q.cache_info()
    assert (info.misses, info.hits) == (builds, reuses)


def test_block_needs_as_many_rows_as_columns():
    with pytest.raises(ValueError):
        assemble_spec(OperatorSpec(KIND_SECOND_ORDER, p=COS2), 8, rows=7)


# -- memo caches -----------------------------------------------------------------------


def copy_of(f):
    """An equal coefficient built as a separate object."""
    return Coefficient(u=f.u, w=f.w)


def memo_matches_wrapped(memo, *args):
    """memo on args and on equal copies (a hit) both give the undecorated
    function's value bit for bit.  The cache is emptied first: keys compare
    by ==, so an entry left by an earlier draw that differs only in signed
    zeros would be returned (see ``coeffs``)."""
    memo.cache_clear()
    fresh = memo.__wrapped__(*args)
    first = memo(*args)
    again = memo(*(copy_of(a) if isinstance(a, Coefficient) else a for a in args))
    assert bits(first) == bits(fresh)
    assert bits(again) == bits(fresh)
    assert memo.cache_info().hits == 1


@given(coefficients(max_degree=6, periodic=True), st.floats(-2.0, 2.0, allow_nan=False))
@example(Coefficient(u=(-0.0, 0.0, 1.0), w=(0.0, -0.0)), -0.0)
def test_shift_memo_matches_wrapped(f, tau):
    memo_matches_wrapped(Coefficient.shift, f, tau)


@given(coefficients(max_degree=6))
def test_is_one_periodic_memo_matches_wrapped(f):
    memo_matches_wrapped(Coefficient.is_one_periodic, f)


@given(coefficients(max_degree=6), st.integers(1, 64))
def test_endpoint_tail_memo_matches_wrapped(g, k):
    memo_matches_wrapped(traces._endpoint_tail, g, k)


@given(st.integers(1, 300))
def test_zeta2_tail_memo_matches_wrapped(k):
    memo_matches_wrapped(traces._zeta2_tail, k)


def test_digest_memo_reads_the_value_alone():
    # equal sets share one memo entry, so a signed zero must not show
    traces.CoefficientSet.digest.cache_clear()
    first = CoefficientSet(p=Coefficient(u=(-0.0, 1.0), w=(2.0, -0.0, 3.0))).digest()
    second = CoefficientSet(p=Coefficient(u=(0.0, 1.0), w=(2.0, 0.0, 3.0))).digest()
    assert first == second == "p:u=[0,1];w=[2,0,3] q:u=[0];w=[] Q:u=[0];w=[]"


# -- coefficient sums and products over Python floats ---------------------------------

SIGNED_ZEROS = Coefficient(u=(-0.0, 1.5, -0.0, 0.25), w=(-0.0, 0.0, 2.0))


@given(coefficients(max_degree=6), coefficients(max_degree=6))
@example(SIGNED_ZEROS, SIGNED_ZEROS.scale(-1.0))
@example(Coefficient(u=(1e-300, -1e150), w=(1e150,)), Coefficient(u=(-1e-300, 1e150), w=(-0.0,)))
def test_sum_and_product_match_numpy_loops(f, g):
    assert bits(f + g) == bits(numpy_sum(f, g))
    assert bits(f * g) == bits(numpy_scalar_product(f, g))


# -- partial sums ------------------------------------------------------------------------


def test_partial_sums_keep_the_compensated_bits_on_the_panel():
    # each summand is about ulp(mu_n) after its (pi n)^4 counterterm, so the
    # running sums round nowhere the Neumaier loop would have corrected
    for formula, cs, tau in trace_suite_panel():
        cs = cs.shifted(tau)
        spectra = spectra_for(formula, cs, 256)
        terms = traces._summands(formula, spectra, cs, 64)
        assert bits(partial_sums(formula, spectra, cs, 64)) == bits(numpy_scalar_cumsum(terms))


@given(coefficients(max_degree=4), coefficients(max_degree=4), coefficients(max_degree=4))
def test_partial_sums_within_recursive_summation_bound(p, q, Q):
    # |fl(S_n) - S_n| <= K eps sum_{m <= n} |s_m|, the textbook bound
    n, k = 32, 16
    cs = CoefficientSet(p=p, q=q, Q=Q)
    spectra = spectra_for(FormulaId.TR3, cs, n)
    terms = traces._summands(FormulaId.TR3, spectra, cs, k)
    err = np.abs(partial_sums(FormulaId.TR3, spectra, cs, k) - numpy_scalar_cumsum(terms))
    assert np.all(err <= k * np.finfo(float).eps * np.cumsum(np.abs(terms)))


# -- localization ---------------------------------------------------------------------


@st.composite
def fourth_order_values(draw):
    """Sorted values near (pi n)^4, some pushed out of their window (or
    into a neighbour's: a window may hold none or two), some negative, with
    a trust horizon at or below their count."""
    size = draw(st.integers(1, 40))
    vals = [(math.pi * n + draw(st.floats(-2.0, 2.0))) ** 4 for n in range(1, size + 1)]
    for i in range(min(size, draw(st.integers(0, 3)))):
        vals[i] = -draw(st.floats(0.0, 50.0))
    return np.sort(np.array(vals)), draw(st.integers(0, size))


def quartics(*roots):
    return np.array([r**4 for r in roots])


@given(fourth_order_values())
# no threshold works: the last window is empty and the disc one short
@example((quartics(math.pi, 2 * math.pi, 3 * math.pi, 4 * math.pi + 1.9), 4))
# window 2 holds two values, window 3 none
@example((quartics(math.pi, 2 * math.pi - 0.5, 2 * math.pi + 0.5, 4 * math.pi), 4))
def test_localization_matches_loop_counts(drawn):
    vals, horizon = drawn
    s = Spectrum(KIND_FOURTH_ORDER, vals.size, horizon, vals, np.zeros(vals.size))
    rep = traces.localization(s)
    assert (rep.n0, rep.violations, rep.disc_count, rep.horizon) == (
        *loop_localization(vals, horizon), horizon)


@pytest.mark.parametrize("spec", specs(False)[1:] + specs(True)[1:], ids=str)
def test_localization_matches_loop_counts_on_spectra(spec):
    s = spectrum(spec, 64)
    rep = traces.localization(s)
    assert (rep.n0, rep.violations, rep.disc_count) == loop_localization(s.vals, s.n_trusted)


# -- the rate fit ------------------------------------------------------------------------


@st.composite
def converging_sums(draw):
    """(S_1..S_k, limit, k) with S_n = limit + c n^-r (1 + e_n), |e_n| <= 1%,
    and every S_n from some index on equal to the limit, so that between
    none and all of the fitted residuals sit at the rounding floor."""
    k = draw(st.integers(8, 128))
    limit = draw(st.floats(-10.0, 10.0))
    c = draw(st.floats(1e-9, 10.0)) * draw(st.sampled_from([1.0, -1.0]))
    r = draw(st.floats(0.5, 4.0))
    noise = draw(st.lists(st.floats(-0.01, 0.01), min_size=k, max_size=k))
    converged = draw(st.integers(0, k))
    partial = np.array([limit + c * n**-r * (1.0 + e) if n <= converged else limit
                        for n, e in enumerate(noise, start=1)])
    return partial, limit, k


def sums_converged_after(m, k=64):
    partial = 1.0 + 1.0 / np.arange(1, k + 1, dtype=float) ** 2
    partial[m:] = 1.0
    return partial, 1.0, k


@given(converging_sums())
# from max(4, k // 4) = 16 on: two residuals above the floor, then three
@example(sums_converged_after(17))
@example(sums_converged_after(18))
@example(sums_converged_after(64))
def test_rate_fit_matches_polyfit(drawn):
    partial, limit, k = drawn
    got, want = traces._fit_rate(partial, limit, k), polyfit_rate(partial, limit, k)
    assert math.isnan(got) == math.isnan(want)
    if not math.isnan(want):
        assert abs(got - want) <= 1e-12 * abs(want)


def test_rate_fit_needs_three_points():
    assert math.isnan(traces._fit_rate(*sums_converged_after(17)))
    assert traces._fit_rate(*sums_converged_after(18)) == pytest.approx(-2.0, rel=1e-3)


# -- verify and the public functions ----------------------------------------------------

MODES = ("fourier", "richardson", "none")
SHIFTED = (FormulaId.IPR1, FormulaId.IP2, FormulaId.IPQ)


def outcome(call):
    """The call's (gap, accelerated, rhs, partial) in IEEE bytes, or its refusal."""
    try:
        return bits(call())
    except PreconditionError as exc:
        return ("refused", str(exc))


def public_path(formula, cs, tau, n, k, mode):
    cs = cs.shifted(tau)
    spectra = spectra_for(formula, cs, n)
    parts = partial_sums(formula, spectra, cs, k)
    acc = tail_accelerate(formula, parts, cs, k, mode)
    right = rhs(formula, cs)
    return acc - right, acc, right, tuple(parts.tolist())


def verify_path(formula, cs, tau, n, k, mode):
    rep = verify(formula, cs, n=n, k=k, mode=mode, tau=tau)
    return rep.gap, rep.accelerated, rep.rhs, rep.partial


def zero_mean(f):
    return f - Coefficient.constant(f.functionals().mean)


@given(coefficients(max_degree=3, periodic=True), st.booleans(),
       coefficients(max_degree=3, periodic=True).map(zero_mean), st.booleans(),
       coefficients(max_degree=3, periodic=True).map(zero_mean),
       st.floats(0.05, 0.95))
def test_verify_equals_the_public_path_bit_for_bit(p, constant_p, q, zero_q, Q, tau):
    p = Coefficient.constant(p.u[0]) if constant_p else p
    q = ZERO if zero_q else q
    checked = 0
    for formula in FormulaId:
        reads = {name for role in traces.FORMULAS[formula].roles
                 for name in traces.ROLES[role][1]}
        cs = CoefficientSet(**{name: f for name, f in (("p", p), ("q", q), ("Q", Q))
                               if name in reads})
        try:
            check_preconditions(formula, cs)
        except PreconditionError:
            continue
        for shift in (0.0, tau) if formula in SHIFTED else (0.0,):
            for mode in MODES:
                args = (formula, cs, shift, 64, 16, mode)
                assert outcome(lambda: verify_path(*args)) == outcome(lambda: public_path(*args))
                checked += 1
    # GLF, S01, TR3 and COR1 have no hypothesis on these draws
    assert checked >= 12


TRQ0, GLF = FormulaId.TRQ0, FormulaId.GLF
VALID = CoefficientSet(p=COS2)
NONZERO_Q = CoefficientSet(p=COS2, q=Coefficient.constant(1.0))
# cos(60 pi x) at N = 64 couples the low modes past the basis: 4 trusted
SHORT = CoefficientSet(p=Coefficient.harmonic_cos(60, 10.0))
ZERO_Q = "requires q identically zero"
HORIZON = "beyond the trust horizon 4"
BAD_TOL = "tolerance must be a finite positive number"
REFUSALS = {
    "check_preconditions": (lambda: check_preconditions(TRQ0, NONZERO_Q), ZERO_Q),
    "partial_sums": (lambda: partial_sums(TRQ0, spectra_for(TRQ0, VALID, 64), NONZERO_Q, 16),
                     ZERO_Q),
    "summand": (lambda: summand(TRQ0, 1, spectra_for(TRQ0, VALID, 64), NONZERO_Q), ZERO_Q),
    "rhs": (lambda: rhs(TRQ0, NONZERO_Q), ZERO_Q),
    "verify": (lambda: verify(TRQ0, NONZERO_Q, n=64, k=16), ZERO_Q),
    "partial_sums K": (lambda: partial_sums(GLF, spectra_for(GLF, SHORT, 64), SHORT, 16), HORIZON),
    "summand n": (lambda: summand(GLF, 5, spectra_for(GLF, SHORT, 64), SHORT), HORIZON),
    "verify K": (lambda: verify(GLF, SHORT, n=64, k=16), HORIZON),
    "dispute tol nan": (lambda: dispute("DikiiTrfD1", COS2, n=64, k=16, tol=math.nan), BAD_TOL),
    "dispute tol 0": (lambda: dispute("DikiiTrfD1", COS2, n=64, k=16, tol=0.0), BAD_TOL),
    "dispute tol -1": (lambda: dispute("DikiiTrfD1", COS2, n=64, k=16, tol=-1.0), BAD_TOL),
}


@pytest.mark.parametrize("label", REFUSALS)
def test_public_functions_refuse_on_every_call(label):
    call, message = REFUSALS[label]
    for _ in range(2):
        with pytest.raises(PreconditionError, match=message):
            call()


# -- memo traffic -----------------------------------------------------------------------


def memo_caches():
    """Every functools cache the library defines, by name: a module-level
    function by module and name, a method by class and name."""
    found = {}
    for module in (coeffs, operators, linalg, eigensolve, traces, inverse):
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if hasattr(obj, "cache_info"):
                found[f"{module.__name__}.{name}"] = obj
            elif isinstance(obj, type):
                for attr, member in vars(obj).items():
                    if hasattr(member, "cache_info"):
                        found[f"{name}.{attr}"] = member
    return found


def test_memo_caches_are_found():
    assert set(memo_caches()) == {
        "Coefficient.functionals",
        "Coefficient.shift",
        "Coefficient.is_one_periodic",
        "sinespec.eigensolve.spectrum",
        "sinespec.traces._zeta2_tail",
        "sinespec.traces._endpoint_tail",
        "OperatorSpec.fourth_order_q",
        "CoefficientSet.shifted",
        "CoefficientSet.digest",
        "Formula.read",
        "sinespec.traces.check_preconditions",
    }


def trace_suite_panel():
    path = ROOT / "scripts" / "run_trace_suite.py"
    module_spec = importlib.util.spec_from_file_location("run_trace_suite", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module.PANEL


def test_every_memo_cache_is_hit():
    # a memo no call path hits only costs its bookkeeping.  The sweep's
    # template is none of the panel's sets, as in a recovery session.
    caches = memo_caches()
    for cache in caches.values():
        cache.cache_clear()
    panel = trace_suite_panel()
    for _ in range(2):
        for mode in ("fourier", "richardson"):
            for formula, cs, tau in panel:
                verify(formula, cs, n=64, k=16, mode=mode, tau=tau)
    recover_q(sweep(OperatorSpec(KIND_FOURTH_ORDER, p=COS4, q=SIN2), 4, n=64, k=16))
    assert [name for name, cache in caches.items() if cache.cache_info().hits == 0] == []


def test_second_panel_pass_misses_no_memo_cache():
    panel = trace_suite_panel()
    assert len(panel) == 13

    def panel_pass():
        for mode in ("fourier", "richardson"):
            for formula, cs, tau in panel:
                verify(formula, cs, n=64, k=16, mode=mode, tau=tau)

    panel_pass()
    caches = memo_caches()
    misses = {name: cache.cache_info().misses for name, cache in caches.items()}
    panel_pass()
    assert {name: cache.cache_info().misses - misses[name] for name, cache in caches.items()} == (
        dict.fromkeys(caches, 0))


# -- hashing the memo keys ---------------------------------------------------------------

SET_PARTS = {"p": COS2 + SIN2.scale(0.5), "Q": COS4}


def test_equal_sets_and_specs_hash_once_and_share_one_entry(monkeypatch):
    built = (CoefficientSet(**SET_PARTS), OperatorSpec(KIND_SQUARE_PLUS_Q, **SET_PARTS))
    copies = {name: copy_of(f) for name, f in SET_PARTS.items()}
    again = (CoefficientSet(**copies), OperatorSpec(KIND_SQUARE_PLUS_Q, **copies))
    memos = ((CoefficientSet.digest, lambda cs: cs.digest()),
             (OperatorSpec.fourth_order_q, lambda spec: spec.fourth_order_q()))
    for first, second, (memo, call) in zip(built, again, memos):
        assert first is not second and first == second and hash(first) == hash(second)
        memo.cache_clear()
        call(first)
        call(second)
        info = memo.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    # hashed when built: a lookup hashes none of the coefficients again
    hashed = []
    monkeypatch.setattr(Coefficient, "__hash__", lambda f: hashed.append(f) or f._hash)
    for key in built:
        hash(key)
    assert hashed == []


PICKLE_CHILD = """
import pickle, sys
from sinespec import KIND_SQUARE_PLUS_Q, Coefficient, CoefficientSet, OperatorSpec
parts = {"p": Coefficient.harmonic_cos(2) + Coefficient.harmonic_sin(2).scale(0.5),
         "Q": Coefficient.harmonic_cos(4)}
keys = (CoefficientSet(**parts), OperatorSpec(KIND_SQUARE_PLUS_Q, **parts))
sys.stdout.buffer.write(pickle.dumps(keys))
"""


def test_a_spec_pickled_under_another_hash_seed_hashes_like_a_fresh_one():
    # a string hashes differently under another PYTHONHASHSEED; the kind
    # enters the hash by its index, so a pickled hash stays good
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", PICKLE_CHILD], env=env,
                          capture_output=True, check=True)
    pickled = pickle.loads(proc.stdout)
    fresh = (CoefficientSet(**SET_PARTS), OperatorSpec(KIND_SQUARE_PLUS_Q, **SET_PARTS))
    for old, new in zip(pickled, fresh):
        assert old == new and hash(old) == hash(new)
        assert {new: "entry"}.get(old) == "entry"


@pytest.mark.parametrize("formula, cs, tau, mode", [
    (FormulaId.GLF, CoefficientSet(p=COS2), 0.0, "fourier"),
    (FormulaId.COR1, CoefficientSet(p=COS2, Q=SIN2), 0.0, "richardson"),
    (FormulaId.IPR1, CoefficientSet(p=COS2, q=SIN2), 0.3, "fourier"),
    (FormulaId.TR3, CoefficientSet(p=COS2, q=SIN2, Q=COS4), 0.0, "none"),
])
def test_a_warm_verify_reads_and_checks_once(formula, cs, tau, mode):
    memos = (traces.Formula.read, traces.check_preconditions)

    def lookups():
        return [memo.cache_info().hits + memo.cache_info().misses for memo in memos]

    rep = verify(formula, cs, n=64, k=16, mode=mode, tau=tau)
    before = lookups()
    assert bits(verify(formula, cs, n=64, k=16, mode=mode, tau=tau).partial) == bits(rep.partial)
    assert [after - was for after, was in zip(lookups(), before)] == [1, 1]
