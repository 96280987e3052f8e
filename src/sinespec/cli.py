"""Command-line front end: coefficient files in, machine-readable reports out.

Commands: spectrum, trace, dispute, asym, localize, sweep; each takes
only the shared options its handler reads.  Coefficient files are JSON
objects {"u": [...], "w": [...]} with u indexed from frequency 0 and w
from frequency 1; a missing "w" means all zeros.  Numbers in CSV output
carry 17 significant digits so identical inputs reproduce byte-identical
files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from enum import Enum

import numpy as np

from .coeffs import ZERO, Coefficient
from .errors import CoefficientFileError, NumericError, PreconditionError
from .eigensolve import spectrum
from .inverse import recover_Q, recover_V, recover_q, sweep
from .operators import (
    KIND_FOURTH_ORDER,
    KIND_SECOND_ORDER,
    KIND_SQUARE_PLUS_Q,
    OperatorSpec,
    assemble_spec,
)
from .traces import (
    DEFAULT_K,
    DEFAULT_N,
    DEFAULT_TOLERANCES,
    CoefficientSet,
    DisputeVariant,
    FormulaId,
    asym_residuals,
    dispute,
    localization,
    verify,
)

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_PRECONDITION = 2

_KIND_FLAGS = {
    "h": KIND_SECOND_ORDER,
    "H": KIND_FOURTH_ORDER,
    "h2q": KIND_SQUARE_PLUS_Q,
}


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def load_coefficient(path: str | None) -> Coefficient:
    """Read a coefficient JSON file; raise with diagnostics on bad content."""
    if path is None:
        return ZERO
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise CoefficientFileError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CoefficientFileError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise CoefficientFileError(f"{path}: top level must be a JSON object")
    for key in ("u", "w"):
        seq = data.get(key, [])
        if not isinstance(seq, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in seq
        ):
            raise CoefficientFileError(f"{path}: field {key!r} must be an array of numbers")
    try:
        return Coefficient.from_dict(data)
    except ValueError as exc:
        raise CoefficientFileError(f"{path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _coeffs(args: argparse.Namespace) -> CoefficientSet:
    return CoefficientSet(
        p=load_coefficient(args.p_path),
        q=load_coefficient(args.q_path),
        Q=load_coefficient(args.Q_path),
    )


def _operator_spec(args: argparse.Namespace, kind: str) -> OperatorSpec:
    # sweep takes no --tau: its template sits at tau = 0
    cs = _coeffs(args).shifted(getattr(args, "tau", 0.0))
    return OperatorSpec(kind, p=cs.p, q=cs.q, Q=cs.Q)


def _tolerance(text: str) -> float:
    """--tol: a finite positive float, or a usage error."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0.0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be a finite positive number: {text!r}")
    return tol


def _json_value(v):
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, np.ndarray):
        return v.tolist()
    return v


def _write_report(args: argparse.Namespace, report, header=None, rows=None) -> None:
    """Write the report to --out: CSV where the command takes ``--format``,
    unless it is json, else JSON.  A report dataclass is written as its
    fields, in field order, with enums as their values and arrays as lists;
    a dict is written as it is."""
    if not args.out:
        return
    if getattr(args, "format", "json") != "json":
        _write_text(args.out, _csv(rows, header))
        return
    if dataclasses.is_dataclass(report):
        report = {f.name: _json_value(getattr(report, f.name)) for f in dataclasses.fields(report)}
    _write_text(args.out, json.dumps(report, indent=2) + "\n")


def cmd_spectrum(args: argparse.Namespace) -> int:
    spec = _operator_spec(args, _KIND_FLAGS[args.kind])
    if args.dump_matrix:
        a = assemble_spec(spec, args.n_basis)
        _write_text(
            args.dump_matrix,
            "\n".join(",".join(_fmt(v) for v in row) for row in a) + "\n",
        )
    s = spectrum(spec, args.n_basis)
    vals, errs = s.vals.tolist(), s.est_abs_err.tolist()
    rows = [(i + 1, vals[i], errs[i], int(i < s.n_trusted)) for i in range(s.basis_n)]
    _write_report(args, s, ["n", "value", "est_abs_err", "trusted"], rows)
    print(f"kind={s.kind} basis={s.basis_n} n_trusted={s.n_trusted}")
    return EXIT_OK


def cmd_trace(args: argparse.Namespace) -> int:
    formula = FormulaId(args.formula)
    report = verify(
        formula,
        _coeffs(args),
        n=args.n_basis,
        k=args.k_trunc,
        mode=args.mode,
        tau=args.tau,
    )
    tol = args.tol if args.tol is not None else DEFAULT_TOLERANCES[formula]
    ok = abs(report.gap) <= tol
    rows = [(i, s, report.accelerated, report.rhs, report.gap)
            for i, s in enumerate(report.partial, start=1)]
    _write_report(args, report, ["K", "S_K", "accelerated", "rhs", "gap"], rows)
    print(
        f"formula={formula.value} gap={_fmt(report.gap)} tol={tol:g} "
        + ("PASS" if ok else "FAIL")
    )
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_dispute(args: argparse.Namespace) -> int:
    report = dispute(
        DisputeVariant(args.variant),
        load_coefficient(args.p_path),
        q=load_coefficient(args.q_path) if args.q_path else None,
        n=args.n_basis,
        k=args.k_trunc,
        tol=args.tol if args.tol is not None else 1e-2,
    )
    _write_report(args, report)
    print(
        f"dispute={report.variant.value} verdict={report.verdict} "
        f"computed={_fmt(report.computed_lhs)} variant_rhs={_fmt(report.variant_rhs)} "
        f"reference_rhs={_fmt(report.reference_rhs)} disagreement={_fmt(report.disagreement)}"
    )
    return EXIT_OK


def cmd_asym(args: argparse.Namespace) -> int:
    report = asym_residuals(
        _operator_spec(args, KIND_FOURTH_ORDER), n=args.n_basis, k=args.k_trunc
    )
    rows = [(i + 1, float(r), float((i + 1) ** 2 * abs(r))) for i, r in enumerate(report.residuals)]
    _write_report(args, report, ["n", "residual", "n2_abs_residual"], rows)
    print(
        f"fitted_C={_fmt(report.fitted_c)} over n in [{report.fit_lo}, {report.fit_hi}] "
        f"basis={report.basis_n}"
    )
    return EXIT_OK


def cmd_localize(args: argparse.Namespace) -> int:
    report = localization(spectrum(_operator_spec(args, _KIND_FLAGS[args.kind]), args.n_basis))
    _write_report(args, report)
    print(
        f"n0={report.n0} violations={len(report.violations)} horizon={report.horizon}"
    )
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.full_spectra and not (args.out and args.format == "json"):
        raise PreconditionError("--full-spectra is written only to a JSON report: "
                                "give --format json and --out")
    # --recover: the operator kind swept, the recovery and the printed target
    kind, recover, target = {
        "V": (KIND_FOURTH_ORDER, recover_V, "V"),
        "q": (KIND_FOURTH_ORDER, recover_q, "q"),
        "Q": (KIND_SQUARE_PLUS_Q, recover_Q, "Q"),
        "p2": (KIND_SECOND_ORDER, recover_Q, "p_second_order"),
    }[args.recover]
    result = sweep(_operator_spec(args, kind), args.grid, n=args.n_basis, k=args.k_trunc)
    recover(result)
    payload = {
        "target": target,
        "basis_n": result.basis_n,
        "k_trunc": result.k_trunc,
        "n0": result.n0,
        "taus": result.taus.tolist(),
        "recovered": result.recovered[:, 1].tolist(),
        "accelerated": result.accelerated.tolist(),
        "n_trusted": result.n_trusted.tolist(),
        "sum_branch": result.sum_branch.tolist(),
        "wrap_gap": result.wrap_gap(),
    }
    if args.full_spectra:
        payload["spectra"] = [
            {
                key: {"vals": s.vals.tolist(), "est_abs_err": s.est_abs_err.tolist(),
                      "n_trusted": s.n_trusted}
                for key, s in specs.items()
            }
            for specs in result.spectra
        ]
    rows = zip(payload["taus"], payload["recovered"], payload["accelerated"], payload["n_trusted"])
    _write_report(args, payload, ["tau", "recovered_value", "accelerated_sum", "n_trusted"], rows)
    print(
        f"sweep target={target} grid={len(result.taus)} n0={result.n0} "
        f"wrap_gap={_fmt(result.wrap_gap())}"
    )
    return EXIT_OK


# The options several commands share, by flag; each command names the ones
# its handler reads, so no command accepts an option it would ignore.
_SHARED = {
    "--p": {"dest": "p_path", "metavar": "FILE", "help": "coefficient p (JSON)"},
    "--q": {"dest": "q_path", "metavar": "FILE", "help": "coefficient q (JSON)"},
    "--Q": {"dest": "Q_path", "metavar": "FILE", "help": "coefficient Q (JSON)"},
    "--tau": {"type": float, "default": 0.0, "help": "circle shift (default 0)"},
    "-N": {"dest": "n_basis", "type": int, "default": DEFAULT_N,
           "help": f"basis size (default {DEFAULT_N})"},
    "-K": {"dest": "k_trunc", "type": int, "default": DEFAULT_K,
           "help": f"sum truncation (default {DEFAULT_K})"},
    "--mode": {
        "choices": ("fourier", "richardson", "none"),
        "default": "fourier",
        "help": "tail acceleration mode (default fourier)",
    },
    "--out": {"help": "report file path"},
    "--format": {"choices": ("csv", "json"), "default": None,
                 "help": "report format for --out (default csv)"},
    "--tol": {"type": _tolerance, "default": None, "help": "override verification tolerance"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinespec",
        description="Spectra, regularized trace identities and coefficient "
        "recovery for second- and fourth-order operators on [0,1].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text, *shared):
        p = sub.add_parser(name, help=help_text)
        for flag in shared:
            p.add_argument(flag, **_SHARED[flag])
        p.set_defaults(handler=handler)
        return p

    p = command("spectrum", cmd_spectrum, "eigenvalues with trust annotations",
                "--p", "--q", "--Q", "--tau", "-N", "--out", "--format")
    p.add_argument("--kind", choices=tuple(_KIND_FLAGS), default="H")
    p.add_argument("--dump-matrix", dest="dump_matrix", metavar="FILE",
                   help="write the assembled matrix as CSV")

    p = command("trace", cmd_trace, "verify one trace identity", *_SHARED)
    p.add_argument("--formula", required=True, choices=[f.value for f in FormulaId])

    p = command("dispute", cmd_dispute, "adjudicate a historical formula",
                "--p", "--q", "-N", "-K", "--out", "--tol")
    p.add_argument("--variant", required=True, choices=[v.value for v in DisputeVariant])

    command("asym", cmd_asym, "eigenvalue-expansion residuals",
            "--p", "--q", "--Q", "--tau", "-N", "-K", "--out", "--format")

    p = command("localize", cmd_localize, "window/disc eigenvalue counting",
                "--p", "--q", "--Q", "--tau", "-N", "--out")
    p.add_argument("--kind", choices=("H", "h2q"), default="H")

    p = command("sweep", cmd_sweep, "shifted-family sweep and recovery",
                "--p", "--q", "--Q", "-N", "-K", "--out", "--format")
    p.add_argument("--recover", required=True, choices=("V", "q", "Q", "p2"))
    p.add_argument("--grid", type=int, default=16, help="sweep grid size (default 16)")
    p.add_argument("--full-spectra", dest="full_spectra", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "format", None) and not args.out:
            raise PreconditionError(f"--format {args.format} is read only with --out")
        return args.handler(args)
    except (PreconditionError, CoefficientFileError, OSError) as exc:
        # OSError: an --out or --dump-matrix path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
