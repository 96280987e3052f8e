"""Command-line front end: coefficient files in, machine-readable reports out.

Commands: spectrum, trace, dispute, asym, localize, sweep.  Coefficient
files are JSON objects {"u": [...], "w": [...]} with u indexed from
frequency 0 and w from frequency 1; a missing "w" means all zeros.
Numbers in CSV output carry 17 significant digits so identical inputs
reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .coeffs import ZERO, Coefficient
from .errors import CoefficientFileError, NumericError, PreconditionError
from .eigensolve import spectrum
from .inverse import recover_Q, recover_V, recover_q, sweep, target_kind
from .operators import (
    KIND_FOURTH_ORDER,
    KIND_SECOND_ORDER,
    KIND_SQUARE_PLUS_Q,
    OperatorSpec,
    assemble_spec,
)
from .traces import (
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
    except OSError as exc:
        raise CoefficientFileError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CoefficientFileError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise CoefficientFileError(f"{path}: top level must be a JSON object")
    for key in data:
        if key not in ("u", "w"):
            raise CoefficientFileError(f"{path}: unknown field {key!r} (expected 'u', 'w')")
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


def _operator_spec(args: argparse.Namespace) -> OperatorSpec:
    cs = _coeffs(args)
    return OperatorSpec(_KIND_FLAGS[args.kind], p=cs.p, q=cs.q, Q=cs.Q, tau=args.tau)


def cmd_spectrum(args: argparse.Namespace) -> int:
    spec = _operator_spec(args)
    if args.dump_matrix:
        a = assemble_spec(spec, args.n_basis).a
        _write_text(
            args.dump_matrix,
            "\n".join(",".join(_fmt(v) for v in row) for row in a) + "\n",
        )
    s = spectrum(spec, args.n_basis)
    rows = [
        (i + 1, float(s.vals[i]), float(s.est_abs_err[i]), int(i < s.n_trusted))
        for i in range(s.basis_n)
    ]
    if args.out:
        if args.format == "json":
            payload = {
                "kind": s.kind,
                "basis_n": s.basis_n,
                "n_trusted": s.n_trusted,
                "vals": [float(v) for v in s.vals],
                "est_abs_err": [float(v) for v in s.est_abs_err],
            }
            _write_text(args.out, json.dumps(payload, indent=2) + "\n")
        else:
            _write_text(args.out, _csv(rows, ["n", "value", "est_abs_err", "trusted"]))
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
        center_q=args.center_q,
    )
    tol = args.tol if args.tol is not None else DEFAULT_TOLERANCES[formula]
    ok = abs(report.gap) <= tol
    if args.out:
        if args.format == "json":
            _write_text(args.out, json.dumps(report.to_dict(), indent=2) + "\n")
        else:
            _write_text(
                args.out,
                _csv(report.csv_rows(), ["K", "S_K", "accelerated", "rhs", "gap"]),
            )
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
    if args.out:
        _write_text(args.out, json.dumps(report.to_dict(), indent=2) + "\n")
    print(
        f"dispute={report.variant.value} verdict={report.verdict} "
        f"computed={_fmt(report.computed_lhs)} variant_rhs={_fmt(report.variant_rhs)} "
        f"reference_rhs={_fmt(report.reference_rhs)} disagreement={_fmt(report.disagreement)}"
    )
    return EXIT_OK


def cmd_asym(args: argparse.Namespace) -> int:
    cs = _coeffs(args)
    spec = OperatorSpec(KIND_FOURTH_ORDER, p=cs.p, q=cs.q, Q=cs.Q, tau=args.tau)
    report = asym_residuals(spec, n=args.n_basis, k=args.k_trunc)
    if args.out:
        if args.format == "json":
            _write_text(args.out, json.dumps(report.to_dict(), indent=2) + "\n")
        else:
            rows = [
                (i + 1, float(r), float((i + 1) ** 2 * abs(r)))
                for i, r in enumerate(report.residuals)
            ]
            _write_text(args.out, _csv(rows, ["n", "residual", "n2_abs_residual"]))
    print(
        f"fitted_C={_fmt(report.fitted_c)} over n in [{report.fit_lo}, {report.fit_hi}] "
        f"basis={report.basis_n}"
    )
    return EXIT_OK


def cmd_localize(args: argparse.Namespace) -> int:
    s = spectrum(_operator_spec(args), args.n_basis)
    report = localization(s)
    if args.out:
        _write_text(args.out, json.dumps(report.to_dict(), indent=2) + "\n")
    print(
        f"n0={report.n0} violations={len(report.violations)} horizon={report.horizon}"
    )
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    target = {"V": "V", "q": "q", "Q": "Q", "p2": "p_second_order"}[args.recover]
    cs = _coeffs(args)
    template = OperatorSpec(target_kind(target), p=cs.p, q=cs.q, Q=cs.Q)
    result = sweep(
        template, args.grid, n=args.n_basis, k=args.k_trunc, mode=args.mode, target=target
    )
    if target == "q":
        recover_q(result)
    elif target == "V":
        recover_V(result)
    else:
        recover_Q(result)
    rows = [
        (
            float(result.taus[i]),
            float(result.recovered[i, 1]),
            float(result.accelerated[i]),
            int(result.n_trusted[i]),
        )
        for i in range(len(result.taus))
    ]
    if args.out:
        if args.format == "json":
            payload = {
                "target": result.target,
                "mode": result.mode,
                "basis_n": result.basis_n,
                "k_trunc": result.k_trunc,
                "n0": result.n0,
                "taus": [float(t) for t in result.taus],
                "recovered": [float(v) for v in result.recovered[:, 1]],
                "accelerated": [float(v) for v in result.accelerated],
                "n_trusted": [int(v) for v in result.n_trusted],
                "sum_branch": [float(v) for v in result.sum_branch],
                "wrap_gap": result.wrap_gap(),
            }
            if args.full_spectra:
                payload["spectra"] = [
                    {
                        key: {
                            "vals": [float(v) for v in s.vals],
                            "est_abs_err": [float(v) for v in s.est_abs_err],
                            "n_trusted": s.n_trusted,
                        }
                        for key, s in specs.items()
                    }
                    for specs in result.spectra
                ]
            _write_text(args.out, json.dumps(payload, indent=2) + "\n")
        else:
            _write_text(
                args.out,
                _csv(rows, ["tau", "recovered_value", "accelerated_sum", "n_trusted"]),
            )
    print(
        f"sweep target={result.target} grid={len(result.taus)} n0={result.n0} "
        f"wrap_gap={_fmt(result.wrap_gap())}"
    )
    return EXIT_OK


_HANDLERS = {
    "spectrum": cmd_spectrum,
    "trace": cmd_trace,
    "dispute": cmd_dispute,
    "asym": cmd_asym,
    "localize": cmd_localize,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinespec",
        description="Spectra, regularized trace identities and coefficient "
        "recovery for second- and fourth-order operators on [0,1].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", dest="p_path", metavar="FILE", help="coefficient p (JSON)")
    common.add_argument("--q", dest="q_path", metavar="FILE", help="coefficient q (JSON)")
    common.add_argument("--Q", dest="Q_path", metavar="FILE", help="coefficient Q (JSON)")
    common.add_argument("--tau", type=float, default=0.0, help="circle shift (default 0)")
    common.add_argument("-N", dest="n_basis", type=int, default=256, help="basis size (default 256)")
    common.add_argument("-K", dest="k_trunc", type=int, default=64, help="sum truncation (default 64)")
    common.add_argument(
        "--mode",
        choices=("fourier", "richardson", "none"),
        default="fourier",
        help="tail acceleration mode (default fourier)",
    )
    common.add_argument("--out", help="report file path")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--tol", type=float, default=None, help="override verification tolerance")

    p = sub.add_parser("spectrum", parents=[common], help="eigenvalues with trust annotations")
    p.add_argument("--kind", choices=tuple(_KIND_FLAGS), default="H")
    p.add_argument("--dump-matrix", dest="dump_matrix", metavar="FILE", help="write the assembled matrix as CSV")

    p = sub.add_parser("trace", parents=[common], help="verify one trace identity")
    p.add_argument("--formula", required=True, choices=[f.value for f in FormulaId])
    p.add_argument("--center-q", dest="center_q", action="store_true", help="subtract the mean of q before verifying")

    p = sub.add_parser("dispute", parents=[common], help="adjudicate a historical formula")
    p.add_argument("--variant", required=True, choices=[v.value for v in DisputeVariant])

    sub.add_parser("asym", parents=[common], help="eigenvalue-expansion residuals")

    p = sub.add_parser("localize", parents=[common], help="window/disc eigenvalue counting")
    p.add_argument("--kind", choices=("H", "h2q"), default="H")

    p = sub.add_parser("sweep", parents=[common], help="shifted-family sweep and recovery")
    p.add_argument("--recover", required=True, choices=("V", "q", "Q", "p2"))
    p.add_argument("--grid", type=int, default=16, help="sweep grid size (default 16)")
    p.add_argument("--full-spectra", dest="full_spectra", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (PreconditionError, CoefficientFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
