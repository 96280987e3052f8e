#!/usr/bin/env python3
"""Run every trace identity over a panel of coefficient choices and print a
verification table (formula, inputs, accelerated sum, closed form, gap)."""

import argparse
import math

from sinespec import Coefficient, CoefficientSet, DEFAULT_TOLERANCES, FormulaId, verify

COS1 = Coefficient.harmonic_cos(1)
COS2 = Coefficient.harmonic_cos(2)
SIN2 = Coefficient.harmonic_sin(2)

PANEL = [
    (FormulaId.GLF, CoefficientSet(p=COS1), 0.0),
    (FormulaId.GLF, CoefficientSet(p=COS1 + COS2), 0.0),
    (FormulaId.S01, CoefficientSet(p=COS1), 0.0),
    (FormulaId.S01, CoefficientSet(p=COS2), 0.0),
    (FormulaId.TRF3, CoefficientSet(p=Coefficient.constant(1.0)), 0.0),
    (FormulaId.TRF3, CoefficientSet(p=COS2), 0.0),
    (FormulaId.TRF3, CoefficientSet(p=COS2, q=SIN2), 0.0),
    (FormulaId.TRS, CoefficientSet(q=COS2), 0.0),
    (FormulaId.TR3, CoefficientSet(Q=COS2), 0.0),
    (FormulaId.TR3, CoefficientSet(p=COS2, Q=COS2), 0.0),
    (FormulaId.COR1, CoefficientSet(p=COS2, Q=COS2), 0.0),
    (FormulaId.IPR1, CoefficientSet(p=COS2, q=SIN2), 0.25),
    (FormulaId.IP2, CoefficientSet(p=COS2, Q=SIN2), 0.25),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-N", dest="n", type=int, default=256)
    ap.add_argument("-K", dest="k", type=int, default=64)
    ap.add_argument("--mode", default="fourier", choices=("fourier", "richardson", "none"))
    args = ap.parse_args()

    print(f"basis N={args.n}, truncation K={args.k}, mode={args.mode}")
    header = f"{'formula':8} {'tau':>5} {'accelerated':>16} {'closed form':>16} {'gap':>12}  verdict"
    print(header)
    print("-" * len(header))
    failures = 0
    for formula, coeffs, tau in PANEL:
        rep = verify(formula, coeffs, n=args.n, k=args.k, mode=args.mode, tau=tau)
        tol = DEFAULT_TOLERANCES[formula]
        ok = abs(rep.gap) <= tol
        failures += not ok
        print(
            f"{formula.value:8} {tau:5.2f} {rep.accelerated:16.8f} {rep.rhs:16.8f} "
            f"{rep.gap:+12.2e}  {'PASS' if ok else 'FAIL'} (tol {tol:g})  [{rep.inputs_digest}]"
        )
    print(f"\n{len(PANEL) - failures}/{len(PANEL)} identities verified at default tolerances")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
