#!/usr/bin/env python3
"""Recover q from the spectra of the shifted fourth-order family and write the
grid samples to CSV, comparing against the true coefficient."""

import argparse
import math

import numpy as np

from sinespec import (
    Coefficient,
    KIND_FOURTH_ORDER,
    OperatorSpec,
    fit_trig,
    recover_q,
    sweep,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=int, default=16)
    ap.add_argument("-N", dest="n", type=int, default=256)
    ap.add_argument("-K", dest="k", type=int, default=64)
    ap.add_argument("--mode", default="fourier", choices=("fourier", "richardson", "none"))
    ap.add_argument("--out", default="recovered_q.csv")
    args = ap.parse_args()

    p = Coefficient.harmonic_cos(2)
    q = Coefficient.harmonic_sin(2)
    template = OperatorSpec(KIND_FOURTH_ORDER, p=p, q=q)
    result = sweep(template, args.grid, n=args.n, k=args.k, mode=args.mode)
    rec = recover_q(result)
    truth = q.evaluate(result.taus)
    err = np.abs(rec[:, 1] - truth)

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("tau,recovered_q,true_q,abs_error\n")
        for i in range(len(result.taus)):
            fh.write(
                f"{result.taus[i]:.17g},{rec[i, 1]:.17g},{truth[i]:.17g},{err[i]:.17g}\n"
            )

    fitted = fit_trig(rec[:, 1], max_harmonic=1)
    print(f"recovered q on a {args.grid}-point grid (N={args.n}, K={args.k}, {args.mode})")
    print(f"sup error      : {err.max():.3e}")
    print(f"wrap gap       : {result.wrap_gap():.3e}")
    print(f"trig fit       : {fitted.short()}")
    print(f"samples written: {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
