"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with ``pytest -rA -v`` to see the lines)."""

import math
import time

import numpy as np
import pytest

from conftest import random_symmetric
from reference_eigensolvers import jacobi_eigenvalues, tridiag_eigenvalues, tridiagonalize
from reference_square import padded_spectrum
from sinespec import (
    Coefficient,
    CoefficientSet,
    DisputeVariant,
    FormulaId,
    KIND_FOURTH_ORDER,
    KIND_SECOND_ORDER,
    OperatorSpec,
    ZERO,
    asym_residuals,
    dispute,
    localization,
    recover_Q,
    recover_q,
    rhs,
    spectrum,
    sweep,
    verify,
)

PI = math.pi
COS1 = Coefficient.harmonic_cos(1)
COS2 = Coefficient.harmonic_cos(2)
SIN2 = Coefficient.harmonic_sin(2)


def report(num, name, ok, detail):
    print(f"[criterion {num:>3}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_constant_coefficient_exactness():
    t0 = time.perf_counter()
    s = spectrum(OperatorSpec(KIND_FOURTH_ORDER, p=Coefficient.constant(1.0)), 128)
    ns = np.arange(1, 33)
    exact = (PI * ns) ** 4 - 2 * (PI * ns) ** 2
    rel = np.max(np.abs(s.vals[:32] - exact) / (PI * ns) ** 4)
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-6 and elapsed < 1.0
    assert report(1, "constant-coefficient exactness", ok, f"max rel err {rel:.2e}, {elapsed:.2f}s")


def test_criterion_02a_fourth_order_trace_formula_gap():
    rep = verify(FormulaId.TRF3, CoefficientSet(p=COS2), n=256, k=64, mode="fourier")
    expected_rhs = -0.125 - PI**2
    ok = abs(rep.gap) <= 1e-2 and abs(rep.rhs - expected_rhs) < 1e-12
    detail = (
        f"gap {rep.gap:+.5e} vs tol 1e-2, rhs {rep.rhs:.6f}; "
        f"richardson-mode gap for context: "
        f"{verify(FormulaId.TRF3, CoefficientSet(p=COS2), n=256, k=64, mode='richardson').gap:+.1e}"
    )
    assert report("2a", "TRF3 fourier gap", ok, detail)


def test_criterion_02b_trf3_trq0_right_side_identity():
    vals = []
    for p in (COS2, COS1, COS1 + COS2):
        a = rhs(FormulaId.TRF3, CoefficientSet(p=p))
        b = rhs(FormulaId.TRQ0, CoefficientSet(p=p))
        vals.append(abs(a - b) / max(abs(a), 1e-300))
    ok = max(vals) <= 1e-12
    assert report("2b", "rhs(TRF3) = rhs(TRQ0) at q=0", ok, f"max rel diff {max(vals):.2e}")


def test_criterion_03_constant_p_function_perturbation():
    rep = verify(FormulaId.TRS, CoefficientSet(q=COS2), n=256, k=64)
    ok = abs(rep.accelerated - (-0.5)) <= 1e-3
    assert report(3, "TRS accelerated sum", ok, f"accelerated {rep.accelerated:.6f} vs -0.5")


def test_criterion_04_second_order_trace_formula():
    rep1 = verify(FormulaId.GLF, CoefficientSet(p=COS1 + COS2), n=256, k=64)
    rep2 = verify(FormulaId.GLF, CoefficientSet(p=COS1), n=256, k=64)
    ok = abs(rep1.accelerated - 0.5) <= 1e-3 and abs(rep2.accelerated) <= 1e-3
    assert report(
        4, "GLF accelerated sums", ok,
        f"{rep1.accelerated:.6f} vs 0.5; {rep2.accelerated:.2e} vs 0",
    )


def test_criterion_05_squared_operator_trace_formula():
    rep1 = verify(FormulaId.S01, CoefficientSet(p=COS1), n=256, k=64)
    rep2 = verify(FormulaId.S01, CoefficientSet(p=COS2), n=256, k=64)
    ok = abs(rep1.gap) <= 1e-2 and abs(rep2.gap) <= 1e-2
    assert report(
        5, "S01 gaps", ok,
        f"cos(pi x): {rep1.gap:+.2e} (rhs -0.375); cos(2 pi x): {rep2.gap:+.2e} "
        f"(rhs {PI**2 - 0.375:.5f})",
    )


def test_criterion_06_function_perturbation_formula():
    rep1 = verify(FormulaId.TR3, CoefficientSet(Q=COS2), n=256, k=64)
    rep2 = verify(FormulaId.TR3, CoefficientSet(p=COS2, Q=COS2), n=256, k=64)
    ok = (
        abs(rep1.accelerated - (-0.5)) <= 1e-3
        and abs(rep2.accelerated - (-0.5)) <= 1e-3
        and abs(rep1.rhs + 0.5) < 1e-12
        and abs(rep2.rhs + 0.5) < 1e-12
    )
    assert report(
        6, "TR3 accelerated sums", ok,
        f"p=0: {rep1.accelerated:.6f}; p=cos(2 pi x): {rep2.accelerated:.6f}; rhs -0.5",
    )


def test_criterion_07_dispute_adjudication():
    dk = dispute(DisputeVariant.DIKII_TRFD1, COS2, n=256, k=64)
    miss = abs(dk.computed_lhs - dk.variant_rhs)
    ok_dikii = (
        dk.verdict == "reference"
        and abs(miss - 2 * PI**2) <= 0.1
        and abs(dk.computed_lhs - dk.reference_rhs) <= 1e-2
    )
    sv = dispute(
        DisputeVariant.SADOVNICHII_TRS, COS2, q=COS2.derivative(2) + COS2 * COS2, n=256, k=64
    )
    err_ref = abs(sv.computed_lhs - sv.reference_rhs)
    err_var = abs(sv.computed_lhs - sv.variant_rhs)
    ok_sad = sv.verdict == "reference" and err_var >= 10 * max(err_ref, 1e-12)
    ok = ok_dikii and ok_sad
    assert report(
        7, "dispute adjudication", ok,
        f"Dikii miss {miss:.4f} vs 2 pi^2 = {2 * PI**2:.4f}; "
        f"Sadovnichii third term {sv.computed_lhs:.5f} vs 0.25 (not 0.5)",
    )


def test_criterion_08_cross_path_spectra():
    n = 128
    q = SIN2
    mu = spectrum(OperatorSpec(KIND_FOURTH_ORDER, p=COS2, q=q), n)
    Q = q - COS2.derivative(2) - COS2 * COS2
    # the squared operator through its padded eigenbasis, a construction
    # independent of the H(p, p''+p^2+Q) assembly that spectrum() solves
    nu, nu_est = padded_spectrum(COS2, Q, n)
    keep = n // 2
    diff = np.abs(mu.vals[:keep] - nu[:keep])
    budget = 10.0 * (mu.est_abs_err[:keep] + nu_est[:keep])
    ok = bool(np.all(diff <= budget))
    worst = int(np.argmax(diff - budget))
    assert report(
        8, "cross-path spectra", ok,
        f"max |diff| {diff.max():.2e}; worst margin at n={worst + 1}: "
        f"{diff[worst]:.2e} vs {budget[worst]:.2e}",
    )


def test_criterion_09_asymptotic_residual_stability():
    spec = lambda: OperatorSpec(KIND_FOURTH_ORDER, p=COS2, q=SIN2)
    c256 = asym_residuals(spec(), n=256, k=64).fitted_c
    c512 = asym_residuals(spec(), n=512, k=64).fitted_c
    change = abs(c512 - c256) / abs(c256)
    ok = np.isfinite(c256) and np.isfinite(c512) and change <= 0.20
    assert report(
        9, "asymptotic residual constant", ok,
        f"C(256) = {c256:.4f}, C(512) = {c512:.4f}, change {100 * change:.2f}%",
    )


def test_criterion_10_localization():
    cases = [
        OperatorSpec(KIND_FOURTH_ORDER),
        OperatorSpec(KIND_FOURTH_ORDER, p=Coefficient.constant(1.0)),
        OperatorSpec(KIND_FOURTH_ORDER, p=COS2),
        OperatorSpec(KIND_FOURTH_ORDER, p=COS2, q=SIN2),
        OperatorSpec(KIND_FOURTH_ORDER, p=COS1 + COS2, q=Coefficient.harmonic_sin(1)),
    ]
    reports = [localization(spectrum(s, 128)) for s in cases]
    ok = all(not r.violations for r in reports)
    assert report(
        10, "localization windows", ok,
        "n0 = " + ", ".join(str(r.n0) for r in reports) + "; all violation lists empty",
    )


def test_criterion_11_inverse_round_trip():
    t0 = time.perf_counter()
    res = sweep(OperatorSpec(KIND_FOURTH_ORDER, p=COS2, q=SIN2), 16, n=256, k=64)
    rec = recover_q(res)
    sup_q = float(np.max(np.abs(rec[:, 1] - np.sin(2 * PI * res.taus))))
    res2 = sweep(OperatorSpec(KIND_SECOND_ORDER, p=COS2), 16, n=256, k=64)
    rec2 = recover_Q(res2)
    sup_p = float(np.max(np.abs(rec2[:, 1] - np.cos(2 * PI * res2.taus))))
    elapsed = time.perf_counter() - t0
    ok = sup_q <= 2e-2 and sup_p <= 1e-2 and elapsed < 120.0
    assert report(
        11, "inverse round trip", ok,
        f"sup|q_rec - q| = {sup_q:.2e} (tol 2e-2), sup|p_rec - p| = {sup_p:.2e} "
        f"(tol 1e-2), {elapsed:.1f}s",
    )


def test_criterion_12_eigensolver_properties():
    rng = np.random.default_rng(2718281828)

    def ql(a):
        d, e, _ = tridiagonalize(a)
        return tridiag_eigenvalues(d, e)

    # QL vs Jacobi on 64x64 randoms, relative to the matrix scale
    agree = 0.0
    trace_err = 0.0
    for _ in range(3):
        a = random_symmetric(rng, 64)
        scale = max(1.0, float(np.max(np.abs(a))))
        vals = ql(a)
        agree = max(agree, float(np.max(np.abs(vals - jacobi_eigenvalues(a)))) / scale)
        trace_err = max(
            trace_err, abs(float(vals.sum()) - float(np.trace(a))) / np.linalg.norm(a)
        )
    # 1000-case fuzz across sizes and scales
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        a = random_symmetric(rng, n, scale=10.0 ** rng.integers(-2, 3))
        try:
            v1 = ql(a)
            v2 = jacobi_eigenvalues(a)
        except Exception:
            failures += 1
            continue
        if np.max(np.abs(v1 - v2)) > 1e-10 * max(1.0, float(np.max(np.abs(a)))):
            failures += 1
    ok = agree <= 1e-10 and trace_err <= 1e-10 and failures == 0
    assert report(
        12, "eigensolver properties", ok,
        f"QL/Jacobi agreement {agree:.2e}, trace error {trace_err:.2e}, "
        f"fuzz failures {failures}/1000",
    )
