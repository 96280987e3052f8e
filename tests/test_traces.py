import argparse
import json
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from conftest import amplitudes, coefficients
from sinespec import (
    Coefficient,
    CoefficientSet,
    DisputeVariant,
    DEFAULT_TOLERANCES,
    FormulaId,
    KIND_FOURTH_ORDER,
    KIND_SECOND_ORDER,
    OperatorSpec,
    PreconditionError,
    ZERO,
    asym_residuals,
    big_P,
    build_V,
    check_preconditions,
    dispute,
    localization,
    partial_sums,
    rhs,
    spectra_for,
    spectrum,
    summand,
    sweep,
    tail_accelerate,
    verify,
)
from sinespec import eigensolve
from sinespec.cli import _write_report, main
from sinespec.traces import FORMULAS, ROLES, _HYPOTHESES, _tail_constant, check_basis_size
from reference_paths import _second_order_constant

PI = math.pi
COS1 = Coefficient.harmonic_cos(1)
COS2 = Coefficient.harmonic_cos(2)
SIN2 = Coefficient.harmonic_sin(2)


# -- summand -------------------------------------------------------------------


def test_trf3_summand_vanishes_for_constant_p():
    cs = CoefficientSet(p=Coefficient.constant(1.5))
    sp = spectra_for(FormulaId.TRF3, cs, 32)
    for n in (1, 2, 5, 10):
        assert abs(summand(FormulaId.TRF3, n, sp, cs)) < 1e-7


def test_glf_summand_vanishes_for_constant_p():
    cs = CoefficientSet(p=Coefficient.constant(-0.75))
    sp = spectra_for(FormulaId.GLF, cs, 32)
    for n in (1, 3, 8):
        assert abs(summand(FormulaId.GLF, n, sp, cs)) < 1e-10


def test_trf3_summand_leading_term_cos_2pi():
    # first summand approaches -c_2(V) = -pi^2; frozen from refined runs
    cs = CoefficientSet(p=COS2)
    sp = spectra_for(FormulaId.TRF3, cs, 256)
    s1 = summand(FormulaId.TRF3, 1, sp, cs)
    assert s1 == pytest.approx(-9.7319656720, abs=1e-6)
    assert abs(s1 + PI**2) < 0.2


def test_summand_rejects_untrusted_index():
    cs = CoefficientSet(p=COS2)
    sp = spectra_for(FormulaId.TRF3, cs, 32)
    with pytest.raises(PreconditionError):
        summand(FormulaId.TRF3, 33, sp, cs)


# -- right sides -----------------------------------------------------------------


def test_rhs_trf3_cos_2pi():
    val = rhs(FormulaId.TRF3, CoefficientSet(p=COS2))
    assert val == pytest.approx(-0.125 - PI**2, rel=1e-14)


def test_rhs_s01_cos_pi():
    assert rhs(FormulaId.S01, CoefficientSet(p=COS1)) == pytest.approx(-0.375, rel=1e-14)


def test_rhs_s01_cos_2pi():
    assert rhs(FormulaId.S01, CoefficientSet(p=COS2)) == pytest.approx(PI**2 - 0.375, rel=1e-14)


def test_rhs_glf_two_cosines():
    val = rhs(FormulaId.GLF, CoefficientSet(p=COS1 + COS2))
    assert val == pytest.approx(0.5, rel=1e-14)


def test_rhs_tr3_cos_2pi():
    assert rhs(FormulaId.TR3, CoefficientSet(Q=COS2)) == pytest.approx(-0.5, rel=1e-14)


def test_rhs_trf3_equals_trq0_when_q_zero():
    for p in (COS1, COS2, COS1 + COS2, Coefficient(u=(0.0, 0.5, -1.0, 0.25))):
        a = rhs(FormulaId.TRF3, CoefficientSet(p=p))
        b = rhs(FormulaId.TRQ0, CoefficientSet(p=p))
        assert a == pytest.approx(b, rel=1e-12)


@given(coefficients(max_degree=5))
@settings(max_examples=20)
def test_rhs_trf3_trq0_identity_random(p):
    a = rhs(FormulaId.TRF3, CoefficientSet(p=p))
    b = rhs(FormulaId.TRQ0, CoefficientSet(p=p))
    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_rhs_trs_reduces_trf3_for_constant_p():
    q = COS2
    p = Coefficient.constant(2.0)
    assert rhs(FormulaId.TRS, CoefficientSet(p=p, q=q)) == rhs(
        FormulaId.TRF3, CoefficientSet(p=p, q=q)
    )


def test_rhs_ipr1_uses_shift_point():
    cs = CoefficientSet(p=COS2)
    # V = 2 pi^2 cos(2 pi tau); V(1/4) = 0
    assert rhs(FormulaId.IPR1, cs.shifted(0.25)) == pytest.approx(-0.125, rel=1e-12)


# -- tail acceleration --------------------------------------------------------------


def test_accelerated_sum_zero_for_constant_coefficients():
    cs = CoefficientSet(p=Coefficient.constant(1.0))
    sp = spectra_for(FormulaId.TRF3, cs, 64)
    parts = partial_sums(FormulaId.TRF3, sp, cs, 16)
    for mode in ("fourier", "richardson", "none"):
        assert abs(tail_accelerate(FormulaId.TRF3, parts, cs, 16, mode)) < 1e-6


def test_fourier_tail_consistent_across_truncations():
    # p = 0, q = cos 2 pi x: the accelerated value is already settled at
    # K = 16 (raw sums at very large K are no oracle here: each summand
    # subtracts (pi n)^4 ~ 4e11 whose ulp is ~3e-5, so hundreds of terms
    # accumulate more rounding than the tail model leaves behind)
    cs = CoefficientSet(q=COS2)
    sp = spectra_for(FormulaId.TRS, cs, 256)
    parts = partial_sums(FormulaId.TRS, sp, cs, 64)
    acc_16 = tail_accelerate(FormulaId.TRS, parts, cs, 16, "fourier")
    acc_64 = tail_accelerate(FormulaId.TRS, parts, cs, 64, "fourier")
    assert acc_16 == pytest.approx(-0.5, abs=1e-3)
    assert acc_16 == pytest.approx(acc_64, abs=1e-3)


def test_glf_fourier_acceleration_cos_2pi():
    cs = CoefficientSet(p=COS2)
    sp = spectra_for(FormulaId.GLF, cs, 256)
    parts = partial_sums(FormulaId.GLF, sp, cs, 64)
    acc = tail_accelerate(FormulaId.GLF, parts, cs, 64, "fourier")
    assert acc == pytest.approx(0.5, abs=1e-3)


def _closed_form_terms(p, q):
    """The terms of C = -(3 int p'^2 + 4 int p~ q - 4 p0 int p~^2) / (8 pi^2),
    p~ = p - p0: the second-order part of the TRF3 summand's 1/n^2 constant
    for cosine-only p, q."""
    mean = lambda f: f.functionals().mean
    p0 = mean(p)
    pt = p - Coefficient.constant(p0)
    d1 = p.derivative(1)
    return tuple(t / (8 * PI**2) for t in (3 * mean(d1 * d1), 4 * mean(pt * q), -4 * p0 * mean(pt * pt)))


def test_second_order_constant_cos_2pi():
    assert _second_order_constant(COS2, ZERO) == pytest.approx(-0.75, abs=1e-6)
    assert -sum(_closed_form_terms(COS2, ZERO)) == pytest.approx(-0.75, rel=1e-14)


def _cosine_only(f):
    return Coefficient(u=f.u)


@given(coefficients().map(_cosine_only), coefficients().map(_cosine_only))
def test_second_order_constant_matches_closed_form_for_cosines(p, q):
    # The entry sum at n and 2n (n = 128) is extrapolated past its 1/n^2
    # approach, which leaves O((d/n)^4) of the constant's scale for top
    # frequency d <= 6: (6/128)^4 = 5e-6.  The scale is the sum of the
    # terms in absolute value, so cancellation between them cannot shrink
    # the bound to nothing.  The q couplings alone add a 1/n^2 part to the
    # scaled residual, 2.4e-7 int q^2 at n = 128, that has no limit term;
    # the extrapolation leaves O((d/n)^2) of it, under 1e-9 int q^2.
    terms = _closed_form_terms(p, q)
    got = _second_order_constant(p, q)
    bound = 1e-5 * sum(abs(t) for t in terms) + 1e-9 * (q * q).functionals().mean
    assert abs(got + sum(terms)) <= bound


@pytest.mark.parametrize(
    "p, q",
    [
        (COS2, ZERO),
        # the p0 and q terms move C by a quarter
        (COS1 + Coefficient.constant(0.5), COS1.scale(3.0)),
        # sine amplitudes: the closed form misses C by more than half
        (Coefficient.harmonic_sin(1), ZERO),
    ],
)
def test_trf3_summand_tracks_second_order_constant(p, q):
    # n^2 (s_n + c_2n(V)) -> C like 1/n^2: at n = 16 the approach is 1.2% of
    # C for cos 2 pi x; above n ~ 40 the N = 256 eigenvalues carry rounding
    # that n^2 amplifies, so mid-range n are read.  The 5% bound covers the
    # approach plus third-order terms and basis truncation.
    cs = CoefficientSet(p=p, q=q)
    sp = spectra_for(FormulaId.TRF3, cs, 256)
    vhat = build_V(p, q).cosine_coeffs(64)
    c = _second_order_constant(p, q)
    for n in (16, 20, 24):
        scaled = n * n * (summand(FormulaId.TRF3, n, sp, cs) + vhat[2 * n])
        assert scaled == pytest.approx(c, rel=0.05)
    if p.w:
        assert abs(sum(_closed_form_terms(p, q)) + c) > 0.5 * abs(c)


def test_richardson_formula():
    # summands whose tail is exactly C/n^2: richardson returns their limit
    head = np.array([0.5, -0.25, 0.125])
    for k in (8, 31, 32, 64):
        for c in (-0.75, 0.01, 2.0):
            terms = np.array([c / (n * n) for n in range(1, k + 1)])
            terms[: head.size] += head
            limit = float(head.sum()) + c * math.pi**2 / 6.0
            parts = np.cumsum(terms)
            acc = tail_accelerate(FormulaId.TRQ0, parts, CoefficientSet(), k, "richardson")
            assert acc == pytest.approx(limit, abs=1e-12), (k, c)


def test_richardson_closes_seeded_trq0_within_1e_3():
    # 2 S_K - S_{K/2} missed 12 of these 30 inputs, by up to 4.1e-3
    rng = np.random.default_rng(17)
    for _ in range(30):
        deg = int(rng.integers(2, 5))
        p = Coefficient(u=tuple(rng.uniform(-1.0, 1.0, deg + 1)),
                        w=tuple(rng.uniform(-1.0, 1.0, deg)))
        report = verify(FormulaId.TRQ0, CoefficientSet(p=p), mode="richardson")
        assert abs(report.gap) <= 1e-3, p


def _bits(report):
    return [x.hex() for x in (*report.partial, report.accelerated, report.rhs, report.gap)]


@given(coefficients(max_degree=4))
@settings(max_examples=10)
def test_trq0_fourier_matches_trf3_at_q_zero(p):
    # TRQ0 is TRF3 at q = 0: the same spectrum, right side and tail model
    cs = CoefficientSet(p=p)
    try:
        trf3 = verify(FormulaId.TRF3, cs, n=128, k=32, mode="fourier")
    except PreconditionError as exc:
        assume("trust horizon" not in str(exc))
        raise
    assert _bits(verify(FormulaId.TRQ0, cs, n=128, k=32, mode="fourier")) == _bits(trf3)


def test_small_k_rejected():
    with pytest.raises(PreconditionError):
        tail_accelerate(FormulaId.GLF, np.zeros(8), CoefficientSet(), 4)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: verify(FormulaId.GLF, CoefficientSet(p=COS2), n=256, k=4), PreconditionError),
        (lambda: verify(FormulaId.GLF, CoefficientSet(p=COS2), n=64, k=16, mode="exact"),
         ValueError),
        (lambda: sweep(OperatorSpec(KIND_FOURTH_ORDER, p=COS2, q=SIN2), 4, n=64, k=4),
         PreconditionError),
        (lambda: sweep(OperatorSpec(KIND_FOURTH_ORDER, p=COS2, q=SIN2), 4, n=64, k=16,
                       mode="exact"), ValueError),
    ],
    ids=["verify-small-k", "verify-bad-mode", "sweep-small-k", "sweep-bad-mode"],
)
def test_acceleration_refused_before_any_assembly(monkeypatch, call, error):
    calls = []
    real = eigensolve.assemble_spec
    monkeypatch.setattr(eigensolve, "assemble_spec",
                        lambda spec, n, rows=None: calls.append(n) or real(spec, n, rows))
    spectrum.cache_clear()
    with pytest.raises(error):
        call()
    assert calls == []


# -- verify ---------------------------------------------------------------------------


def test_verify_trf3_constant_p_gap_is_solver_noise():
    rep = verify(FormulaId.TRF3, CoefficientSet(p=Coefficient.constant(1.0)), n=64, k=16)
    assert abs(rep.gap) < 1e-7


def test_verify_cor1_cos_2pi():
    rep = verify(FormulaId.COR1, CoefficientSet(p=COS2, Q=COS2), n=128, k=48)
    assert rep.rhs == pytest.approx(-0.5, rel=1e-14)
    assert abs(rep.gap) < 1e-2


def test_verify_reports_rate_exponent_for_slow_tails():
    # q with odd frequencies leaves a genuinely 1/K partial-sum tail
    q = Coefficient.harmonic_sin(1) - Coefficient.constant(2.0 / PI)
    rep = verify(FormulaId.TRF3, CoefficientSet(q=q), n=128, k=48)
    assert rep.rate_exponent <= -0.8


def test_verify_rejects_k_beyond_trust():
    with pytest.raises(PreconditionError):
        verify(FormulaId.GLF, CoefficientSet(p=COS2), n=16, k=17)


def test_partial_sums_reject_k_beyond_trust():
    cs = CoefficientSet(p=COS2)
    with pytest.raises(PreconditionError, match="trust horizon"):
        partial_sums(FormulaId.GLF, spectra_for(FormulaId.GLF, cs, 16), cs, 17)


@pytest.mark.parametrize(
    "call",
    [
        lambda: verify(FormulaId.GLF, CoefficientSet(p=COS2), n=100, k=64),
        lambda: sweep(OperatorSpec(KIND_FOURTH_ORDER), 4, n=100, k=64),
        lambda: asym_residuals(OperatorSpec(KIND_FOURTH_ORDER, p=COS2), n=100, k=64),
        lambda: dispute(
            DisputeVariant.SADOVNICHII_TRS, COS2, q=COS2.derivative(2) + COS2 * COS2, n=100, k=64
        ),
    ],
    ids=["verify", "sweep", "asym_residuals", "sadovnichii"],
)
def test_basis_must_cover_2k(call):
    with pytest.raises(PreconditionError, match="N >= 2K"):
        call()


TEMPLATE_Q = OperatorSpec(KIND_FOURTH_ORDER, p=COS2, q=SIN2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_basis_size(64.0, 16),
        lambda: check_basis_size(64, 16.0),
        lambda: verify(FormulaId.GLF, CoefficientSet(p=COS2), n=64.0, k=16),
        lambda: asym_residuals(OperatorSpec(KIND_FOURTH_ORDER, p=COS2), n=64, k=np.float64(16)),
        # refused on every call, also once the integer key is cached
        lambda: spectrum(OperatorSpec(KIND_SECOND_ORDER, p=COS2), 16) and
        spectrum(OperatorSpec(KIND_SECOND_ORDER, p=COS2), 16.0),
        lambda: spectrum(OperatorSpec(KIND_SECOND_ORDER, p=COS2), "16"),
        lambda: sweep(TEMPLATE_Q, 4.5, n=64, k=16),
        lambda: sweep(TEMPLATE_Q, 4.0, n=64, k=16),
        lambda: sweep(TEMPLATE_Q, 4, n=64.0, k=16),
    ],
    ids=["check-N", "check-K", "verify-N", "asym-K", "spectrum-cached", "spectrum-str",
         "sweep-grid", "sweep-grid-float", "sweep-N"],
)
def test_sizes_must_be_integers(monkeypatch, call):
    # refused before any solve: the CLI's type=int does not guard the library
    spectrum(OperatorSpec(KIND_SECOND_ORDER, p=COS2), 16)

    def solve(*args, **kwargs):
        raise AssertionError("a size that is not an integer reached a solve")

    monkeypatch.setattr(eigensolve, "assemble_spec", solve)
    with pytest.raises(PreconditionError, match="must be an integer"):
        call()


def test_numpy_integer_sizes_are_accepted():
    check_basis_size(np.int64(64), np.int32(16))
    cs = CoefficientSet(p=COS2)
    want = verify(FormulaId.GLF, cs, n=64, k=16)
    assert verify(FormulaId.GLF, cs, n=np.int64(64), k=np.int16(16)).gap == want.gap
    assert sweep(TEMPLATE_Q, np.int64(4), n=64, k=16).taus.size == 4


# The coefficients each formula's spectra read, stated independently of ROLES.
READS = {
    FormulaId.GLF: "p",
    FormulaId.S01: "p",
    FormulaId.TRF3: "pq",
    FormulaId.TRS: "pq",
    FormulaId.TRQ0: "pq",
    FormulaId.TR3: "pqQ",
    FormulaId.COR1: "pQ",
    FormulaId.IPR1: "pq",
    FormulaId.IP2: "pQ",
    FormulaId.IPQ: "pQ",
}


@pytest.mark.parametrize(
    "formula, name",
    [(f, name) for f, read in READS.items() for name in ("p", "q", "Q") if name not in read],
)
def test_unread_coefficient_rejected(formula, name):
    with pytest.raises(PreconditionError, match=f"reads no {name}"):
        check_preconditions(formula, CoefficientSet(**{name: SIN2}))


def test_verify_rejects_unread_coefficient():
    with pytest.raises(PreconditionError, match="reads no q"):
        verify(FormulaId.GLF, CoefficientSet(p=COS2, q=SIN2), n=64, k=16)


@pytest.mark.parametrize(
    "formula, cs, mode",
    [
        (FormulaId.GLF, CoefficientSet(p=COS2), "fourier"),
        (FormulaId.S01, CoefficientSet(p=COS2), "fourier"),
        (FormulaId.TRF3, CoefficientSet(p=COS2, q=SIN2), "fourier"),
        (FormulaId.TRS, CoefficientSet(p=Coefficient.constant(1.0), q=COS2), "fourier"),
        (FormulaId.TRQ0, CoefficientSet(p=COS2), "richardson"),
        (FormulaId.TR3, CoefficientSet(p=COS2, Q=COS2), "fourier"),
        (FormulaId.COR1, CoefficientSet(p=COS2, Q=COS2), "fourier"),
    ],
    ids=["GLF", "S01", "TRF3", "TRS", "TRQ0", "TR3", "COR1"],
)
def test_shifted_verify_within_tolerance(formula, cs, mode):
    # the shifted spectra are compared with the right side of the shifted
    # coefficients; here the unshifted right side is off by 0.65 to 12.9
    rep = verify(formula, cs, n=256, k=64, mode=mode, tau=0.3)
    assert abs(rep.gap) <= DEFAULT_TOLERANCES[formula]


def test_cross_formula_consistency_through_squared_operator():
    # verify(TRF3) - verify(S01) must match the function-perturbation sum
    # sum(mu_n + P - alpha_n^2) for the same p, q = 0
    cs = CoefficientSet(p=COS2)
    n, k = 256, 64
    rep3 = verify(FormulaId.TRF3, cs, n=n, k=k)
    rep0 = verify(FormulaId.S01, cs, n=n, k=k)
    mu = spectra_for(FormulaId.TRF3, cs, n)["mu"]
    alpha = spectra_for(FormulaId.S01, cs, n)["alpha"]
    Q = ZERO - COS2.derivative(2) - COS2 * COS2
    P = 0.5
    terms = mu.vals[:k] + P - alpha.vals[:k] ** 2
    parts = np.cumsum(terms)
    bridge_cs = CoefficientSet(p=COS2, Q=Q)
    acc = tail_accelerate(FormulaId.COR1, parts, bridge_cs, k, "fourier")
    assert rep3.accelerated - rep0.accelerated == pytest.approx(acc, abs=2.1e-2)
    # and the bridge sum itself matches its closed form -(Q(0)+Q(1)+2P)/4
    # within the combined unmodeled-tail budget of the three sums
    fQ = Q.functionals()
    assert acc == pytest.approx(-(fQ.end0 + fQ.end1 + 2 * P) / 4.0, abs=2.1e-2)


def test_trace_report_serialization_round_trip(tmp_path):
    rep = verify(FormulaId.GLF, CoefficientSet(p=COS1), n=64, k=16)
    path = tmp_path / "rep.json"
    _write_report(argparse.Namespace(out=str(path)), rep)
    d = json.loads(path.read_text())
    assert d["formula"] == "GLF"
    assert d["partial"] == list(rep.partial)
    assert d["accelerated"] == rep.accelerated and d["gap"] == rep.gap
    p = tmp_path / "cos1.json"
    p.write_text(json.dumps(COS1.to_dict()))
    out = tmp_path / "rep.csv"
    assert main(["trace", "--formula", "GLF", "--p", str(p), "-N", "64", "-K", "16",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert rows[0][0] == "1" and rows[-1][0] == "16"
    assert float(rows[3][1]) == rep.partial[3]
    assert float(rows[3][2]) == rep.accelerated


# -- eigenvalue expansion residuals ----------------------------------------------------


def test_asym_residuals_vanish_for_constant_p():
    rep = asym_residuals(OperatorSpec(KIND_FOURTH_ORDER, p=Coefficient.constant(2.0)), n=64, k=16)
    assert np.max(np.abs(rep.residuals)) < 1e-7


def test_asym_residuals_cos_2pi_bounded():
    rep = asym_residuals(OperatorSpec(KIND_FOURTH_ORDER, p=COS2), n=256, k=64)
    assert np.isfinite(rep.fitted_c)
    assert abs(rep.fitted_c) < 2.0
    ns = np.arange(8, 65)
    assert np.max(ns**2 * np.abs(rep.residuals[7:])) < 2.0


def test_asym_residuals_pure_q_bounded():
    rep = asym_residuals(OperatorSpec(KIND_FOURTH_ORDER, q=SIN2), n=256, k=64)
    assert np.isfinite(rep.fitted_c)
    assert abs(rep.fitted_c) < 1.0


def test_asym_rejects_k_below_fit_start():
    spec = OperatorSpec(KIND_FOURTH_ORDER, p=COS2)
    with pytest.raises(PreconditionError, match="fit start 8"):
        asym_residuals(spec, n=64, k=4)


@given(coefficients(max_degree=4), coefficients(max_degree=4), coefficients(max_degree=4))
def test_asym_residuals_match_explicit_counterterm(p, q, Q):
    # r_m = mu_m - [((pi m)^2-p0)^2 - (P+p0^2)/2 + q0 - Vhat_cm] with q + Q for q,
    # written out term by term
    n, k = 32, 16
    rep = asym_residuals(OperatorSpec(KIND_FOURTH_ORDER, p=p, q=q, Q=Q), n=n, k=k)
    mu = spectrum(OperatorSpec(KIND_FOURTH_ORDER, p=p, q=q, Q=Q), n).vals[:k]
    q_eff = q + Q
    p0, P, q0 = p.functionals().mean, big_P(p), q_eff.functionals().mean
    vhat = build_V(p, q_eff).cosine_coeffs(2 * k)[2::2][:k]
    z2 = (PI * np.arange(1, k + 1, dtype=float)) ** 2
    expected = mu - z2 * z2 + 2.0 * p0 * z2 - p0 * p0 + 0.5 * (P + p0 * p0) - q0 + vhat
    assert np.array_equal(rep.residuals, expected)


def test_asym_rejects_second_order_spec():
    from sinespec import KIND_SECOND_ORDER

    with pytest.raises(PreconditionError):
        asym_residuals(OperatorSpec(KIND_SECOND_ORDER, p=COS2), n=64, k=16)


def test_trf3_summand_plus_vhat_decays_quadratically():
    cs = CoefficientSet(p=COS2)
    sp = spectra_for(FormulaId.TRF3, cs, 256)
    k = 64
    terms = np.array([summand(FormulaId.TRF3, n, sp, cs) for n in range(1, k + 1)])
    vhat = np.zeros(k)
    vhat[0] = PI**2  # c_2 of V = 2 pi^2 cos(2 pi x)
    ns = np.arange(1, k + 1)
    assert np.max((ns**2 * np.abs(terms + vhat))[7:]) < 2.0


# -- localization -----------------------------------------------------------------------


def test_localization_zero_operator():
    rep = localization(spectrum(OperatorSpec(KIND_FOURTH_ORDER), 64))
    assert rep.n0 == 0
    assert rep.violations == ()


def test_localization_constant_p():
    rep = localization(spectrum(OperatorSpec(KIND_FOURTH_ORDER, p=Coefficient.constant(1.0)), 64))
    assert rep.n0 == 0
    assert rep.violations == ()


def test_localization_cos_2pi():
    rep = localization(spectrum(OperatorSpec(KIND_FOURTH_ORDER, p=COS2), 128))
    assert rep.violations == ()
    assert rep.n0 <= 2


def test_localization_rejects_second_order():
    from sinespec import KIND_SECOND_ORDER

    with pytest.raises(PreconditionError):
        localization(spectrum(OperatorSpec(KIND_SECOND_ORDER, p=COS2), 32))


# -- disputes ------------------------------------------------------------------------------


def test_dikii_variant_disagreement_magnitude():
    rep = dispute(DisputeVariant.DIKII_TRFD1, COS2, n=256, k=64)
    assert rep.disagreement == pytest.approx(2 * PI**2, abs=1e-12)
    assert rep.verdict == "reference"
    # computed sum misses the disputed side by the full 2 pi^2
    assert abs(rep.computed_lhs - rep.variant_rhs) == pytest.approx(2 * PI**2, abs=0.1)


def test_dikii_consistent_variant_matches():
    rep = dispute(DisputeVariant.DIKII_D2, COS2, n=256, k=64)
    assert rep.verdict == "indistinguishable"
    assert abs(rep.computed_lhs - rep.variant_rhs) < 1e-2


def test_dikii_degenerate_endpoint_curvature():
    # p = cos(pi x): p''(0) + p''(1) = 0, the two variants coincide
    rep = dispute(DisputeVariant.DIKII_TRFD1, COS1, n=128, k=48)
    assert rep.disagreement == pytest.approx(0.0, abs=1e-12)
    assert rep.verdict == "indistinguishable"


@pytest.mark.parametrize("variant", [DisputeVariant.DIKII_TRFD1, DisputeVariant.DIKII_D2])
def test_dikii_reference_side_is_the_s01_right_side(variant):
    # the reference side is the closed-form S01 right side, bit for bit
    p = COS2 + Coefficient.harmonic_cos(4, -0.5)
    rep = dispute(variant, p, n=64, k=16)
    assert rep.reference_rhs == rhs(FormulaId.S01, CoefficientSet(p=p))


def test_dikii_rejects_sine_component():
    with pytest.raises(PreconditionError):
        dispute(DisputeVariant.DIKII_D2, SIN2, n=64, k=16)


def test_dikii_rejects_q():
    with pytest.raises(PreconditionError, match="read no q"):
        dispute(DisputeVariant.DIKII_TRFD1, COS2, q=SIN2, n=64, k=16)


@pytest.mark.parametrize("k", [4, 7, 8])
def test_sadovnichii_rejects_k_without_two_fit_points(k):
    # the third term is fitted to const + b/m^2 over m in [8, K]
    q = COS2.derivative(2) + COS2 * COS2
    with pytest.raises(PreconditionError, match="fewer than two points"):
        dispute(DisputeVariant.SADOVNICHII_TRS, COS2, q=q, n=64, k=k)


def test_sadovnichii_third_term():
    q = COS2.derivative(2) + COS2 * COS2
    rep = dispute(DisputeVariant.SADOVNICHII_TRS, COS2, q=q, n=256, k=64)
    assert rep.reference_rhs == pytest.approx(0.25, rel=1e-12)
    assert rep.variant_rhs == pytest.approx(0.5, rel=1e-12)
    assert rep.verdict == "reference"
    assert rep.computed_lhs == pytest.approx(0.25, abs=1e-2)
    # discrimination at >= 10x tolerance
    assert abs(rep.computed_lhs - rep.variant_rhs) >= 10 * abs(rep.computed_lhs - rep.reference_rhs)


def test_sadovnichii_requires_perfect_square():
    with pytest.raises(PreconditionError):
        dispute(DisputeVariant.SADOVNICHII_TRS, COS2, q=SIN2, n=64, k=16)
    with pytest.raises(PreconditionError):
        dispute(DisputeVariant.SADOVNICHII_TRS, COS2, q=None, n=64, k=16)


# -- every fourth-order identity is TRF3 of an effective q ----------------------------


def _zero_mean(f):
    return f - Coefficient.constant(f.functionals().mean)


def test_every_hypothesis_and_role_is_read_by_a_formula():
    # a row of either table that no identity names is dead code
    assert {h for entry in FORMULAS.values() for _, h in entry.hypotheses} == set(_HYPOTHESES)
    assert {role for entry in FORMULAS.values() for role in entry.roles} == set(ROLES)


@pytest.mark.parametrize("formula, name", [(FormulaId.TRF3, "q"), (FormulaId.TRS, "q"),
                                           (FormulaId.IPR1, "q"), (FormulaId.IP2, "Q")],
                         ids=["TRF3", "TRS", "IPR1", "IP2"])
@given(data=st.data(), c=amplitudes, tau=st.floats(0.0, 1.0, exclude_max=True))
def test_a_constant_added_to_q_or_Q_verifies_the_centred_identity(formula, name, data, c, tau):
    # a constant shifts every eigenvalue by itself and the q0 counterterm
    # takes it off again, so q + c (Q + c) reads as the zero-mean q (Q)
    shifted = formula in (FormulaId.IPR1, FormulaId.IP2)
    p = data.draw(coefficients(max_degree=4, periodic=shifted))
    if formula == FormulaId.TRS:
        p = Coefficient.constant(p.functionals().mean)
    g = data.draw(coefficients(max_degree=4, periodic=shifted).map(_zero_mean))
    tau = tau if shifted else 0.0
    for mode in ("fourier", "richardson", "none"):
        try:
            base = verify(formula, CoefficientSet(p=p, **{name: g}), n=64, k=16, mode=mode, tau=tau)
        except PreconditionError as exc:
            assume("trust horizon" not in str(exc))
            raise
        moved = verify(formula, CoefficientSet(p=p, **{name: g + Coefficient.constant(c)}),
                       n=64, k=16, mode=mode, tau=tau)
        assert abs(moved.rhs - base.rhs) <= 1e-12
        assert abs(moved.gap - base.gap) <= 1e-2 * DEFAULT_TOLERANCES[formula]


def _fourier_gap_ratio(formula, cs, tau=0.0):
    # An input whose spectra the library refuses to sum (trust horizon
    # below K) has no gap to check, and is not what these tests are about.
    # The one such input seen, on COR1, came from the rounding of the
    # padded h^2+Q construction, which the factored solve of H(p, p''+p^2+Q)
    # removed; the horizon is still the N -> 2N change (ROADMAP item 3).
    try:
        rep = verify(formula, cs, n=256, k=64, mode="fourier", tau=tau)
    except PreconditionError as exc:
        assume("trust horizon" not in str(exc))
        raise
    return abs(rep.gap) / DEFAULT_TOLERANCES[formula]


@given(coefficients())
@settings(max_examples=10)
def test_alpha_squared_is_the_spectrum_of_H_at_p2_plus_p_squared(p):
    # h^2 = H(p, p'' + p^2) on the same domain; measured worst 8.5e-10 of
    # |alpha_n|^2 at amplitude 2, degree 6.  The scale (pi n)^4 keeps the
    # bound meaningful where alpha_n passes near zero.
    n = np.arange(1, 17)
    alpha = spectrum(OperatorSpec(KIND_SECOND_ORDER, p=p), 256).vals[:16]
    mu = spectrum(OperatorSpec(KIND_FOURTH_ORDER, p=p, q=p.derivative(2) + p * p), 256).vals[:16]
    scale = np.maximum(alpha**2, (PI * n) ** 4)
    assert np.all(np.abs(mu - alpha**2) <= 1e-8 * scale)


@given(coefficients(max_degree=4))
def test_s01_fourier_gap_within_tolerance(p):
    # The fourier tail carries C through its third-order part, where the
    # series ends, so the whole amplitude range passes; the second-order
    # part alone missed by up to 1.3 tolerances at amplitude 2, degree 3.
    assert _fourier_gap_ratio(FormulaId.S01, CoefficientSet(p=p)) <= 1.0


@given(coefficients(), coefficients().map(_zero_mean), coefficients())
def test_tr3_fourier_gap_within_tolerance(p, q, Q):
    assert _fourier_gap_ratio(FormulaId.TR3, CoefficientSet(p=p, q=q, Q=Q)) <= 1.0


@given(coefficients(), coefficients())
@settings(max_examples=8)
def test_cor1_fourier_gap_within_tolerance(p, Q):
    assert _fourier_gap_ratio(FormulaId.COR1, CoefficientSet(p=p, Q=Q)) <= 1.0


@given(
    coefficients(periodic=True),
    coefficients(periodic=True).map(_zero_mean),
    st.floats(0.0, 1.0, exclude_max=True),
)
@settings(max_examples=8)
def test_ip2_fourier_gap_within_tolerance(p, Q, tau):
    assert _fourier_gap_ratio(FormulaId.IP2, CoefficientSet(p=p, Q=Q), tau) <= 1.0


@given(
    coefficients(periodic=True),
    coefficients(periodic=True).map(_zero_mean),
    st.floats(0.0, 1.0, exclude_max=True),
)
@settings(max_examples=8)
def test_ipq_fourier_gap_within_tolerance(p, Q, tau):
    assert _fourier_gap_ratio(FormulaId.IPQ, CoefficientSet(p=p, Q=Q), tau) <= 1.0


@given(coefficients(max_degree=4).map(lambda f: Coefficient(u=(0.0,) + f.u[1:])))
def test_dikii_trfd1_never_neither_on_cosine_p(p):
    # the S01 fourier sum on zero-mean cosine p, amplitudes up to 2
    assert dispute(DisputeVariant.DIKII_TRFD1, p).verdict in ("reference", "indistinguishable")


def _close(got, *terms):
    # equal up to rounding in the largest of the closed form's terms
    return abs(got - sum(terms)) <= 1e-12 * (1.0 + sum(abs(t) for t in terms))


@given(coefficients(), coefficients().map(_zero_mean), coefficients())
@settings(max_examples=20)
def test_right_sides_match_their_closed_forms(p, q, Q):
    # the table states each right side as TRF3's of an effective q; these
    # are the closed forms of the formula ids table, written out
    fp, fq, fQ = p.functionals(), q.functionals(), Q.functionals()
    p0, P = fp.mean, big_P(p)
    ends_Q = -(fQ.end0 + fQ.end1) / 4.0
    assert _close(
        rhs(FormulaId.S01, CoefficientSet(p=p)),
        (P + p0 * p0) / 4.0, -(fp.end0**2 + fp.end1**2) / 4.0, -(fp.d2_0 + fp.d2_1) / 8.0,
    )
    assert _close(
        rhs(FormulaId.TRQ0, CoefficientSet(p=p)), -(P - p0 * p0) / 4.0, (fp.d2_0 + fp.d2_1) / 8.0
    )
    c = Coefficient.constant(p0)
    assert _close(rhs(FormulaId.TRS, CoefficientSet(p=c, q=q)), -(fq.end0 + fq.end1) / 4.0)
    assert _close(rhs(FormulaId.TR3, CoefficientSet(p=p, q=q, Q=Q)), ends_Q, fQ.mean / 2.0)
    assert _close(rhs(FormulaId.COR1, CoefficientSet(p=p, Q=Q)), ends_Q, fQ.mean / 2.0)


@given(
    coefficients(periodic=True),
    coefficients(periodic=True).map(_zero_mean),
    st.floats(0.0, 1.0, exclude_max=True),
)
@settings(max_examples=20)
def test_shifted_right_sides_match_their_closed_forms(p, q, tau):
    # IPR1: -(P - p0^2 + 2 V(tau))/4; IP2 (q in the role of Q): -Q(tau)/2
    p0, P = p.functionals().mean, big_P(p)
    v_tau = build_V(p, q).evaluate(tau)
    assert _close(rhs(FormulaId.IPR1, CoefficientSet(p=p, q=q).shifted(tau)), -(P - p0 * p0) / 4.0, -v_tau / 2.0)
    assert _close(rhs(FormulaId.IP2, CoefficientSet(p=p, Q=q).shifted(tau)), -q.evaluate(tau) / 2.0)
    # IPQ (q in the role of Q): IPR1's form with V = p''/2 + p^2 + Q less its mean
    v_tau = p.derivative(2).evaluate(tau) / 2.0 + p.evaluate(tau) ** 2 - (p * p).functionals().mean
    assert _close(rhs(FormulaId.IPQ, CoefficientSet(p=p, Q=q).shifted(tau)),
                  -(P - p0 * p0) / 4.0, -v_tau / 2.0, -q.evaluate(tau) / 2.0)


def test_asym_reports_the_signed_derived_constant(tmp_path):
    rep = asym_residuals(OperatorSpec(KIND_FOURTH_ORDER, p=COS2), n=256, k=64)
    assert rep.derived_c == _tail_constant(COS2, build_V(COS2, ZERO))
    assert rep.derived_c == pytest.approx(-0.75, abs=1e-12)
    assert abs(rep.derived_c - _second_order_constant(COS2, ZERO)) <= 1e-6
    assert rep.fitted_c == pytest.approx(-0.745, abs=5e-3)
    path = tmp_path / "asym.json"
    _write_report(argparse.Namespace(out=str(path)), rep)
    assert json.loads(path.read_text())["derived_c"] == rep.derived_c


@pytest.mark.parametrize("q", [ZERO, COS2.scale(-60.0)], ids=["q=0", "q=-60cos2pix"])
def test_asym_fitted_constant_has_the_sign_of_the_derived_one(q):
    # C is -0.75 at q = 0 and +0.77 at q = -60 cos 2 pi x: the fit follows
    # it through zero, where a mean of m^2 |r_m| would not
    rep = asym_residuals(OperatorSpec(KIND_FOURTH_ORDER, p=COS2, q=q), n=256, k=64)
    assert np.sign(rep.fitted_c) == np.sign(rep.derived_c)
    assert rep.fitted_c == pytest.approx(rep.derived_c, rel=0.02)


def test_asym_derived_constant_reads_the_shifted_q_plus_Q():
    cs = CoefficientSet(p=COS2, q=SIN2, Q=COS2.scale(0.5)).shifted(0.3)
    p, q, Q = cs.p, cs.q, cs.Q
    spec = OperatorSpec(KIND_FOURTH_ORDER, p=p, q=q, Q=Q)
    rep = asym_residuals(spec, n=64, k=16)
    assert rep.derived_c == _tail_constant(p, build_V(p, q + Q))
    # a single harmonic p has no third-order part
    assert abs(rep.derived_c - _second_order_constant(p, q + Q)) <= 1e-6


def _seeded(rng, degree, amp):
    return Coefficient(u=tuple(rng.uniform(-amp, amp, degree + 1)),
                       w=tuple(rng.uniform(-amp, amp, degree)))


def test_tail_constant_is_the_second_order_sum_plus_the_cubic_part():
    # The oracle sums the second-order perturbation series over the Galerkin
    # entries and extrapolates; the closed form adds the third-order part
    # int p~^3 / (4 pi^2).  Sine terms keep the two apart from the
    # cosine-only formula; the bound is the oracle's extrapolation error.
    rng = np.random.default_rng(11)
    for degree in range(1, 7):
        for amp in (1.0, 2.0):
            for _ in range(6):
                p, q = _seeded(rng, degree, amp), _seeded(rng, degree, amp)
                pt = p - Coefficient.constant(p.functionals().mean)
                c = _tail_constant(p, build_V(p, q))
                second = c - (pt * pt * pt).functionals().mean / (4 * PI**2)
                assert abs(second - _second_order_constant(p, q)) <= 1e-6 * max(1.0, abs(c))


def _third_order_family():
    # every amplitude +-2, degree 4-6, cosines and sines: int p~^3 is large
    rng = np.random.default_rng(2024)
    for _ in range(30):
        d = int(rng.integers(4, 7))
        u = (0.0, *(2.0 * rng.choice((-1.0, 1.0), d)))
        w = tuple(2.0 * rng.choice((-1.0, 1.0), d))
        yield Coefficient(u=u, w=w)


@pytest.mark.parametrize("formula", [FormulaId.S01, FormulaId.TRF3], ids=["S01", "TRF3"])
def test_fourier_tail_carries_the_third_order_part_of_C(formula):
    # With the second-order part of C alone, 7 of these 30 missed on each
    # formula (worst |gap|/tol 4.40 on S01, 4.21 on TRF3); with the cubic
    # part the worst are 0.107 and 0.457.
    for p in _third_order_family():
        rep = verify(formula, CoefficientSet(p=p), n=256, k=64, mode="fourier")
        assert abs(rep.gap) <= DEFAULT_TOLERANCES[formula], p


# -- circle shift ------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["p", "q", "Q"])
def test_shifted_rejects_non_periodic_coefficient_by_name(name):
    with pytest.raises(PreconditionError, match=f"requires 1-periodic {name} "):
        CoefficientSet(**{name: COS1}).shifted(0.5)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
def test_shift_refuses_a_non_finite_tau(tau):
    for cs in (CoefficientSet(), CoefficientSet(p=COS2, q=SIN2)):
        with pytest.raises(PreconditionError, match="must be finite"):
            cs.shifted(tau)
    with pytest.raises(PreconditionError, match="must be finite"):
        verify(FormulaId.IPR1, CoefficientSet(p=COS2, q=SIN2), n=64, k=16, tau=tau)


@pytest.mark.parametrize("mode", ["fourier", "richardson"])
@pytest.mark.parametrize("formula, name", [(FormulaId.IPR1, "q"), (FormulaId.IP2, "Q")],
                         ids=["IPR1", "IP2"])
@given(coefficients(max_degree=4, periodic=True),
       coefficients(max_degree=4, periodic=True).map(_zero_mean),
       st.floats(0.0, 1.0, exclude_max=True))
@settings(max_examples=10)
def test_verify_at_tau_is_verify_of_the_shifted_set_bit_for_bit(formula, name, mode, p, g, tau):
    cs = CoefficientSet(p=p, **{name: g})
    try:
        at_tau = verify(formula, cs, n=64, k=16, mode=mode, tau=tau)
    except PreconditionError as exc:
        assume("trust horizon" not in str(exc))
        raise
    shifted = verify(formula, cs.shifted(tau), n=64, k=16, mode=mode)
    assert [x.hex() for x in (at_tau.gap, at_tau.accelerated, at_tau.rhs)] == [
        x.hex() for x in (shifted.gap, shifted.accelerated, shifted.rhs)]
