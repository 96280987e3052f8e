import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given

from conftest import coefficients, shifted_spec
from reference_paths import hand_recover_Q, hand_recover_V, hand_recover_q, lstsq_fit_trig
from sinespec import eigensolve, traces
from sinespec import (
    Coefficient,
    KIND_FOURTH_ORDER,
    KIND_SECOND_ORDER,
    KIND_SQUARE_PLUS_Q,
    OperatorSpec,
    CoefficientSet,
    FormulaId,
    PreconditionError,
    ZERO,
    fit_trig,
    recover_Q,
    recover_V,
    recover_q,
    spectrum,
    sweep,
    verify,
)

PI = math.pi
COS2 = Coefficient.harmonic_cos(2)
SIN2 = Coefficient.harmonic_sin(2)


def test_sweep_constant_coefficients_shift_invariant():
    res = sweep(OperatorSpec(KIND_FOURTH_ORDER), 4, n=16, k=8)
    base = res.spectra[0]["mu"].vals
    for specs in res.spectra[1:]:
        assert np.array_equal(specs["mu"].vals, base)


def test_sweep_half_shift_equals_negated_sine_q():
    spec_shift = spectrum(shifted_spec(KIND_FOURTH_ORDER, 0.5, q=SIN2), 32)
    spec_neg = spectrum(OperatorSpec(KIND_FOURTH_ORDER, q=SIN2.scale(-1.0)), 32)
    assert np.max(np.abs(spec_shift.vals[:16] - spec_neg.vals[:16])) < 1e-6


def test_half_shift_of_even_cos_p_changes_the_spectrum():
    # p(x + 1/2) = -p(x) for p = cos(2 pi x); the sign flip moves the lowest
    # eigenvalue by about 2 pi^2 (regression values from refined runs)
    s0 = spectrum(OperatorSpec(KIND_FOURTH_ORDER, p=COS2), 128)
    s5 = spectrum(shifted_spec(KIND_FOURTH_ORDER, 0.5, p=COS2), 128)
    assert s0.val(1) == pytest.approx(87.42712536, abs=1e-4)
    assert s5.val(1) == pytest.approx(107.16604917, abs=1e-4)
    assert s5.val(1) - s0.val(1) == pytest.approx(19.7389238, abs=1e-3)
    assert s0.val(2) == pytest.approx(s5.val(2), abs=1e-6)


def test_sweep_rejects_small_grid_and_bad_inputs():
    with pytest.raises(PreconditionError):
        sweep(OperatorSpec(KIND_FOURTH_ORDER), 3, n=16, k=8)
    with pytest.raises(PreconditionError):
        sweep(OperatorSpec(KIND_FOURTH_ORDER, p=Coefficient.harmonic_cos(1)), 4, n=16, k=8)
    with pytest.raises(PreconditionError):
        sweep(OperatorSpec(KIND_FOURTH_ORDER, q=Coefficient.harmonic_cos(8)), 4, n=16, k=8)


def test_sweep_refuses_a_non_periodic_coefficient_by_name_before_any_solve(monkeypatch):
    # IPQ places no hypothesis on p, so the shift itself refuses it
    calls = []
    real = eigensolve.assemble_spec
    monkeypatch.setattr(eigensolve, "assemble_spec",
                        lambda spec, n, rows=None: calls.append(n) or real(spec, n, rows))
    spectrum.cache_clear()
    template = OperatorSpec(KIND_SQUARE_PLUS_Q, p=Coefficient.harmonic_cos(1), Q=SIN2)
    with pytest.raises(PreconditionError, match="requires 1-periodic p "):
        sweep(template, 4, n=16, k=8)
    assert calls == []


def test_q_sweep_rejects_Q():
    # the IPR1 sums read the spectra of H, not of H + Q
    with pytest.raises(PreconditionError, match="reads no Q"):
        sweep(OperatorSpec(KIND_FOURTH_ORDER, p=COS2, q=SIN2, Q=SIN2), 4, n=16, k=8)


def test_recover_v_zero_operator():
    res = sweep(OperatorSpec(KIND_FOURTH_ORDER), 4, n=32, k=12)
    rec = recover_V(res)
    assert np.max(np.abs(rec[:, 1])) < 1e-7


def test_recover_v_pure_sine_q():
    res = sweep(OperatorSpec(KIND_FOURTH_ORDER, q=SIN2), 8, n=128, k=48)
    rec = recover_V(res)
    expected = np.sin(2 * PI * res.taus)
    assert np.max(np.abs(rec[:, 1] - expected)) < 2e-2
    at_quarter = rec[res.taus == 0.25, 1]
    assert at_quarter[0] == pytest.approx(1.0, abs=2e-2)


def test_recover_v_pure_cos_p():
    res = sweep(OperatorSpec(KIND_FOURTH_ORDER, p=COS2), 8, n=128, k=48)
    rec = recover_V(res)
    expected = 2 * PI**2 * np.cos(2 * PI * res.taus)
    assert np.max(np.abs(rec[:, 1] - expected)) < 2e-2


def test_recover_q_equals_recover_v_when_p_zero():
    res = sweep(OperatorSpec(KIND_FOURTH_ORDER, q=SIN2), 8, n=64, k=24)
    v = recover_V(res).copy()
    q = recover_q(res)
    assert np.allclose(v, q, atol=0)


def test_recover_q_round_trip():
    res = sweep(OperatorSpec(KIND_FOURTH_ORDER, p=COS2, q=SIN2), 8, n=128, k=48)
    rec = recover_q(res)
    expected = np.sin(2 * PI * res.taus)
    assert np.max(np.abs(rec[:, 1] - expected)) < 2e-2


def test_recover_q_zero_q_with_nonzero_p():
    res = sweep(OperatorSpec(KIND_FOURTH_ORDER, p=COS2), 8, n=128, k=48)
    rec = recover_q(res)
    assert np.max(np.abs(rec[:, 1])) < 2e-2


def test_recover_Q_round_trip():
    res = sweep(OperatorSpec(KIND_SQUARE_PLUS_Q, p=COS2, Q=SIN2), 8, n=96, k=40)
    rec = recover_Q(res)
    expected = np.sin(2 * PI * res.taus)
    assert np.max(np.abs(rec[:, 1] - expected)) < 2e-2


def test_recover_p_second_order():
    res = sweep(OperatorSpec(KIND_SECOND_ORDER, p=COS2), 8, n=128, k=48)
    rec = recover_Q(res)
    expected = np.cos(2 * PI * res.taus)
    assert np.max(np.abs(rec[:, 1] - expected)) < 1e-2


ONE = Coefficient.constant(1.0)


@pytest.mark.parametrize(
    "recover, template, n, k, truth, bound",
    [(recover_q, OperatorSpec(KIND_FOURTH_ORDER, p=COS2, q=SIN2 + ONE), 128, 48, SIN2, 2e-2),
     (recover_V, OperatorSpec(KIND_FOURTH_ORDER, p=COS2, q=SIN2 + ONE), 128, 48,
      SIN2 + COS2.scale(2 * PI**2), 2e-2),
     (recover_Q, OperatorSpec(KIND_SQUARE_PLUS_Q, p=COS2, Q=SIN2 + ONE), 96, 40, SIN2, 2e-2),
     (recover_Q, OperatorSpec(KIND_SECOND_ORDER, p=COS2 + ONE), 128, 48, COS2, 1e-2)],
    ids=["q", "V", "Q", "p_second_order"],
)
def test_recovery_reads_a_target_of_any_mean_less_its_mean(recover, template, n, k, truth,
                                                            bound):
    # the sizes and bounds of the zero-mean round trips above
    sr = sweep(template, 8, n=n, k=k)
    assert np.max(np.abs(recover(sr)[:, 1] - truth.evaluate(sr.taus))) < bound
    assert abs(sr.recovered_wrap - truth.evaluate(1.0)) < bound


@pytest.mark.parametrize(
    "template, name",
    [(OperatorSpec(KIND_FOURTH_ORDER, q=Coefficient.harmonic_cos(8)), "q"),
     (OperatorSpec(KIND_FOURTH_ORDER, p=Coefficient.harmonic_sin(8)), "p"),
     (OperatorSpec(KIND_SQUARE_PLUS_Q, Q=Coefficient.harmonic_cos(8)), "Q"),
     (OperatorSpec(KIND_SECOND_ORDER, p=Coefficient.harmonic_cos(10)), "p")],
    ids=["q-of-q", "p-of-q", "Q", "p_second_order"],
)
def test_sweep_refuses_a_target_whose_tau_degree_reaches_the_grid_before_any_solve(
        monkeypatch, template, name):
    # cos(8 pi x) has tau-frequency 4: its mean over a 4-point grid is 1, not 0
    calls = []
    real = eigensolve.assemble_spec
    monkeypatch.setattr(eigensolve, "assemble_spec",
                        lambda spec, n, rows=None: calls.append(n) or real(spec, n, rows))
    spectrum.cache_clear()
    with pytest.raises(PreconditionError,
                       match=f"on a 4-point grid requires {name} of degree below 8"):
        sweep(template, 4, n=32, k=8)
    assert calls == []


def _seeded_template(t):
    """p periodic with a random constant, the target periodic with zero mean;
    tau-harmonics 1..d, d = 1 + t % 3, amplitudes in U(-1, 1)."""
    rng = np.random.default_rng(100 + t)
    d = 1 + t % 3

    def periodic(const):
        u = [const] + [0.0] * (2 * d)
        w = [0.0] * (2 * d)
        for m in range(1, d + 1):
            u[2 * m], w[2 * m - 1] = rng.uniform(-1.0, 1.0, 2)
        return Coefficient(u=tuple(u), w=tuple(w))

    p = periodic(rng.uniform(-1.0, 1.0))
    return p, periodic(0.0)


def _recovery_error(sr, recover, truth):
    got = np.append(recover(sr)[:, 1], sr.recovered_wrap)
    return float(np.max(np.abs(got - truth.evaluate(np.append(sr.taus, 1.0)))))


@pytest.mark.parametrize("t", range(6))
def test_seeded_recovery_accuracy(t):
    # the grid mean takes off every tau-invariant part of the sums' error
    p, f = _seeded_template(t)
    sr = sweep(OperatorSpec(KIND_FOURTH_ORDER, p=p, q=f), 16, n=256, k=64)
    assert _recovery_error(sr, recover_q, f) < 1e-4
    sr = sweep(OperatorSpec(KIND_SECOND_ORDER, p=f), 16, n=256, k=64)
    assert _recovery_error(sr, recover_Q, f) < 1e-8


def _conftest_draw(rng, zero_mean):
    """A periodic coefficient by the rules of ``conftest.coefficients``:
    amplitudes in U(-2, 2), odd harmonics zero; degree 2..4, so that it is
    not constant."""
    deg = int(rng.integers(2, 5))
    u, w = rng.uniform(-2.0, 2.0, deg + 1), rng.uniform(-2.0, 2.0, deg)
    u[1::2], w[0::2] = 0.0, 0.0
    if zero_mean:
        u[0] = 0.0
    return Coefficient(u=tuple(u), w=tuple(w))


@pytest.mark.parametrize("t", range(6))
def test_seeded_Q_recovery_accuracy(t):
    # read from the h^2+Q sums alone, worst 2.9e-5 over these templates,
    # against 1.1e-4 when the h sums were subtracted
    rng = np.random.default_rng(200 + t)
    p, f = _conftest_draw(rng, False), _conftest_draw(rng, True)
    sr = sweep(OperatorSpec(KIND_SQUARE_PLUS_Q, p=p, Q=f), 4)
    assert _recovery_error(sr, recover_Q, f) < 5e-5


def test_Q_sweep_solves_no_second_order_spectrum(monkeypatch):
    kinds = []
    real = traces.spectrum
    monkeypatch.setattr(traces, "spectrum",
                        lambda spec, n: kinds.append(spec.kind) or real(spec, n))
    sr = sweep(OperatorSpec(KIND_SQUARE_PLUS_Q, p=COS2, Q=SIN2), 4, n=64, k=16)
    # one h^2+Q spectrum per grid point and one at the wrap point
    assert kinds == [KIND_SQUARE_PLUS_Q] * 5
    assert [list(specs) for specs in sr.spectra] == [["nu"]] * 4


def test_wrap_gap_small():
    res = sweep(OperatorSpec(KIND_FOURTH_ORDER, q=SIN2), 4, n=64, k=24)
    recover_V(res)
    assert res.wrap_gap() < 1e-4
    # the reference Q sweep at the default sizes: 1.1e-5 from the h^2+Q sums
    # alone, 6.9e-5 when the h sums were subtracted
    res = sweep(OperatorSpec(KIND_SQUARE_PLUS_Q, p=COS2, Q=SIN2), 4)
    recover_Q(res)
    assert res.wrap_gap() < 3e-5


def test_recovered_mean_consistency():
    # recovery takes the grid mean of the sums off, so recovered V has grid mean 0
    res = sweep(OperatorSpec(KIND_FOURTH_ORDER, p=COS2.scale(0.5), q=SIN2), 8, n=128, k=48)
    rec = recover_V(res)
    assert abs(np.mean(rec[:, 1])) < 1e-12


def test_sum_branch_smooth_under_grid_refinement():
    # Cauchy-style check: second differences of the tracked eigenvalue sum
    # stay bounded when the grid is refined
    def second_diff_max(grid):
        res = sweep(OperatorSpec(KIND_FOURTH_ORDER, p=COS2, q=SIN2), grid, n=32, k=12)
        s = res.sum_branch
        d2 = s - np.roll(s, 1) - (np.roll(s, 1) - np.roll(s, 2))
        return float(np.max(np.abs(d2))) * grid**2

    coarse = second_diff_max(8)
    fine = second_diff_max(16)
    assert fine < 4.0 * max(coarse, 1e-6) + 1e-6


@pytest.mark.parametrize(
    "recover, template",
    [(recover_q, OperatorSpec(KIND_SQUARE_PLUS_Q, p=COS2, Q=SIN2)),
     (recover_V, OperatorSpec(KIND_SQUARE_PLUS_Q, p=COS2, Q=SIN2)),
     (recover_q, OperatorSpec(KIND_SECOND_ORDER, p=COS2)),
     (recover_V, OperatorSpec(KIND_SECOND_ORDER, p=COS2)),
     (recover_Q, OperatorSpec(KIND_FOURTH_ORDER, p=COS2, q=SIN2))],
    ids=["q-of-h2Q", "V-of-h2Q", "q-of-h", "V-of-h", "Q-of-H"],
)
def test_recovery_refuses_a_sweep_of_another_kind(recover, template):
    # the sweep's operator kind names its formula, hence what it can recover
    sr = sweep(template, 4, n=32, k=8)
    with pytest.raises(PreconditionError, match="needs a sweep of operator kind"):
        recover(sr)
    assert sr.recovered is None


def test_one_H_sweep_serves_V_and_q():
    # recover_q adds p''(tau)/2 to recover_V's values, at the wrap point too
    sr = sweep(OperatorSpec(KIND_FOURTH_ORDER, p=COS2, q=SIN2), 8, n=64, k=16)
    v, v_wrap = recover_V(sr)[:, 1].copy(), sr.recovered_wrap
    q, q_wrap = recover_q(sr)[:, 1], sr.recovered_wrap
    half_second = COS2.derivative(2).scale(0.5)
    assert np.allclose(q - v, half_second.evaluate(sr.taus), rtol=0.0, atol=1e-12)
    assert q_wrap - v_wrap == pytest.approx(half_second.evaluate(1.0), rel=0.0, abs=1e-12)


def test_fit_trig_reproduces_samples():
    taus = np.arange(16) / 16.0
    values = 0.25 + 2.0 * np.cos(2 * PI * taus) - 0.5 * np.sin(4 * PI * taus)
    fitted = fit_trig(values, 2)
    assert np.allclose(fitted.evaluate(taus), values, atol=1e-12)
    assert fitted.is_one_periodic()


def test_fit_trig_refuses_a_negative_harmonic_count():
    with pytest.raises(ValueError, match="harmonic count -1 must be nonnegative"):
        fit_trig(np.zeros(8), -1)


def test_fit_trig_matches_the_least_squares_fit():
    # on the uniform grid the truncated DFT is the least-squares solution
    rng = np.random.default_rng(20)
    for g in range(4, 34):
        values = rng.uniform(-1.0, 1.0, g)
        taus = np.arange(g) / g
        for m in range((g - 1) // 2 + 1):
            got, want = fit_trig(values, m), lstsq_fit_trig(taus, values, m)
            assert len(got.u) == len(want.u) and len(got.w) == len(want.w)
            assert np.max(np.abs(np.subtract(got.u, want.u)), initial=0.0) <= 1e-14
            assert np.max(np.abs(np.subtract(got.w, want.w)), initial=0.0) <= 1e-14


# -- recovery agrees with the hand-written inversions, less their grid mean ----------


def swept(template):
    try:
        return sweep(template, 4, n=32, k=8)
    except PreconditionError:
        assume(False)  # trust horizon below K at this small N


@given(coefficients(max_degree=4, periodic=True), coefficients(max_degree=4, periodic=True))
def test_recovery_matches_hand_inversions(p, f):
    fourth = OperatorSpec(KIND_FOURTH_ORDER, p=p, q=f)
    cases = [
        (swept(fourth), recover_q, hand_recover_q, False),
        (swept(fourth), recover_V, hand_recover_V, False),
        (swept(OperatorSpec(KIND_SQUARE_PLUS_Q, p=p, Q=f)), recover_Q, hand_recover_Q, True),
        (swept(OperatorSpec(KIND_SECOND_ORDER, p=p)), recover_Q, hand_recover_Q, True),
    ]
    for sr, recover, hand, bitwise in cases:
        want, want_wrap = hand(sr)
        # the same grid mean at the wrap point
        mean = np.mean(want)
        want, want_wrap = want - mean, want_wrap - mean
        got = recover(sr)
        assert np.array_equal(got[:, 0], sr.taus)
        if bitwise:
            assert got[:, 1].tobytes() == want.tobytes()
            assert sr.recovered_wrap == want_wrap
        else:
            assert np.all(np.abs(got[:, 1] - want) <= 1e-13 * (1.0 + np.abs(want)))
            assert abs(sr.recovered_wrap - want_wrap) <= 1e-13 * (1.0 + abs(want_wrap))


@pytest.mark.parametrize(
    "template, formula",
    [
        (OperatorSpec(KIND_FOURTH_ORDER, p=COS2, q=SIN2), FormulaId.IPR1),
        (OperatorSpec(KIND_SQUARE_PLUS_Q, p=COS2, Q=SIN2), FormulaId.IPQ),
    ],
    ids=["template0-q-IPR1", "template1-Q-IPQ"],
)
def test_sweep_accelerated_equals_verify(template, formula):
    sr = sweep(template, 4, n=64, k=16)
    cs = CoefficientSet(p=template.p, q=template.q, Q=template.Q)
    for tau, acc in zip([*sr.taus.tolist(), 1.0], [*sr.accelerated.tolist(), sr.wrap_accelerated]):
        assert acc == verify(formula, cs, n=64, k=16, mode="fourier", tau=tau).accelerated


@pytest.mark.parametrize("n, k, grid", [(64, 16, 4), (256, 64, 16)])
@pytest.mark.parametrize(
    "template, formula, recover",
    [
        (OperatorSpec(KIND_FOURTH_ORDER, p=COS2, q=SIN2), FormulaId.IPR1, recover_q),
        (OperatorSpec(KIND_SQUARE_PLUS_Q, p=COS2, Q=SIN2), FormulaId.IPQ, recover_Q),
        (OperatorSpec(KIND_SECOND_ORDER, p=COS2), FormulaId.GLF, recover_Q),
    ],
    ids=["H", "h2q", "h"],
)
def test_sweep_recovers_what_unaccelerated_sums_recover(template, formula, recover, n, k, grid):
    # the grid mean cancels the tau-invariant fourier tail, so a sweep needs
    # no acceleration mode: the sums of mode none recover the same values
    sr = sweep(template, grid, n=n, k=k)
    cs = CoefficientSet(p=template.p, q=template.q, Q=template.Q)
    plain = [verify(formula, cs, n=n, k=k, mode="none", tau=tau).accelerated
             for tau in [*sr.taus.tolist(), 1.0]]
    bare = dataclasses.replace(sr, accelerated=np.array(plain[:-1]),
                               wrap_accelerated=plain[-1], recovered=None)
    got = np.append(recover(sr)[:, 1], sr.recovered_wrap)
    want = np.append(recover(bare)[:, 1], bare.recovered_wrap)
    assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))
