import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import coefficients, simpson_integral
from sinespec import Coefficient, NumericError, PreconditionError, ZERO, big_P, build_V, coeffs

PI = math.pi


# -- evaluation -------------------------------------------------------------


def test_evaluate_cos_2pi_at_zero():
    f = Coefficient(u=(0, 0, 1), w=(0, 0))
    assert f.evaluate(0.0) == pytest.approx(1.0, abs=1e-15)


def test_evaluate_sin_pi_at_midpoint():
    f = Coefficient(u=(0,), w=(1,))
    assert f.evaluate(0.5) == pytest.approx(1.0, abs=1e-15)


def test_evaluate_cos_pi_at_one():
    f = Coefficient(u=(0, 1), w=())
    assert f.evaluate(1.0) == pytest.approx(-1.0, abs=1e-15)


def test_evaluate_rejects_points_outside_interval():
    with pytest.raises(ValueError):
        ZERO.evaluate(-0.1)
    with pytest.raises(ValueError):
        ZERO.evaluate(1.5)


@pytest.mark.parametrize("amp", [math.nan, math.inf, 10**400, -(10**400)])
def test_amplitudes_must_be_finite_reals(amp):
    # an integer beyond the float range is refused like a non-finite float
    for fields in ({"u": (0.0, amp)}, {"w": (amp,)}):
        with pytest.raises(ValueError, match="finite reals"):
            Coefficient(**fields)


@pytest.mark.parametrize(
    "build",
    [lambda: Coefficient.from_dict({"u": "12"}),
     lambda: Coefficient(w=b"\x01\x02"),
     lambda: Coefficient(u=(True, False, True)),
     lambda: Coefficient.constant("1"),
     lambda: Coefficient.constant(True),
     lambda: Coefficient.harmonic_cos(2, True)],
    ids=["str", "bytes", "bool", "constant-str", "constant-bool", "harmonic-bool-amplitude"],
)
def test_text_and_bool_amplitudes_are_refused(build):
    # as the CLI refuses them in files: not read as digits, bytes or 0/1
    with pytest.raises(ValueError, match="finite reals"):
        build()


@pytest.mark.parametrize(
    "build",
    [lambda: Coefficient.harmonic_cos(2.0),
     lambda: Coefficient.harmonic_sin(2.0),
     lambda: Coefficient.harmonic_sin(True),
     lambda: Coefficient.harmonic_cos(False, 3.0)],
    ids=["cos-float", "sin-float", "sin-bool", "cos-bool"],
)
def test_frequency_index_must_be_an_integer(build):
    with pytest.raises(ValueError, match="frequency index=.* must be an integer"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [(lambda: Coefficient(u=None), "finite reals"),
     (lambda: Coefficient(w=3), "finite reals"),
     (lambda: Coefficient.from_dict({"u": None}), "finite reals"),
     (lambda: Coefficient.from_dict({"u": 5}), "finite reals"),
     (lambda: Coefficient(u=(None,)), "finite reals"),
     (lambda: Coefficient(u=(1 + 2j,)), "finite reals"),
     (lambda: Coefficient(u=([1],)), "finite reals"),
     (lambda: Coefficient.from_dict({"u": [1], "x": [2]}),
      r"^unknown field 'x' \(expected 'u', 'w'\)$")],
    ids=["u-none", "w-number", "dict-u-none", "dict-u-number", "none-entry", "complex-entry",
         "list-entry", "dict-unknown-field"],
)
def test_malformed_amplitude_containers_are_refused(build, message):
    # a ValueError, as every refused amplitude is, not float()'s TypeError
    with pytest.raises(ValueError, match=message):
        build()


def test_an_overflowing_derived_coefficient_is_a_numeric_failure():
    # finite amplitudes whose product, scale, sum or derivative is not
    big = Coefficient(u=(0.0, 0.0, 1e308))
    for derive in (lambda f: f * f, lambda f: f.scale(10.0), lambda f: f + f,
                   lambda f: f.derivative(2), big_P):
        with pytest.raises(NumericError, match="overflows"), np.errstate(over="ignore"):
            derive(big)


# -- derivative --------------------------------------------------------------


def test_derivative_of_cos_pi():
    d = Coefficient.harmonic_cos(1).derivative(1)
    assert d.u == (0.0,)
    assert d.w == (-PI,)


def test_second_derivative_of_cos_2pi():
    d = Coefficient.harmonic_cos(2).derivative(2)
    assert d.w == ()
    assert d.u[2] == pytest.approx(-4 * PI**2, rel=1e-15)


def test_derivative_of_constant_is_zero():
    assert Coefficient.constant(3.0).derivative(1).is_zero()


def test_derivative_rejects_unsupported_order():
    with pytest.raises(ValueError):
        Coefficient.harmonic_cos(1).derivative(3)


# -- product -----------------------------------------------------------------


def test_cos_pi_squared_half_angle():
    f = Coefficient.harmonic_cos(1)
    g = f * f
    assert g.u[0] == pytest.approx(0.5)
    assert g.u[2] == pytest.approx(0.5)
    assert g.u[1] == 0.0 and not any(g.w)


def test_sin_pi_squared_half_angle():
    f = Coefficient.harmonic_sin(1)
    g = f * f
    assert g.u[0] == pytest.approx(0.5)
    assert g.u[2] == pytest.approx(-0.5)


def test_product_with_zero():
    f = Coefficient(u=(1.0, -2.0), w=(0.5,))
    assert (f * ZERO).is_zero()


@given(coefficients(max_degree=5), coefficients(max_degree=5), st.integers(0, 99))
def test_product_matches_pointwise_values(f, g, i):
    x = i / 99.0
    lhs = (f * g).evaluate(x)
    rhs_val = f.evaluate(x) * g.evaluate(x)
    assert lhs == pytest.approx(rhs_val, rel=1e-12, abs=1e-12)


# -- shift -------------------------------------------------------------------


def test_shift_quarter_period_turns_sin_into_cos():
    g = Coefficient.harmonic_sin(2).shift(0.25)
    xs = np.linspace(0, 1, 7)
    assert np.allclose(g.evaluate(xs), Coefficient.harmonic_cos(2).evaluate(xs), atol=1e-14)


def test_shift_by_zero_is_identity():
    f = Coefficient(u=(1.0, 0.0, 2.0), w=(0.0, -1.0))
    assert f.shift(0.0) == f


def test_shift_half_period_negates_cos_2pi():
    g = Coefficient.harmonic_cos(2).shift(0.5)
    xs = np.linspace(0, 1, 7)
    assert np.allclose(g.evaluate(xs), -Coefficient.harmonic_cos(2).evaluate(xs), atol=1e-14)


def test_shift_rejects_non_periodic():
    with pytest.raises(PreconditionError):
        Coefficient.harmonic_cos(1).shift(0.3)


@given(coefficients(max_degree=6, periodic=True), st.floats(0, 1, allow_nan=False))
def test_shift_preserves_l2_norm(f, tau):
    a = f.l2sq()
    b = f.shift(tau).l2sq()
    assert b == pytest.approx(a, rel=1e-10, abs=1e-10)


# -- cosine transform ---------------------------------------------------------


def test_cosine_coeffs_cos_2pi():
    c = Coefficient.harmonic_cos(2).cosine_coeffs(8)
    expected = np.zeros(9)
    expected[2] = 0.5
    assert np.allclose(c, expected, atol=1e-15)


def test_cosine_coeffs_sin_pi():
    c = Coefficient.harmonic_sin(1).cosine_coeffs(4)
    assert c[0] == pytest.approx(2 / PI, rel=1e-14)
    assert c[1] == 0.0
    assert c[2] == pytest.approx(-2 / (3 * PI), rel=1e-14)


def test_cosine_coeffs_constant():
    c = Coefficient.constant(5.0).cosine_coeffs(6)
    assert c[0] == 5.0
    assert not c[1:].any()


def test_cosine_seq_accessors():
    f = Coefficient.harmonic_cos(2) + Coefficient.harmonic_sin(1)
    c = f.cosine_coeffs(10)
    assert c.size == 11
    assert c[0] == pytest.approx(f.functionals().mean, rel=1e-14)
    # full-period cosine coefficient of cos(2 pi x) at n = 1
    assert c[2] == pytest.approx(0.5 + (2 / PI) / (1 - 4), rel=1e-13)


def test_cosine_coeffs_against_quadrature_oracle():
    # composite-Simpson oracle on 1e5 intervals, every k <= 64
    rng = np.random.default_rng(20240817)
    xs = np.linspace(0.0, 1.0, 100_001)
    h = xs[1] - xs[0]
    for _ in range(5):
        deg = int(rng.integers(1, 9))
        f = Coefficient(
            u=tuple(rng.uniform(-2, 2, deg + 1)), w=tuple(rng.uniform(-2, 2, deg))
        )
        vals = f.evaluate(xs)
        c = f.cosine_coeffs(64)
        for k in range(0, 65, 7):
            oracle = simpson_integral(vals * np.cos(PI * k * xs), h)
            assert c[k] == pytest.approx(oracle, abs=1e-9)


def test_parseval_against_quadrature():
    rng = np.random.default_rng(7)
    xs = np.linspace(0.0, 1.0, 100_001)
    h = xs[1] - xs[0]
    for _ in range(3):
        deg = int(rng.integers(1, 7))
        f = Coefficient(
            u=tuple(rng.uniform(-2, 2, deg + 1)), w=tuple(rng.uniform(-2, 2, deg))
        )
        oracle = simpson_integral(f.evaluate(xs) ** 2, h)
        assert f.l2sq() == pytest.approx(oracle, abs=1e-9)


def test_even_cosine_tail_sums_to_endpoint_jump():
    # sum_{n>=1} c_{2n}(f) = (f(0)+f(1))/4 - f0/2, summed to n = 1e5
    for f in (
        Coefficient.harmonic_sin(1),
        Coefficient(u=(0.3, 1.0), w=(0.5, -0.25)),
    ):
        c = f.cosine_coeffs(200_000)
        total = float(c[2::2].sum())
        fn = f.functionals()
        assert total == pytest.approx((fn.end0 + fn.end1) / 4 - fn.mean / 2, abs=1e-4)


# -- functionals ---------------------------------------------------------------


def test_functionals_cos_2pi():
    fn = Coefficient.harmonic_cos(2).functionals()
    assert fn.mean == 0.0
    assert Coefficient.harmonic_cos(2).l2sq() == pytest.approx(0.5, rel=1e-15)
    assert fn.end0 == 1.0 and fn.end1 == 1.0
    assert fn.d2_0 == pytest.approx(-4 * PI**2, rel=1e-14)
    assert fn.d2_1 == pytest.approx(-4 * PI**2, rel=1e-14)
    assert big_P(Coefficient.harmonic_cos(2)) == pytest.approx(0.5, rel=1e-14)


def test_functionals_cos_pi():
    f = Coefficient.harmonic_cos(1)
    fn = f.functionals()
    assert fn.mean == 0.0
    assert f.l2sq() == pytest.approx(0.5, rel=1e-15)
    assert fn.end0 == 1.0 and fn.end1 == -1.0
    assert fn.d1_0 == 0.0 and fn.d1_1 == 0.0
    assert big_P(f) == pytest.approx(0.5, rel=1e-14)


def test_functionals_zero():
    fn = ZERO.functionals()
    assert all(
        getattr(fn, name) == 0.0
        for name in ("mean", "end0", "end1", "d1_0", "d1_1", "d2_0", "d2_1")
    )
    assert ZERO.l2sq() == 0.0


def test_functionals_make_no_product(monkeypatch):
    # int f^2 is computed only where it is read (Coefficient.l2sq)
    def refuse(f, g):
        raise AssertionError("functionals built a product")

    monkeypatch.setattr(coeffs, "_product", refuse)
    fn = Coefficient.functionals.__wrapped__(Coefficient(u=(0.3, 1.0, -2.0), w=(0.5, 0.25)))
    assert fn.end0 == pytest.approx(-0.7, rel=1e-15)


def test_mean_formula_against_amplitudes():
    f = Coefficient(u=(0.7, 0.1), w=(2.0, -1.0, 0.5))
    expected = 0.7 + 2.0 * 2 / (PI * 1) + 0.5 * 2 / (PI * 3)
    assert f.functionals().mean == pytest.approx(expected, rel=1e-14)


# -- build_V -------------------------------------------------------------------


def test_build_v_pure_p():
    v = build_V(Coefficient.harmonic_cos(2), ZERO)
    assert v.u[2] == pytest.approx(2 * PI**2, rel=1e-14)
    assert not any(v.w)


def test_build_v_pure_q():
    q = Coefficient.harmonic_sin(2)
    assert build_V(ZERO, q) == q


def test_build_v_constant_p():
    q = Coefficient(u=(0.0, 1.0), w=(0.5,))
    assert build_V(Coefficient.constant(4.0), q) == q


# -- representation ------------------------------------------------------------


def test_trailing_zero_trimming_gives_canonical_equality():
    assert Coefficient(u=(1.0, 0.0, 0.0), w=(0.0,)) == Coefficient(u=(1.0,))


def test_dict_round_trip():
    f = Coefficient(u=(0.5, 1.0), w=(-1.0,))
    assert Coefficient.from_dict(f.to_dict()) == f


def test_one_periodic_detection():
    assert Coefficient.harmonic_cos(2).is_one_periodic()
    assert not Coefficient.harmonic_cos(1).is_one_periodic()
    assert not Coefficient.harmonic_sin(3).is_one_periodic()
    assert Coefficient.harmonic_sin(4).is_one_periodic()
