import math

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import coefficients, shifted_spec
from reference_square import padded_h2_plus_Q, padded_spectrum
from sinespec import (
    Coefficient,
    KIND_FOURTH_ORDER,
    KIND_SECOND_ORDER,
    KIND_SQUARE_PLUS_Q,
    OperatorSpec,
    PreconditionError,
    ZERO,
    assemble_H,
    assemble_h,
    assemble_h2_plus_Q,
    assemble_spec,
    graded_eigvalsh,
    multiplication_matrix,
    spectrum,
)

PI = math.pi
COS2 = Coefficient.harmonic_cos(2)
SIN2 = Coefficient.harmonic_sin(2)


# -- second-order assembly ----------------------------------------------------


def test_h_zero_coefficient_is_diagonal():
    a = assemble_h(ZERO, 3)
    assert np.allclose(a, np.diag([(PI * n) ** 2 for n in (1, 2, 3)]), atol=0)


def test_h_constant_coefficient_shifts_diagonal():
    a = assemble_h(Coefficient.constant(2.5), 4)
    assert np.allclose(a, np.diag([(PI * n) ** 2 - 2.5 for n in (1, 2, 3, 4)]), atol=1e-15)


def test_h_cos_2pi_hand_computed_entries():
    # c_0 = 0, c_2 = 1/2: A11 picks up +1/2, A12 vanishes, A22 untouched
    a = assemble_h(COS2, 2)
    assert a[0, 0] == pytest.approx(PI**2 + 0.5, rel=1e-15)
    assert a[0, 1] == 0.0 and a[1, 0] == 0.0
    assert a[1, 1] == pytest.approx(4 * PI**2, rel=1e-15)


def test_h_rejects_empty_basis():
    with pytest.raises(ValueError):
        assemble_h(ZERO, 0)


# -- fourth-order assembly ------------------------------------------------------


def test_H_zero_coefficients_is_diagonal():
    a = assemble_H(ZERO, ZERO, 3)
    assert np.allclose(a, np.diag([(PI * n) ** 4 for n in (1, 2, 3)]), atol=0)


def test_H_constant_p_diagonal_and_lowest_eigenvalue():
    a = assemble_H(Coefficient.constant(1.0), ZERO, 4)
    diag = [(PI * n) ** 4 - 2 * (PI * n) ** 2 for n in range(1, 5)]
    assert np.allclose(a, np.diag(diag), atol=1e-12)
    assert a[0, 0] == pytest.approx(77.66988223182372, rel=1e-12)


def test_H_pure_q_coupling_entries():
    # q = cos(2 pi x): only c_2 = 1/2 is nonzero, so A13 = c_2 - c_4 = +1/2
    # and the diagonal picks up -c_{2n} (nonzero only at n = 1)
    a = assemble_H(ZERO, COS2, 3)
    assert a[0, 0] == pytest.approx(PI**4 - 0.5, rel=1e-14)
    assert a[0, 2] == pytest.approx(0.5, rel=1e-14)
    assert a[2, 0] == pytest.approx(0.5, rel=1e-14)
    assert a[0, 1] == 0.0
    assert a[1, 1] == pytest.approx((2 * PI) ** 4, rel=1e-14)


def test_H_trace_identity_for_pure_q():
    # trace(A) - sum (pi n)^4 = sum_n <q s_n, s_n> = -sum_n c_{2n}(q)
    n = 24
    a = assemble_H(ZERO, COS2, n)
    pure = sum((PI * m) ** 4 for m in range(1, n + 1))
    # the two big sums cancel to O(1); rounding leaves ~n*eps*max entry
    assert np.trace(a) - pure == pytest.approx(-0.5, abs=1e-6)


# -- multiplication matrix -------------------------------------------------------


def test_multiplication_matrix_constant():
    m = multiplication_matrix(Coefficient.constant(3.0), 4)
    assert np.allclose(m, 3.0 * np.eye(4), atol=1e-15)


@given(coefficients(max_degree=5))
def test_assembled_matrices_exactly_symmetric(f):
    for a in (
        assemble_h(f, 12),
        assemble_H(f, f, 12),
        multiplication_matrix(f, 12),
    ):
        assert np.array_equal(a, a.T)


@pytest.mark.parametrize("n", [1, 2, 3, 16, 129])
@given(f=coefficients(max_degree=5))
def test_multiplication_matrix_equals_direct_indexing_bit_for_bit(f, n):
    c = f.cosine_coeffs(2 * n)
    idx = np.arange(1, n + 1)
    direct = c[np.abs(idx[:, None] - idx[None, :])] - c[idx[:, None] + idx[None, :]]
    m = multiplication_matrix(f, n)
    assert m.shape == (n, n) and m.flags.c_contiguous
    assert m.tobytes() == direct.tobytes()
    h = -direct
    h[np.diag_indices(n)] += (np.pi * idx) ** 2
    assert assemble_h(f, n).tobytes() == h.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 16, 129, 512])
@given(p=coefficients(max_degree=5), q=coefficients(max_degree=5))
@settings(max_examples=5)
def test_H_equals_direct_indexing_bit_for_bit(p, q, n):
    # the entries <(2 (p y')' + q y) s_m, s_k> gathered through index arrays
    cp, cq = p.cosine_coeffs(2 * n), q.cosine_coeffs(2 * n)
    idx = np.arange(1, n + 1)
    m, k = idx[:, None], idx[None, :]
    direct = -2.0 * np.pi**2 * (m * k) * (cp[np.abs(m - k)] + cp[m + k]) + (
        cq[np.abs(m - k)] - cq[m + k]
    )
    direct[np.diag_indices(n)] += (np.pi * idx) ** 4
    a = assemble_H(p, q, n)
    assert a.shape == (n, n) and a.flags.c_contiguous
    assert a.tobytes() == direct.tobytes()


@given(p=coefficients(max_degree=5), Q=coefficients(max_degree=5))
@settings(max_examples=10)
def test_h2_plus_Q_is_H_at_p2_plus_p_squared_plus_Q_bit_for_bit(p, Q):
    # (-D^2 - p)^2 = D^4 + 2 D p D + (p'' + p^2) on the domain y = y'' = 0
    got = assemble_h2_plus_Q(p, Q, 24)
    assert got.tobytes() == assemble_H(p, p.derivative(2) + p * p + Q, 24).tobytes()


def test_h2_plus_Q_spectrum_matches_the_padded_oracle():
    n, keep = 64, 32
    nu = spectrum(OperatorSpec(KIND_SQUARE_PLUS_Q, p=COS2, Q=SIN2), n)
    padded, padded_est = padded_spectrum(COS2, SIN2, n)
    diff = np.abs(nu.vals[:keep] - padded[:keep])
    assert np.all(diff <= 10.0 * (nu.est_abs_err[:keep] + padded_est[:keep]) + 1e-9)


# -- squared operator plus Q: the padded eigenbasis oracle --------------------------


def test_h2_zero_everything_is_diagonal():
    a = padded_h2_plus_Q(ZERO, ZERO, 4, 8)
    assert np.allclose(a, np.diag([(PI * n) ** 4 for n in range(1, 5)]), rtol=1e-12)


def test_h2_constant_p():
    a = padded_h2_plus_Q(Coefficient.constant(2.0), ZERO, 4, 8)
    diag = [((PI * n) ** 2 - 2.0) ** 2 for n in range(1, 5)]
    assert np.allclose(np.sort(np.diag(a)), np.sort(diag), rtol=1e-12)
    off = a - np.diag(np.diag(a))
    assert np.max(np.abs(off)) < 1e-8


def test_h2_with_zero_Q_matches_squared_second_order():
    n, pad = 16, 32
    vals = graded_eigvalsh(padded_h2_plus_Q(COS2, ZERO, n, pad))
    alpha = graded_eigvalsh(assemble_h(COS2, pad))
    assert np.allclose(vals, alpha[:n] ** 2, rtol=1e-12, atol=1e-9)


def test_h2_rejects_insufficient_padding():
    with pytest.raises(ValueError):
        padded_h2_plus_Q(ZERO, ZERO, 8, 12)


def test_cross_path_identity_fourth_order_vs_squared():
    # y'''' + 2(p y')' + q y equals (h^2 + Q) y for Q = q - p'' - p^2
    n = 64
    q = SIN2
    via_H = graded_eigvalsh(assemble_H(COS2, q, n))
    Q = q - COS2.derivative(2) - COS2 * COS2
    via_square = graded_eigvalsh(padded_h2_plus_Q(COS2, Q, n, 2 * n))
    keep = n // 2
    assert np.max(np.abs(via_H[:keep] - via_square[:keep])) < 1e-5


# -- dispatcher -------------------------------------------------------------------


def test_spec_fourth_order_zero_with_shift():
    a = assemble_spec(shifted_spec(KIND_FOURTH_ORDER, 0.3), 3)
    assert np.allclose(a, np.diag([(PI * n) ** 4 for n in (1, 2, 3)]), atol=0)


def test_spec_square_plus_q_with_zero_Q_is_H_at_p2_plus_p_squared_bit_for_bit():
    got = assemble_spec(OperatorSpec(KIND_SQUARE_PLUS_Q, p=COS2), 16)
    assert got.tobytes() == assemble_H(COS2, COS2.derivative(2) + COS2 * COS2, 16).tobytes()


def test_spec_fourth_order_adds_q_and_Q():
    merged = assemble_spec(OperatorSpec(KIND_FOURTH_ORDER, p=COS2, q=SIN2, Q=COS2), 10)
    direct = assemble_H(COS2, SIN2 + COS2, 10)
    assert np.array_equal(merged, direct)


@pytest.mark.parametrize("n", [1, 7, 16, 33])
@pytest.mark.parametrize("tau", [0.0, 0.3])
@given(data=st.data())
@settings(max_examples=10)
def test_leading_block_of_the_2n_assembly_is_the_n_assembly_bit_for_bit(data, tau, n):
    # sine amplitudes couple every cosine index; odd ones only where unshifted
    draw = coefficients(max_degree=5, periodic=tau != 0.0)
    p, q, Q = data.draw(draw), data.draw(draw), data.draw(draw)
    for spec in (
        shifted_spec(KIND_SECOND_ORDER, tau, p=p),
        shifted_spec(KIND_FOURTH_ORDER, tau, p=p, q=q, Q=Q),
        shifted_spec(KIND_SQUARE_PLUS_Q, tau, p=p, Q=Q),
    ):
        block = assemble_spec(spec, 2 * n)[:n, :n]
        assert np.ascontiguousarray(block).tobytes() == assemble_spec(spec, n).tobytes()


@given(
    p=coefficients(max_degree=4, periodic=True),
    q=coefficients(max_degree=4, periodic=True),
    Q=coefficients(max_degree=4, periodic=True),
)
@settings(max_examples=10)
def test_fourth_order_q_of_each_kind(p, q, Q):
    tau = 0.3
    sp, sq, sQ = p.shift(tau), q.shift(tau), Q.shift(tau)
    square = sp.derivative(2) + sp * sp
    assert shifted_spec(KIND_FOURTH_ORDER, tau, p=p, q=q, Q=Q).fourth_order_q() == sq + sQ
    assert shifted_spec(KIND_SQUARE_PLUS_Q, tau, p=p, Q=Q).fourth_order_q() == square + sQ
    assert shifted_spec(KIND_SECOND_ORDER, tau, p=p).fourth_order_q() == square


@pytest.mark.parametrize(
    "kind, name",
    [(KIND_SECOND_ORDER, "q"), (KIND_SECOND_ORDER, "Q"), (KIND_SQUARE_PLUS_Q, "q")],
)
def test_spec_rejects_coefficient_its_kind_does_not_read(kind, name):
    with pytest.raises(PreconditionError, match=f"takes no {name}"):
        OperatorSpec(kind, **{name: COS2})


# -- refinement behaviour -----------------------------------------------------------


def test_eigenvalues_cauchy_under_refinement():
    spec = OperatorSpec(KIND_FOURTH_ORDER, p=COS2, q=SIN2)
    s64 = spectrum(spec, 64)
    s128 = spectrum(spec, 128)
    # the 64 -> 128 discrepancy of low eigenvalues stays inside both estimates
    d = np.abs(s64.vals[:16] - s128.vals[:16])
    assert np.all(d <= s64.est_abs_err[:16] + s128.est_abs_err[:16] + 1e-7)


def test_constant_coefficient_exactness():
    spec = OperatorSpec(KIND_FOURTH_ORDER, p=Coefficient.constant(1.0))
    s = spectrum(spec, 32)
    ns = np.arange(1, 33)
    exact = (PI * ns) ** 4 - 2 * (PI * ns) ** 2
    assert np.max(np.abs(s.vals - exact) / (PI * ns) ** 4) < 1e-12
