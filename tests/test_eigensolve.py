import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import coefficients, random_symmetric
from reference_eigensolvers import jacobi_eigenvalues, tridiag_eigenvalues, tridiagonalize
from sinespec import (
    Coefficient,
    KIND_FOURTH_ORDER,
    KIND_SECOND_ORDER,
    KIND_SQUARE_PLUS_Q,
    NumericError,
    OperatorSpec,
    PreconditionError,
    ZERO,
    assemble_h,
    graded_eigvalsh,
    multiplication_matrix,
    spectrum,
)

PI = math.pi
COS2 = Coefficient.harmonic_cos(2)


# -- Householder reduction ------------------------------------------------------


def test_tridiagonal_input_returned_unchanged():
    a = np.diag([1.0, 2.0, 3.0, 4.0]) + np.diag([0.5, -0.25, 0.125], 1) + np.diag([0.5, -0.25, 0.125], -1)
    d, e, basis = tridiagonalize(a)
    assert np.array_equal(d, np.diag(a))
    assert np.array_equal(e, np.diag(a, 1))
    assert np.array_equal(basis, np.eye(4))


def test_two_by_two_returned_unchanged():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    d, e, basis = tridiagonalize(a)
    assert np.array_equal(d, np.array([2.0, 3.0]))
    assert np.array_equal(e, np.array([1.0]))
    assert np.array_equal(basis, np.eye(2))


def test_reconstruction_residual_random_eight_by_eight():
    rng = np.random.default_rng(99)
    for _ in range(10):
        a = random_symmetric(rng, 8)
        d, e, basis = tridiagonalize(a)
        t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        resid = np.max(np.abs(basis @ t @ basis.T - a))
        assert resid < 1e-12 * np.max(np.abs(a))


def test_tridiagonalize_rejects_non_finite():
    a = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(NumericError):
        tridiagonalize(a)


def test_tridiagonalize_rejects_asymmetric():
    with pytest.raises(ValueError):
        tridiagonalize(np.array([[1.0, 2.0], [0.0, 1.0]]))


# -- QL iteration -----------------------------------------------------------------


def test_ql_diagonal_passthrough():
    vals = tridiag_eigenvalues([1.0, 2.0, 3.0], [0.0, 0.0])
    assert np.allclose(vals, [1.0, 2.0, 3.0], atol=0)


def test_ql_exchange_matrix():
    vals = tridiag_eigenvalues([0.0, 0.0], [1.0])
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-15)


def test_ql_analytic_two_by_two():
    vals = tridiag_eigenvalues([2.0, 2.0], [1.0])
    assert np.allclose(vals, [1.0, 3.0], atol=1e-14)


def test_ql_rejects_inconsistent_sizes():
    with pytest.raises(ValueError):
        tridiag_eigenvalues([1.0, 2.0], [1.0, 2.0])


def _ql_dense(a):
    d, e, _ = tridiagonalize(a)
    return tridiag_eigenvalues(d, e)


# -- Jacobi -----------------------------------------------------------------------


def test_jacobi_diagonal_input():
    vals = jacobi_eigenvalues(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(vals, [-1.0, 2.0, 3.0], atol=0)


def test_jacobi_analytic_two_by_two():
    vals = jacobi_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(vals, [1.0, 3.0], atol=1e-13)


def test_jacobi_size_cap():
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.eye(129))


def test_jacobi_against_ql_random_32():
    rng = np.random.default_rng(5)
    for _ in range(3):
        a = random_symmetric(rng, 32)
        scale = max(1.0, float(np.max(np.abs(a))))
        d = np.abs(jacobi_eigenvalues(a) - _ql_dense(a))
        assert np.max(d) < 1e-10 * scale


# -- cross-solver and conservation properties ----------------------------------------


@given(st.integers(2, 20), st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_three_way_solver_agreement(n, seed):
    a = random_symmetric(np.random.default_rng(seed), n)
    scale = max(1.0, float(np.max(np.abs(a))))
    lapack = graded_eigvalsh(a)
    ql = _ql_dense(a)
    jac = jacobi_eigenvalues(a)
    assert np.max(np.abs(lapack - ql)) < 1e-10 * scale
    assert np.max(np.abs(lapack - jac)) < 1e-10 * scale


@given(st.integers(2, 24), st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_trace_preserved_by_ql(n, seed):
    a = random_symmetric(np.random.default_rng(seed), n)
    vals = _ql_dense(a)
    assert abs(vals.sum() - np.trace(a)) < 1e-10 * max(1.0, np.linalg.norm(a))


@given(coefficients(max_degree=4))
@settings(max_examples=15)
def test_weyl_bound_for_multiplication_perturbation(f):
    n = 24
    base = assemble_h(ZERO, n).a
    perturbed = base + multiplication_matrix(f, n)
    shift = np.max(np.abs(graded_eigvalsh(perturbed) - graded_eigvalsh(base)))
    sup = float(np.max(np.abs(f.evaluate(np.linspace(0, 1, 4097)))))
    assert shift <= sup + 1e-6 * (1.0 + sup)


# -- spectrum() --------------------------------------------------------------------


def test_spectrum_zero_fourth_order_exact():
    s = spectrum(OperatorSpec(KIND_FOURTH_ORDER), 16)
    ns = np.arange(1, 17)
    assert np.max(np.abs(s.vals - (PI * ns) ** 4) / (PI * ns) ** 4) < 1e-13
    assert s.n_trusted == 16


def test_spectrum_constant_second_order():
    s = spectrum(OperatorSpec(KIND_SECOND_ORDER, p=Coefficient.constant(1.0)), 16)
    ns = np.arange(1, 17)
    assert np.max(np.abs(s.vals - ((PI * ns) ** 2 - 1.0))) < 1e-9


def test_spectrum_cross_path_fourth_order_vs_square():
    mu = spectrum(OperatorSpec(KIND_FOURTH_ORDER, p=COS2), 64)
    Q = ZERO - COS2.derivative(2) - COS2 * COS2
    nu = spectrum(OperatorSpec(KIND_SQUARE_PLUS_Q, p=COS2, Q=Q), 64)
    keep = 32
    assert np.max(np.abs(mu.vals[:keep] - nu.vals[:keep])) < 1e-5


def test_spectrum_rejects_tiny_basis():
    with pytest.raises(ValueError):
        spectrum(OperatorSpec(KIND_FOURTH_ORDER), 4)


def test_spectrum_val_and_trust_accessors():
    s = spectrum(OperatorSpec(KIND_FOURTH_ORDER), 8)
    assert s.val(1) == pytest.approx(PI**4, rel=1e-12)
    with pytest.raises(PreconditionError):
        s.require_trusted(9)


# -- robustness fuzz ----------------------------------------------------------------


def test_fuzz_thousand_random_instances_converge():
    rng = np.random.default_rng(123456)
    for case in range(1000):
        n = int(rng.integers(2, 17))
        a = random_symmetric(rng, n, scale=10.0 ** rng.integers(-2, 3))
        scale = max(1.0, float(np.max(np.abs(a))))
        ql = _ql_dense(a)
        jac = jacobi_eigenvalues(a)
        assert np.max(np.abs(ql - jac)) < 1e-10 * scale, f"case {case}"
