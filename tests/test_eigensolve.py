import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import coefficients, random_symmetric, shifted_spec
from reference_eigensolvers import jacobi_eigenvalues, tridiag_eigenvalues, tridiagonalize
from reference_square import graded_eigh
from sinespec import eigensolve
from sinespec import (
    Coefficient,
    CoefficientSet,
    DisputeVariant,
    FormulaId,
    KIND_FOURTH_ORDER,
    KIND_SECOND_ORDER,
    KIND_SQUARE_PLUS_Q,
    NumericError,
    OperatorSpec,
    PreconditionError,
    ZERO,
    assemble_h,
    dispute,
    factored_eigvalsh,
    graded_eigvalsh,
    multiplication_matrix,
    spectrum,
    sweep,
    verify,
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


@pytest.mark.parametrize("n", [2, 7, 64, 300])
def test_graded_solves_match_solves_of_a_contiguous_copy_bit_for_bit(n):
    # the flipped view is handed to numpy uncopied; the bits must be those
    # of solving a contiguous flipped copy
    rng = np.random.default_rng(n)
    a = random_symmetric(rng, n) + np.diag((PI * np.arange(1, n + 1)) ** 4)
    flipped = np.ascontiguousarray(a[::-1, ::-1])
    assert graded_eigvalsh(a).tobytes() == np.sort(np.linalg.eigvalsh(flipped)).tobytes()
    vals, vecs = np.linalg.eigh(flipped)
    order = np.argsort(vals, kind="stable")
    got_vals, got_vecs = graded_eigh(a)
    assert got_vals.tobytes() == vals[order].tobytes()
    assert got_vecs.tobytes() == vecs[::-1, :][:, order].tobytes()


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
    base = assemble_h(ZERO, n)
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


def test_h2_plus_Q_trust_horizon_with_constant_Q():
    # a constant Q shifts every eigenvalue by Q; the padded construction
    # missed the lowest one by 1.4e-4 in its 2N solve and trusted none
    p = Coefficient(u=(0.0, 1.0, 1.5, 1.75), w=(1.0, 1.1796875))
    plain = spectrum(OperatorSpec(KIND_SQUARE_PLUS_Q, p=p), 256)
    shifted = spectrum(OperatorSpec(KIND_SQUARE_PLUS_Q, p=p, Q=Coefficient.constant(1.0)), 256)
    assert shifted.n_trusted == 256
    assert abs(shifted.vals[0] - (plain.vals[0] + 1.0)) <= 1e-9


def test_h2_plus_Q_low_eigenvalues_do_not_depend_on_the_basis_size():
    spec = OperatorSpec(KIND_SQUARE_PLUS_Q, p=COS2, Q=Coefficient.harmonic_sin(2))
    nu256 = spectrum(spec, 256).vals[:64]
    nu512 = spectrum(spec, 512).vals[:64]
    assert np.max(np.abs(nu256 - nu512) / np.abs(nu256)) <= 1e-12


def _seeded_coefficient(rng, deg):
    return Coefficient(u=tuple(rng.uniform(-1.0, 1.0, deg + 1)),
                       w=tuple(rng.uniform(-1.0, 1.0, deg)))


def test_H_low_eigenvalues_agree_between_256_and_1024():
    # the graded solve of H put sum_{n <= 64} mu_n at N = 1024 off by
    # 7.9e-4..6.2e-3 on these inputs; the factored solve agrees to <= 2.1e-5
    rng = np.random.default_rng(2017)
    inputs = [(COS2, Coefficient.harmonic_sin(2))]
    for _ in range(4):
        deg = int(rng.integers(1, 4))
        inputs.append((_seeded_coefficient(rng, deg), _seeded_coefficient(rng, deg)))
    for p, q in inputs:
        spec = OperatorSpec(KIND_FOURTH_ORDER, p=p, q=q)
        coarse, fine = spectrum(spec, 256), spectrum(spec, 1024)
        diff = coarse.vals[:64] - fine.vals[:64]
        assert abs(diff.sum()) <= 1e-4
        assert np.all(np.abs(diff) <= 2.0 * (coarse.est_abs_err[:64] + fine.est_abs_err[:64]))


@given(st.integers(2, 40), st.integers(0, 2**31 - 1))
@settings(max_examples=20)
def test_factored_solve_matches_jacobi_to_relative_accuracy(n, seed):
    # on a graded matrix cyclic Jacobi keeps each eigenvalue to a few eps
    # of itself (measured <= 4.2e-15), where graded_eigvalsh misses the
    # low ones by up to 1e-10 of themselves at n = 27
    a = random_symmetric(np.random.default_rng(seed), n) + np.diag((PI * np.arange(1, n + 1)) ** 4)
    sigma = 1.0 + max(0.0, -float(np.linalg.eigvalsh(a)[0]))
    got = factored_eigvalsh(a, sigma)
    jac = jacobi_eigenvalues(a)
    assert np.all(np.diff(got) >= 0.0)
    assert np.max(np.abs(got - jac) / np.abs(jac)) <= 1e-13


def test_spectrum_rejects_tiny_basis():
    with pytest.raises(ValueError):
        spectrum(OperatorSpec(KIND_FOURTH_ORDER), 4)


def test_spectrum_val_and_trust_accessors():
    s = spectrum(OperatorSpec(KIND_FOURTH_ORDER), 8)
    assert s.val(1) == pytest.approx(PI**4, rel=1e-12)
    with pytest.raises(PreconditionError):
        s.require_trusted(9)


# -- the spectrum cache ------------------------------------------------------------


def test_equal_specs_share_one_cached_spectrum():
    # equal values built as separate objects are one cache key
    a = OperatorSpec(KIND_FOURTH_ORDER, p=Coefficient(u=(0.0, 0.0, 1.0)), q=Coefficient(w=(0.0, 0.5)))
    b = OperatorSpec(KIND_FOURTH_ORDER, p=Coefficient.harmonic_cos(2), q=Coefficient.harmonic_sin(2, 0.5))
    assert a is not b and a.p is not b.p and a.q is not b.q
    assert spectrum(a, 32) is spectrum(b, 32)


@st.composite
def operator_specs(draw):
    kind = draw(st.sampled_from([KIND_SECOND_ORDER, KIND_FOURTH_ORDER, KIND_SQUARE_PLUS_Q]))
    tau = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    periodic = tau != 0.0
    p = draw(coefficients(max_degree=3, periodic=periodic))
    q = draw(coefficients(max_degree=3, periodic=periodic)) if kind == KIND_FOURTH_ORDER else ZERO
    Q = draw(coefficients(max_degree=3, periodic=periodic)) if kind != KIND_SECOND_ORDER else ZERO
    return shifted_spec(kind, tau, p=p, q=q, Q=Q)


def _bits(value):
    """A comparable stand-in that differs whenever any stored bit differs."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            (f.name, _bits(getattr(value, f.name))) for f in dataclasses.fields(value)
        )
    if isinstance(value, dict):
        return tuple((key, _bits(v)) for key, v in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    return value


@given(operator_specs())
@settings(max_examples=20)
def test_cached_spectrum_equals_fresh_solve_bit_for_bit(spec):
    cached = spectrum(spec, 16)
    assert spectrum(dataclasses.replace(spec), 16) is cached
    assert _bits(cached) == _bits(spectrum.__wrapped__(spec, 16))


def test_cached_arrays_are_read_only():
    s = spectrum(OperatorSpec(KIND_SECOND_ORDER, p=COS2), 16)
    with pytest.raises(ValueError):
        s.vals[0] = 0.0
    with pytest.raises(ValueError):
        s.est_abs_err[:] = 0.0


@pytest.mark.parametrize("kind", [KIND_SECOND_ORDER, KIND_FOURTH_ORDER, KIND_SQUARE_PLUS_Q])
def test_spectrum_assembles_once_at_2n(monkeypatch, kind):
    # the size-n problem is the leading block of the size-2n matrix
    calls = []
    real = eigensolve.assemble_spec
    monkeypatch.setattr(eigensolve, "assemble_spec",
                        lambda spec, n, rows=None: calls.append((rows, n)) or real(spec, n, rows))
    s = spectrum.__wrapped__(OperatorSpec(kind, p=COS2), 16)
    assert calls == [(32, 16)]
    assert s.kind == kind and s.basis_n == 16


def test_cache_keeps_at_most_64_spectra():
    spectrum.cache_clear()
    for j in range(65):
        spectrum(OperatorSpec(KIND_SECOND_ORDER, p=Coefficient.constant(j)), 8)
    info = spectrum.cache_info()
    assert info.misses == 65
    assert info.currsize <= 64


def test_consumers_identical_on_warm_and_cleared_cache():
    sin2 = Coefficient.harmonic_sin(2)
    sq = COS2.derivative(2) + COS2 * COS2
    rows = [
        (FormulaId.TRF3, CoefficientSet(p=COS2, q=sin2), 64),
        (FormulaId.COR1, CoefficientSet(p=COS2, Q=COS2), 32),
    ]

    def run():
        return [
            *(verify(f, c, n=n, k=16, mode=mode)
              for f, c, n in rows for mode in ("fourier", "richardson")),
            sweep(OperatorSpec(KIND_FOURTH_ORDER, p=COS2, q=sin2), 4, n=32, k=12),
            dispute(DisputeVariant.DIKII_TRFD1, COS2, n=64, k=16),
            dispute(DisputeVariant.SADOVNICHII_TRS, COS2, q=sq, n=64, k=16),
        ]

    run()
    warm = _bits(run())
    spectrum.cache_clear()
    assert _bits(run()) == warm


# -- one solve at n, and its error estimate ----------------------------------------

EPS = np.finfo(float).eps


@pytest.mark.parametrize("kind", [KIND_SECOND_ORDER, KIND_FOURTH_ORDER, KIND_SQUARE_PLUS_Q])
def test_spectrum_solves_no_matrix_larger_than_n(monkeypatch, kind):
    shapes = []
    for name in ("graded_eigvalsh", "factored_eigvalsh"):
        real = getattr(eigensolve, name)
        monkeypatch.setattr(
            eigensolve, name,
            lambda a, *rest, real=real: shapes.append(np.shape(a)) or real(a, *rest),
        )
    Q = COS2 if kind != KIND_SECOND_ORDER else ZERO
    spectrum.__wrapped__(OperatorSpec(kind, p=COS2, Q=Q), 16)
    assert shapes and set(shapes) == {(16, 16)}
    if kind == KIND_SQUARE_PLUS_Q:
        assert len(shapes) == 1


@given(operator_specs())
@settings(max_examples=60)
def test_error_estimate_covers_the_error_against_a_4n_solve(spec):
    # the reference is the relative-accuracy solve at 4N; its own rounding
    # enters the allowance as c eps (|ref| + sigma)
    n, keep = 64, 32
    s = spectrum(spec, n)
    sigma = eigensolve.factored_shift(spec)
    ref = factored_eigvalsh(eigensolve.assemble_spec(spec, 4 * n), sigma)[:keep]
    allowed = 2.0 * (s.est_abs_err[:keep] + eigensolve.ROUNDING_C * EPS * (np.abs(ref) + sigma))
    assert np.all(np.abs(s.vals[:keep] - ref) <= allowed)


@given(operator_specs())
@settings(max_examples=40)
def test_factored_shift_bounds_every_section_below(spec):
    sigma = eigensolve.factored_shift(spec)
    for n in (8, 48):
        a = eigensolve.assemble_spec(spec, n)
        assert np.linalg.eigvalsh(a)[0] >= 1.0 - sigma
        factored_eigvalsh(a, sigma)  # its Cholesky factorization must not raise


def _h2q_vals_as_first_solved(spec, n):
    # the h^2+Q solve as it stood before the error estimate moved off the
    # 2N solve, with the shift 1 + |u_0| + sum_j hypot(u_j, w_j) of the
    # operator's Q, which no circle shift changes
    pairs = itertools.zip_longest(spec.Q.u[1:], spec.Q.w, fillvalue=0.0)
    sigma = 1.0 + (abs(spec.Q.u[0]) + sum(math.hypot(a, b) for a, b in pairs))
    return factored_eigvalsh(eigensolve.assemble_spec(spec, 2 * n)[:n, :n], sigma)


@pytest.mark.parametrize("spec", [
    OperatorSpec(KIND_SQUARE_PLUS_Q, Q=COS2),
    OperatorSpec(KIND_SQUARE_PLUS_Q, p=COS2, Q=COS2),
    shifted_spec(KIND_SQUARE_PLUS_Q, 0.25, p=COS2, Q=Coefficient.harmonic_sin(2)),
])
def test_h2_plus_Q_panel_values_keep_their_bits(spec):
    got = spectrum(spec, 256).vals
    assert got.tobytes() == _h2q_vals_as_first_solved(spec, 256).tobytes()


@given(coefficients(max_degree=3, periodic=True), coefficients(max_degree=3, periodic=True),
       st.sampled_from([0.0, 0.3]))
@settings(max_examples=15)
def test_h2_plus_Q_values_keep_their_bits(p, Q, tau):
    spec = shifted_spec(KIND_SQUARE_PLUS_Q, tau, p=p, Q=Q)
    got = spectrum(spec, 64).vals
    assert got.tobytes() == _h2q_vals_as_first_solved(spec, 64).tobytes()


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
