"""Spectra with per-eigenvalue error estimates, from one solve at n.

``spectrum`` assembles once the 2n x n block of the section at 2n, rows
1..2n of its columns 1..n, and solves only its upper n x n half, which
equals the assembly at n bit for bit (see ``operators``).  The lower half
and the diagonal entries of rows n+1..2n (``operators.assemble_diagonal``)
give the truncation estimate, so the columns n+1..2n are never built.
Every block is solved by the factored ``linalg.factored_eigvalsh``, which
keeps each eigenvalue to a few eps of itself plus eps * sigma; H, H+Q and
h^2+Q return its values.  h returns LAPACK's solve of the index-flipped
matrix (``linalg.graded_eigvalsh``), which the tests check against
hand-rolled Householder/QL and Jacobi solvers in ``tests/``.

Each eigenvalue's error estimate has two parts, and neither needs a
solve larger than n or an eigenvector:

- rounding: |vals - f| + c eps (|f| + sigma), where f is the factored
  solve of the same block.  For H, H+Q and h^2+Q, f is vals itself, so
  the first term is 0; h uses f as the reference of its graded values.
- truncation: sum_{m=n+1}^{2n} A_mk^2 / |A_mm - vals_k|, the second-order
  shift of eigenvalue k by the rows n+1..2n of the same block.

``factored_shift`` derives sigma from each kind's structure, so that every
section plus sigma I is positive definite.  The tests check the estimate
against the factored solve of the assembly at 4n.

``spectrum`` is memoized per process by value: equal ``(OperatorSpec, n)``
keys, even when built from separate objects, share one solve, and the 64
most recently used results are kept.  Keys are typed, so an n of 64.0
is not the key of 64 and is refused on every call.  The arrays of a returned
``Spectrum`` are read-only, so no caller can change a cached result;
``spectrum.cache_clear()`` empties the cache.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .coeffs import Coefficient
from .errors import NumericError, PreconditionError, check_integer
from .linalg import factored_eigvalsh, graded_eigvalsh
from .operators import (
    KIND_SECOND_ORDER,
    KIND_SQUARE_PLUS_Q,
    OperatorSpec,
    assemble_diagonal,
    assemble_spec,
)

__all__ = [
    "Spectrum",
    "spectrum",
    "factored_shift",
    "trust_scale",
    "TRUST_TOL_DEFAULT",
]

# an eigenvalue is trusted while its estimated error (rounding plus
# truncation) stays below this fraction of the unperturbed eigenvalue
# (pi n)^2 or (pi n)^4
TRUST_TOL_DEFAULT = 1e-6
# c of the rounding part c eps (|f| + sigma): the factored solve keeps each
# eigenvalue to <= 4.2e-15 of itself against cyclic Jacobi (tests)
ROUNDING_C = 20.0
# rows of the coupling block summed at a time
_ROWS = 32


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sorted eigenvalues with per-index error estimates.

    ``est_abs_err[n-1]`` estimates the error of eigenvalue n at basis size N:
    its rounding, against the factored solve, plus its truncation, the
    second-order shift from the basis functions N+1..2N (see the module
    docstring).  ``n_trusted`` is the length of the leading run whose
    estimates stay below the trust tolerance.  Trace sums never read past
    the trust horizon.
    """

    kind: str
    basis_n: int
    n_trusted: int
    vals: np.ndarray
    est_abs_err: np.ndarray

    def val(self, n: int) -> float:
        """Eigenvalue by 1-based index."""
        return float(self.vals[n - 1])

    def require_trusted(self, n: int) -> None:
        """Refuse an index, or a truncation K, outside 1..n_trusted."""
        if not 1 <= n <= self.n_trusted:
            raise PreconditionError(
                f"eigenvalue index {n} is beyond the trust horizon {self.n_trusted}"
            )


def trust_scale(kind: str, n):
    power = 2 if kind == KIND_SECOND_ORDER else 4
    return (np.pi * np.asarray(n, dtype=float)) ** power


def _sup_bound(f: Coefficient) -> float:
    """|u_0| + sum_j hypot(u_j, w_j), a bound on sup |f| that no circle
    shift changes: a shift rotates each pair (u_j, w_j)."""
    pairs = itertools.zip_longest(f.u[1:], f.w, fillvalue=0.0)
    return abs(f.u[0]) + sum(math.hypot(a, b) for a, b in pairs)


def factored_shift(spec: OperatorSpec) -> float:
    """sigma with every eigenvalue of every section of spec at least 1 - sigma.

    h = -D^2 - p is bounded below by -sup |p|.  h^2+Q is bounded below by
    -sup |Q|, since h^2 is a Gram matrix.  H = D^4 + 2 D p D + q_eff is
    bounded below by -(sup |p|)^2 - sup |q_eff|, because
    ||y''||^2 - 2 P ||y'||^2 >= -P^2 ||y||^2 when ||y'||^2 <= ||y''|| ||y||.
    A sigma beyond the float range raises ``NumericError``.
    """
    if spec.kind == KIND_SECOND_ORDER:
        sigma = 1.0 + _sup_bound(spec.p)
    elif spec.kind == KIND_SQUARE_PLUS_Q:
        sigma = 1.0 + _sup_bound(spec.Q)
    else:
        try:
            sigma = 1.0 + _sup_bound(spec.p) ** 2 + _sup_bound(spec.fourth_order_q())
        except OverflowError:
            sigma = math.inf
    if not math.isfinite(sigma):
        raise NumericError(f"the shift of the factored {spec.kind} solve overflows")
    return sigma


def _truncation(coupling: np.ndarray, diag: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """sum_m A_mk^2 / |A_mm - vals_k| over the rows A_m. of ``coupling``, whose
    diagonal entries A_mm are ``diag``.

    Rows are taken _ROWS at a time, so no n x n temporary is made.  An
    estimate beyond the float range raises ``NumericError``.
    """
    est = np.zeros(vals.size)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, len(coupling), _ROWS):
            rows = coupling[lo : lo + _ROWS]
            est += (rows * rows / np.abs(diag[lo : lo + _ROWS, None] - vals)).sum(axis=0)
    if not np.all(np.isfinite(est)):
        raise NumericError("the truncation estimate of the spectrum overflows")
    return est


@functools.lru_cache(maxsize=64, typed=True)
def spectrum(spec: OperatorSpec, n: int) -> Spectrum:
    """Assemble the 2n x n block once, solve its upper n x n half and
    annotate each eigenvalue with its rounding and truncation estimate."""
    check_integer("basis size N", n)
    if n < 8:
        raise PreconditionError("basis size must be at least 8")
    block = assemble_spec(spec, n, rows=2 * n)
    coarse = block[:n]
    sigma = factored_shift(spec)
    f = factored_eigvalsh(coarse, sigma)
    vals = graded_eigvalsh(coarse) if spec.kind == KIND_SECOND_ORDER else f
    est = np.abs(vals - f) + ROUNDING_C * np.finfo(float).eps * (np.abs(f) + sigma)
    est += _truncation(block[n:], assemble_diagonal(spec, 2 * n)[n:], vals)
    ok = est <= TRUST_TOL_DEFAULT * trust_scale(spec.kind, np.arange(1, n + 1))
    n_trusted = n if bool(ok.all()) else int(np.argmin(ok))
    vals.flags.writeable = False
    est.flags.writeable = False
    return Spectrum(kind=spec.kind, basis_n=n, n_trusted=n_trusted, vals=vals, est_abs_err=est)
