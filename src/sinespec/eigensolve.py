"""Refinement-annotated spectra.

h, H and H+Q are solved by LAPACK on the index-flipped matrix
(``linalg.graded_eigvalsh``), which the tests check against hand-rolled
Householder/QL and Jacobi solvers in ``tests/``.  h^2+Q is solved by the
factored ``linalg.factored_eigvalsh``: its h^2 section is the Gram matrix
<h s_m, h s_k>, so no eigenvalue lies below -sup|Q|, and the shift
1 + sum |u_j| + sum |w_j| of Q makes it positive definite.  On H the
factored solve would triple the sweep time for no gain in the gaps.

``spectrum`` assembles once, at 2n, and solves that matrix and its
leading n x n block, which equals the assembly at n bit for bit (see
``operators``).  It is memoized per process by value: equal
``(OperatorSpec, n)`` keys, even when built from separate objects, share
one solve, and the 64 most recently used results are kept.  The arrays of a returned
``Spectrum`` are read-only, so no caller can change a cached result;
``spectrum.cache_clear()`` empties the cache.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .linalg import factored_eigvalsh, graded_eigvalsh
from .operators import KIND_SECOND_ORDER, KIND_SQUARE_PLUS_Q, OperatorSpec, assemble_spec

__all__ = [
    "Spectrum",
    "spectrum",
    "trust_scale",
    "TRUST_TOL_DEFAULT",
]

# an eigenvalue is trusted while its N -> 2N change stays below this
# fraction of the unperturbed eigenvalue (pi n)^2 or (pi n)^4
TRUST_TOL_DEFAULT = 1e-6


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sorted eigenvalues with per-index refinement estimates.

    ``est_abs_err[n-1]`` is the change of eigenvalue n between the basis
    sizes N and 2N; ``n_trusted`` is the length of the leading run whose
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


@functools.lru_cache(maxsize=64)
def spectrum(spec: OperatorSpec, n: int) -> Spectrum:
    """Solve at sizes n and 2n, from one assembly at 2n; annotate the size-n
    values with estimates."""
    if n < 8:
        raise PreconditionError("basis size must be at least 8")
    fine = assemble_spec(spec, 2 * n)
    coarse = fine[:n, :n]
    if spec.kind == KIND_SQUARE_PLUS_Q:
        sigma = 1.0 + sum(abs(x) for x in spec.Q.u + spec.Q.w)
        vals, vals_fine = (factored_eigvalsh(a, sigma) for a in (coarse, fine))
    else:
        vals, vals_fine = graded_eigvalsh(coarse), graded_eigvalsh(fine)
    est = np.abs(vals - vals_fine[:n])
    ok = est <= TRUST_TOL_DEFAULT * trust_scale(spec.kind, np.arange(1, n + 1))
    n_trusted = n if bool(ok.all()) else int(np.argmin(ok))
    vals.flags.writeable = False
    est.flags.writeable = False
    return Spectrum(kind=spec.kind, basis_n=n, n_trusted=n_trusted, vals=vals, est_abs_err=est)
