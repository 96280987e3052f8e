"""The padded eigenbasis construction of h^2 + Q, the test suite's oracle.

``sinespec`` assembles h^2 + Q as the fourth-order operator
H(p, p'' + p^2 + Q).  This module builds it independently: it squares the
eigenvalues of a padded second-order section and projects Q onto the
leading eigenvectors, so the cross-path tests compare two constructions
that share only the multiplication matrix.
"""

import numpy as np

from sinespec import (
    KIND_SQUARE_PLUS_Q,
    OperatorSpec,
    assemble_h,
    factored_eigvalsh,
    multiplication_matrix,
)
from sinespec.eigensolve import factored_shift


def graded_eigh(a):
    """Like ``graded_eigvalsh`` but also returns eigenvectors (columns).

    LAPACK returns the eigenvalues in ascending order; the eigenvectors
    come back as a contiguous array in the original index order.
    """
    a = np.asarray(a)
    vals, vecs = np.linalg.eigh(a[::-1, ::-1])
    return vals, np.ascontiguousarray(vecs[::-1])


def padded_h2_plus_Q(p, Q, n, n_pad):
    """Square of the second-order operator plus multiplication by Q.

    The square is formed in the eigenbasis of the padded second-order
    section rather than by squaring the truncated matrix: the square of a
    truncation differs from the truncation of the square by a tail term,
    and padding n_pad >= 2 n pushes that term below solver noise.
    """
    if n < 1:
        raise ValueError("basis size must be at least 1")
    if n_pad < 2 * n:
        raise ValueError("padding must satisfy n_pad >= 2 n")
    alpha, basis = graded_eigh(assemble_h(p, n_pad))
    mq = multiplication_matrix(Q, n_pad)
    lead = basis[:, :n]
    a = np.diag(alpha[:n] ** 2) + lead.T @ mq @ lead
    return 0.5 * (a + a.T)


def padded_spectrum(p, Q, n):
    """Eigenvalues of the padded section at n (padding 2n) and their change
    against the section at 2n (padding 4n).

    Both sections are h^2 plus the projection of Q, so each is bounded
    below by -sup |Q| and is solved by the factored solve with the shift
    ``spectrum`` takes for h^2+Q.
    """
    sigma = factored_shift(OperatorSpec(KIND_SQUARE_PLUS_Q, p=p, Q=Q))
    vals = factored_eigvalsh(padded_h2_plus_Q(p, Q, n, 2 * n), sigma)
    fine = factored_eigvalsh(padded_h2_plus_Q(p, Q, 2 * n, 4 * n), sigma)
    return vals, np.abs(vals - fine[:n])
