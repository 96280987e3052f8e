"""Galerkin matrices in the orthonormal sine basis s_n = sqrt(2) sin(pi n x).

Every basis element satisfies y = y'' = 0 at both endpoints, so the
boundary conditions of both operator families hold identically and no
boundary penalty enters.  With c_k(f) = int_0^1 f cos(pi k x) dx the
entries are closed forms:

    <f s_m, s_n>           = c_|m-n|(f) - c_{m+n}(f)
    <2 (f y')' s_m, s_n>   = -2 pi^2 m n (c_|m-n|(f) + c_{m+n}(f))

Each assembler returns the dense symmetric array of its finite section,
exactly symmetric entry-by-entry because each entry is built from
index-symmetric expressions; c_|m-n| and c_{m+n} are strided Toeplitz and
Hankel views of one cosine table.  Cosine tables are prefix-stable, so the
leading n x n block of an assembly at 2n equals the assembly at n bit for
bit.  Given ``rows`` > n, an assembler returns only rows 1..rows of the
columns 1..n of the section at ``rows``, from views over a table of
length rows + n: ``eigensolve.spectrum`` reads the 2n x n block, whose
upper half is the section at n and whose lower half couples it to the
modes n+1..2n.  ``assemble_diagonal`` gives the diagonal of a section
from the same entry formulas, so the lower half's diagonal entries need
no assembly of their columns.

Where y = y'' = 0 at both endpoints, (-D^2 - p)^2 y = y'''' + 2 (p y')' +
(p'' + p^2) y, so every fourth-order spectrum is that of some H(p, q_eff).
``OperatorSpec.fourth_order_q`` is the one statement of q_eff: q + Q for
H+Q; p'' + p^2 + Q for h^2+Q, which is assembled as that H; and
p'' + p^2 for h, the form of h^2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coeffs import ZERO, Coefficient
from .errors import PreconditionError

__all__ = [
    "KIND_SECOND_ORDER",
    "KIND_FOURTH_ORDER",
    "KIND_SQUARE_PLUS_Q",
    "KINDS",
    "OperatorSpec",
    "multiplication_matrix",
    "assemble_h",
    "assemble_H",
    "fourth_order_entries",
    "assemble_h2_plus_Q",
    "assemble_spec",
    "assemble_diagonal",
]

KIND_SECOND_ORDER = "second_order"
KIND_FOURTH_ORDER = "fourth_order"
KIND_SQUARE_PLUS_Q = "square_plus_q"
KINDS = (KIND_SECOND_ORDER, KIND_FOURTH_ORDER, KIND_SQUARE_PLUS_Q)
# The coefficients each kind's assembler reads (see assemble_spec).
_READS = {
    KIND_SECOND_ORDER: ("p",),
    KIND_FOURTH_ORDER: ("p", "q", "Q"),
    KIND_SQUARE_PLUS_Q: ("p", "Q"),
}


def _rows(n: int, rows) -> int:
    """The row count of a block: n for the square section, else rows >= n."""
    if n < 1:
        raise ValueError("basis size must be at least 1")
    if rows is None:
        return n
    if rows < n:
        raise ValueError("a block must have at least as many rows as columns")
    return rows


def _toeplitz_hankel(f: Coefficient, n: int, rows: int):
    """Strided views (c_|m-k|, c_{m+k}) of f's cosine table, m = 1..rows, k = 1..n."""
    c = f.cosine_coeffs(rows + n)
    # Row m (0-based) of c_|m-k| is the window of c_{rows-1}..c_1, c_0..c_{n-1}
    # starting at rows-1-m; row m of c_{m+k} is the window of c starting at m+2.
    toeplitz = sliding_window_view(np.concatenate((c[rows - 1 : 0 : -1], c[:n])), n)[::-1]
    hankel = sliding_window_view(c[2 : rows + n + 1], n)
    return toeplitz, hankel


def multiplication_matrix(f: Coefficient, n: int, rows: int | None = None) -> np.ndarray:
    """Matrix of pointwise multiplication by f in the sine basis."""
    toeplitz, hankel = _toeplitz_hankel(f, n, _rows(n, rows))
    return toeplitz - hankel


def assemble_h(p: Coefficient, n: int, rows: int | None = None) -> np.ndarray:
    """Second-order operator -y'' - p y with y(0) = y(1) = 0."""
    a = multiplication_matrix(p, n, rows)
    np.negative(a, out=a)
    idx = np.arange(1, n + 1)
    a[np.diag_indices(n)] += (np.pi * idx) ** 2
    return a


def assemble_H(p: Coefficient, q: Coefficient, n: int, rows: int | None = None) -> np.ndarray:
    """Fourth-order operator y'''' + 2 (p y')' + q y with y = y'' = 0 at 0, 1."""
    rows = _rows(n, rows)
    idx = np.arange(1, rows + 1, dtype=float)
    a = fourth_order_entries(_toeplitz_hankel(p, n, rows), _toeplitz_hankel(q, n, rows),
                             idx[:, None], idx[:n])
    a[np.diag_indices(n)] += (np.pi * idx[:n]) ** 4
    return a


def fourth_order_entries(cp, cq, m, k) -> np.ndarray:
    """Entries <(2 (p y')' + q y) s_m, s_k>, without the (pi m)^4 diagonal,
    from the pairs (c_|m-k|, c_{m+k}) of p and of q and the indices m, k
    (broadcast against each other)."""
    (pt, ph), (qt, qh) = cp, cq
    # -2 pi^2 m k (pt + ph) + (qt - qh), evaluated in that order but in
    # place, so that only two arrays of the result's size are made
    a = np.multiply(m, k, dtype=float)
    a *= -2.0 * np.pi**2
    s = np.add(pt, ph)
    a *= s
    a += np.subtract(qt, qh, out=s)
    return a


def assemble_h2_plus_Q(p: Coefficient, Q: Coefficient, n: int,
                       rows: int | None = None) -> np.ndarray:
    """Square of the second-order operator plus Q, as H(p, p'' + p^2 + Q)."""
    return assemble_H(p, OperatorSpec(KIND_SQUARE_PLUS_Q, p=p, Q=Q).fourth_order_q(), n, rows)


@dataclass(frozen=True)
class OperatorSpec:
    """One operator of the family: its kind and coefficients.

    Coefficient slots the kind does not read must stay at zero: q for h and
    h^2+Q, Q for h.  An operator of the circle-shifted family is the spec of
    shifted coefficients (``traces.CoefficientSet.shifted``).
    """

    kind: str
    p: Coefficient = ZERO
    q: Coefficient = ZERO
    Q: Coefficient = ZERO

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        for name in ("p", "q", "Q"):
            if name not in _READS[self.kind] and not getattr(self, name).is_zero():
                raise PreconditionError(f"operator kind {self.kind!r} takes no {name}")
        # every memo key holds a spec: hash it once, by the kind's index,
        # whose hash, unlike a string's, is the same in every process
        object.__setattr__(self, "_hash", hash((KINDS.index(self.kind), self.p, self.q, self.Q)))

    def __hash__(self):
        return self._hash

    @functools.lru_cache(maxsize=256)
    def fourth_order_q(self) -> Coefficient:
        """q_eff of the fourth-order form H(p, q_eff) of this kind: q + Q for
        H+Q, p'' + p^2 + Q for h^2+Q, and p'' + p^2 for h, the form of h^2.
        Memoized by value, so a ``spectrum`` builds it once for its
        assembly, diagonal and shift."""
        if self.kind == KIND_FOURTH_ORDER:
            return self.q + self.Q
        square = self.p.derivative(2) + self.p * self.p
        return square if self.kind == KIND_SECOND_ORDER else square + self.Q


def assemble_spec(spec: OperatorSpec, n: int, rows: int | None = None) -> np.ndarray:
    """Dispatch to the matching assembler: the section at n, or given
    ``rows``, its columns 1..n in rows 1..rows."""
    if spec.kind == KIND_SECOND_ORDER:
        return assemble_h(spec.p, n, rows)
    if spec.kind == KIND_SQUARE_PLUS_Q:
        return assemble_h2_plus_Q(spec.p, spec.Q, n, rows)
    return assemble_H(spec.p, spec.fourth_order_q(), n, rows)


def assemble_diagonal(spec: OperatorSpec, n: int) -> np.ndarray:
    """The diagonal A_mm, m = 1..n, of ``assemble_spec(spec, n)`` from the
    same entry formulas at c_|m-k| = c_0, c_{m+k} = c_2m: -(c_0 - c_2m) +
    (pi m)^2 for h, ``fourth_order_entries`` plus (pi m)^4 for the
    fourth-order kinds."""
    if n < 1:
        raise ValueError("basis size must be at least 1")
    idx = np.arange(1, n + 1, dtype=float)
    cp = spec.p.cosine_coeffs(2 * n)
    if spec.kind == KIND_SECOND_ORDER:
        return np.negative(cp[0] - cp[2::2]) + (np.pi * idx) ** 2
    cq = spec.fourth_order_q().cosine_coeffs(2 * n)
    a = fourth_order_entries((cp[0], cp[2::2]), (cq[0], cq[2::2]), idx, idx)
    a += (np.pi * idx) ** 4
    return a
