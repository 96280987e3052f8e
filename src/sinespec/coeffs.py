"""Exact algebra of coefficient functions on the unit interval.

A coefficient is a finite half-frequency trigonometric polynomial

    f(x) = u[0] + sum_{j>=1} ( u[j] cos(pi j x) + w[j] sin(pi j x) ),

stored by its amplitude sequences.  The family is closed under
differentiation, pointwise products, 1-periodic shifts and the cosine
transform, so every scalar the trace identities consume (means, L2
norms, endpoint values and endpoint derivatives) has a closed form in
the amplitudes and no quadrature appears anywhere on the main path.
Odd frequencies realize asymmetric endpoint data (f(0) != f(1) through
odd cosines, f'(0) != f'(1) through sines); a coefficient is 1-periodic
exactly when every odd-frequency amplitude vanishes.

A coefficient is frozen and hashes by its amplitudes, hashed once at
construction, so what depends on it alone is memoized by value with
``functools.lru_cache`` at a fixed maxsize: ``Coefficient.functionals``,
``Coefficient.shift`` and ``Coefficient.is_one_periodic``.  Equal
coefficients built as separate objects share one entry, and every value
returned is frozen too.  Keys compare with ``==``, so amplitudes 0.0
and -0.0 are one key.  ``Coefficient.l2sq`` and ``build_V`` are not
memoized: they run on a miss of a memoized caller in ``traces``, or once
per report.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, PreconditionError, check_integer

__all__ = [
    "Coefficient",
    "Functionals",
    "ZERO",
    "big_P",
    "build_V",
]


def _trimmed(values, keep_one=False):
    # text iterates as characters or byte values, and a bool reads as 0 or 1:
    # neither is a finite real
    text_or_bool = frozenset((str, bytes, bytearray, bool, np.str_, np.bytes_, np.bool_))
    try:
        values = (math.nan,) if isinstance(values, (str, bytes, bytearray)) else tuple(values)
        if not text_or_bool.isdisjoint(map(type, values)):
            values = (math.nan,)
        vals = [float(v) for v in values]
    except OverflowError:
        # an integer beyond the float range is no finite real either
        vals = [math.inf]
    except TypeError:
        # no sequence, or an entry float() refuses (None, a complex, a list)
        vals = [math.nan]
    if not all(math.isfinite(v) for v in vals):
        raise ValueError("coefficient amplitudes must be finite reals")
    while vals and vals[-1] == 0.0 and (len(vals) > 1 or not keep_one):
        vals.pop()
    if keep_one and not vals:
        vals = [0.0]
    return tuple(vals)


def _finite(value):
    """``value`` (a float, a tuple or an array computed from finite
    amplitudes), once every entry is checked finite: one that overflowed
    the float range is a numeric failure, not bad input."""
    if not np.all(np.isfinite(value)):
        raise NumericError("a value derived from the input coefficients overflows")
    return value


def _derived(u, w) -> "Coefficient":
    """The coefficient of amplitudes computed from finite ones: one that
    overflows the float range is a numeric failure, not bad input."""
    try:
        return Coefficient(u=tuple(u), w=tuple(w))
    except ValueError:
        raise NumericError("a coefficient derived from the input overflows") from None


@dataclass(frozen=True)
class Coefficient:
    """Amplitudes of a half-frequency trigonometric polynomial.

    ``u[j]`` multiplies cos(pi j x) with ``u[0]`` the constant term;
    ``w[j-1]`` multiplies sin(pi j x).  ``w`` is indexed from frequency 1,
    matching the JSON file schema ``{"u": [...], "w": [...]}``.
    """

    u: tuple = (0.0,)
    w: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "u", _trimmed(self.u, keep_one=True))
        object.__setattr__(self, "w", _trimmed(self.w))
        # every memo key holds coefficients: hash the amplitudes once
        object.__setattr__(self, "_hash", hash((self.u, self.w)))

    def __hash__(self):
        return self._hash

    # -- construction helpers ------------------------------------------------

    # the amplitudes are handed on unconverted, so that the constructor's
    # "finite reals" check applies to them

    @classmethod
    def constant(cls, c: float) -> "Coefficient":
        return cls(u=(c,))

    @classmethod
    def harmonic_cos(cls, j: int, amp: float = 1.0) -> "Coefficient":
        """amp * cos(pi j x)"""
        check_integer("frequency index", j)
        if j < 0:
            raise ValueError("frequency index must be nonnegative")
        return cls(u=(0.0,) * j + (amp,))

    @classmethod
    def harmonic_sin(cls, j: int, amp: float = 1.0) -> "Coefficient":
        """amp * sin(pi j x)"""
        check_integer("frequency index", j)
        if j < 1:
            raise ValueError("frequency index must be positive")
        return cls(w=(0.0,) * (j - 1) + (amp,))

    @classmethod
    def from_dict(cls, data) -> "Coefficient":
        if not isinstance(data, dict):
            raise ValueError("coefficient data must be a JSON object")
        for key in data:
            if key not in ("u", "w"):
                raise ValueError(f"unknown field {key!r} (expected 'u', 'w')")
        return cls(**data)

    def to_dict(self) -> dict:
        return {"u": list(self.u), "w": list(self.w)}

    # -- basic structure -----------------------------------------------------

    @property
    def degree(self) -> int:
        return max(len(self.u) - 1, len(self.w))

    def _aligned(self):
        """Amplitude arrays (ua, wa) aligned so index j means frequency j."""
        deg = self.degree
        ua = np.zeros(deg + 1)
        wa = np.zeros(deg + 1)
        ua[: len(self.u)] = self.u
        if self.w:
            wa[1 : len(self.w) + 1] = self.w
        return ua, wa

    def is_zero(self) -> bool:
        return not any(self.u) and not any(self.w)

    def is_constant(self) -> bool:
        return len(self.u) == 1 and not self.w

    @functools.lru_cache(maxsize=256)
    def is_one_periodic(self) -> bool:
        """True iff every odd-frequency amplitude vanishes (period 1)."""
        ua, wa = self._aligned()
        odd = np.arange(self.degree + 1) % 2 == 1
        return not (np.any(ua[odd] != 0.0) or np.any(wa[odd] != 0.0))

    def short(self) -> str:
        """Compact one-line description for report digests.  It depends on
        the value alone, as a memo key does: -0.0 reads as 0."""
        us = ",".join(f"{v + 0.0:g}" for v in self.u)
        ws = ",".join(f"{v + 0.0:g}" for v in self.w)
        return f"u=[{us}];w=[{ws}]"

    # -- evaluation and calculus ---------------------------------------------

    def evaluate(self, x):
        """Pointwise value at x in [0, 1]; accepts scalars or arrays."""
        xs = np.asarray(x, dtype=float)
        if np.any(xs < 0.0) or np.any(xs > 1.0):
            raise ValueError("evaluation point outside [0, 1]")
        ua, wa = self._aligned()
        ang = np.pi * np.multiply.outer(xs, np.arange(self.degree + 1))
        vals = np.cos(ang) @ ua + np.sin(ang) @ wa
        if np.ndim(x) == 0:
            return float(vals)
        return vals

    __call__ = evaluate

    def derivative(self, order: int = 1) -> "Coefficient":
        """Term-wise analytic derivative of order 1 or 2 (degree preserved)."""
        ua, wa = self._aligned()
        j = np.arange(self.degree + 1, dtype=float)
        if order == 1:
            return _derived(np.pi * j * wa, (-np.pi * j * ua)[1:])
        if order == 2:
            fac = -((np.pi * j) ** 2)
            return _derived(fac * ua, (fac * wa)[1:])
        raise ValueError("unsupported derivative order (must be 1 or 2)")

    @functools.lru_cache(maxsize=256)
    def shift(self, tau: float) -> "Coefficient":
        """Translate on the circle: g(x) = f(x + tau mod 1).

        Defined only for 1-periodic coefficients, where the translation is
        an exact rotation of each frequency-j amplitude pair.
        """
        if not self.is_one_periodic():
            raise PreconditionError(
                "shift requires a 1-periodic coefficient "
                "(all odd-frequency amplitudes must vanish)"
            )
        ua, wa = self._aligned()
        j = np.arange(self.degree + 1, dtype=float)
        cj = np.cos(np.pi * j * tau)
        sj = np.sin(np.pi * j * tau)
        return _derived(ua * cj + wa * sj, (-ua * sj + wa * cj)[1:])

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "Coefficient") -> "Coefficient":
        if not isinstance(other, Coefficient):
            return NotImplemented
        u = [0.0] * max(len(self.u), len(other.u))
        w = [0.0] * max(len(self.w), len(other.w))
        for f in (self, other):
            for j, v in enumerate(f.u):
                u[j] += v
            for j, v in enumerate(f.w):
                w[j] += v
        return _derived(u, w)

    def __neg__(self) -> "Coefficient":
        return Coefficient(u=tuple(-v for v in self.u), w=tuple(-v for v in self.w))

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self + (-other)

    def scale(self, c: float) -> "Coefficient":
        c = float(c)
        return _derived([c * v for v in self.u], [c * v for v in self.w])

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(other)
        if not isinstance(other, Coefficient):
            return NotImplemented
        return _product(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(other)
        return NotImplemented

    # -- transforms and functionals -------------------------------------------

    def _mean(self) -> float:
        # int_0^1 cos(pi j x) dx = 0 for j >= 1; int_0^1 sin(pi j x) dx = 2/(pi j) for odd j
        ua, wa = self._aligned()
        total = ua[0]
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(1, self.degree + 1, 2):
                total += wa[j] * 2.0 / (math.pi * j)
        return _finite(float(total))

    def cosine_coeffs(self, k_max: int) -> np.ndarray:
        """Closed-form cosine transform c_k = int_0^1 f cos(pi k x) dx, k = 0..k_max.

        Frequency-j cosine terms contribute u_j/2 exactly at k = j; sine
        terms couple to every k of opposite parity with weight
        (2 j / pi) / (j^2 - k^2), and to nothing when j + k is even.
        """
        if k_max < 0:
            raise ValueError("k_max must be nonnegative")
        ua, wa = self._aligned()
        c = np.zeros(k_max + 1)
        c[0] = self._mean()
        top = min(self.degree, k_max)
        c[1 : top + 1] += 0.5 * ua[1 : top + 1]
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(1, self.degree + 1):
                if wa[j] == 0.0:
                    continue
                start = 1 if j % 2 == 0 else 2
                ks = np.arange(start, k_max + 1, 2, dtype=float)
                if ks.size:
                    c[start :: 2] += wa[j] * (2.0 * j / math.pi) / (j * j - ks * ks)
        return _finite(c)

    @functools.lru_cache(maxsize=256)
    def functionals(self) -> "Functionals":
        """The mean, endpoint values and endpoint derivatives in closed form
        from the amplitudes.

        Memoized by value (see the module docstring).
        """
        ua, wa = self._aligned()
        j = np.arange(self.degree + 1, dtype=float)
        sgn = (-1.0) ** j
        pj = np.pi * j
        with np.errstate(over="ignore", invalid="ignore"):
            values = (
                self._mean(),
                float(ua.sum()),
                float((ua * sgn).sum()),
                float((pj * wa).sum()),
                float((pj * wa * sgn).sum()),
                float(-((pj**2) * ua).sum()),
                float(-((pj**2) * ua * sgn).sum()),
            )
        return Functionals(*_finite(values))

    def l2sq(self) -> float:
        """int f^2, the mean of the exact product f * f."""
        return (self * self)._mean()


def _product(f: Coefficient, g: Coefficient) -> Coefficient:
    """Exact pointwise product via the product-to-sum identities, over Python floats."""
    fu, fw = (a.tolist() for a in f._aligned())
    gu, gw = (a.tolist() for a in g._aligned())
    deg = f.degree + g.degree
    u = [0.0] * (deg + 1)
    w = [0.0] * (deg + 1)
    for j in range(len(fu)):
        for k in range(len(gu)):
            s, d = j + k, abs(j - k)
            cc = fu[j] * gu[k]
            if cc != 0.0:
                u[d] += 0.5 * cc
                u[s] += 0.5 * cc
            ss = fw[j] * gw[k]
            if ss != 0.0:
                u[d] += 0.5 * ss
                u[s] -= 0.5 * ss
            sc = fw[j] * gu[k]
            if sc != 0.0:
                w[s] += 0.5 * sc
                if j != k:
                    w[d] += 0.5 * math.copysign(1.0, j - k) * sc
            cs = fu[j] * gw[k]
            if cs != 0.0:
                w[s] += 0.5 * cs
                if j != k:
                    w[d] += 0.5 * math.copysign(1.0, k - j) * cs
    w[0] = 0.0
    return _derived(u, w[1:])


@dataclass(frozen=True)
class Functionals:
    """Closed-form scalars of one coefficient function.

    mean = int f, endpoint values and first/second endpoint derivatives
    (int f^2 is ``Coefficient.l2sq``).
    """

    mean: float
    end0: float
    end1: float
    d1_0: float
    d1_1: float
    d2_0: float
    d2_1: float


ZERO = Coefficient()


def big_P(f: Coefficient) -> float:
    """int_0^1 (f'' + f^2) = (f'(1) - f'(0)) + int f^2, in closed form.

    For a 1-periodic coefficient the derivative difference vanishes
    exactly and this reduces to the squared L2 norm.
    """
    fn = f.functionals()
    return (fn.d1_1 - fn.d1_0) + f.l2sq()


def build_V(p: Coefficient, q: Coefficient) -> Coefficient:
    """The combination V = q - p''/2 entering the fourth-order identities."""
    return q - p.derivative(2).scale(0.5)
