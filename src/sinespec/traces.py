"""Regularized trace identities over the sine-basis spectra.

Each formula id names one identity between a regularized eigenvalue sum
and a closed-form functional of the coefficients (p0 = int p,
P = (p'(1) - p'(0)) + int p^2; alpha = second-order eigenvalues,
mu = fourth-order, lambda = fourth-order plus Q, nu = squared-second-order
plus Q):

    GLF   sum(alpha_n - (pi n)^2 + p0)                  = (p(0)+p(1))/4 - p0/2
    S01   sum(alpha_n^2 - ((pi n)^2-p0)^2 - (P-p0^2)/2) = (P+p0^2)/4
                                     - (p(0)^2+p(1)^2)/4 - (p''(0)+p''(1))/8
    TRF3  sum(mu_n - ((pi n)^2-p0)^2 + (P+p0^2)/2 - q0) = -(P-p0^2+V(0)+V(1))/4
    TRS   TRF3 with constant p                          = -(q(0)+q(1)-2 q0)/4
    TRQ0  TRF3 with q = 0                               = -(P-p0^2)/4 + (p''(0)+p''(1))/8
    TR3   sum(lambda_n - mu_n - Q0)                     = -(Q(0)+Q(1)-2 Q0)/4
    COR1  sum(nu_n - Q0 - alpha_n^2)                    = -(Q(0)+Q(1)-2 Q0)/4
    IPR1  TRF3 for the tau-shifted family               = -(P-p0^2+2 V(tau))/4
    IP2   sum(nu_n(tau) - alpha_n(tau)^2 - Q0)          = -(Q(tau)-Q0)/2
    IPQ   IPR1 read on nu, V of q_eff = p''+p^2+Q       = -(P-p0^2+2 V(tau))/4

with q0 = int q, Q0 = int Q and V = q - q0 - p''/2: a q or Q of any mean
is read, the q0 counterterm (below) taking the mean off.  For IPQ,
V(tau) = p''(tau)/2 + p(tau)^2 + Q(tau) less its mean, so the sum reads
Q(tau) through a known function of p alone.

The nine fourth-order identities are one: TRF3 of an effective q.
Each role names the ``OperatorSpec`` whose spectrum it reads, and that
spectrum is the one of H(p, q_eff), with q_eff the spec's
``fourth_order_q`` (see ``operators``):

    role   spec    spectrum   q_eff
    mu     H       mu_n       q
    lam    H+Q     lambda_n   q + Q
    alpha  h       alpha_n^2  p'' + p^2         (h^2 = H(p, p'' + p^2))
    nu     h^2+Q   nu_n       p'' + p^2 + Q

and each identity is a signed sum of TRF3 identities, with q_eff - q0
for q (q0 = int q_eff shifts every eigenvalue by q0):

    S01 = TRF3(alpha)          TRF3, TRS, TRQ0, IPR1 = TRF3(mu)
    TR3 = TRF3(lam) - TRF3(mu) COR1, IP2 = TRF3(nu) - TRF3(alpha)
    IPQ = TRF3(nu)

so one summand, one right side and one ``fourier`` tail, -c_2n(V) + C/n^2
per term with C a closed-form functional of p and V, serve all nine, in
every mode.  ``FORMULAS`` holds one entry per id: GLF with its own
summand, right side and tail, and for the others only the signed roles,
the tolerance and the hypotheses.

A circle shift is a property of the coefficients, f(x) -> f(x + tau),
and is applied once, by ``CoefficientSet.shifted``: at a shift tau,
``verify`` reads the spectra, summand, tail and right side of the
shifted set, and a right side stated at x = 0, 1 is read at tau, as in
IPR1, IP2 and IPQ.

Counterterms are evaluated in the expanded form
mu_n - (pi n)^4 + 2 p0 (pi n)^2 - p0^2 to limit cancellation.  The
partial sums are plain running sums (``np.cumsum``): each summand is what
is left of mu_n after a counterterm of size (pi n)^4 is taken off, so it
carries the rounding of mu_n, about eps (pi n)^4, and adding it to a
running sum of modest size rounds far below that.

Whatever depends only on the input is memoized by value in bounded
``functools.lru_cache`` tables, so a ``verify`` whose spectra are cached
pays only for its arithmetic: it sums, accelerates and fits again, and no
report is memoized.  ``Formula.read`` holds, per identity and coefficient
set, the role specs, the summand's p0, P and q0, the right side and each
term's tail model (its V and closed-form C), and on a miss builds each
role's spec, q_eff and V once; ``check_preconditions`` keeps only the
inputs that pass, so a refusal is raised on every call;
``CoefficientSet.shifted``, ``CoefficientSet.digest`` and the ``fourier``
tail pieces are memoized too.  A set, like a coefficient and a spec,
hashes once, when it is built.  ``verify`` converts the formula id and
checks once, then reads everything from one ``Formula.read`` of the
shifted set through private cores (spectra, partial sums, acceleration);
``spectra_for``, ``partial_sums``, ``tail_accelerate`` and ``rhs`` make
their own checks and run the same cores.  A warm ``verify`` on one of the
26 panel rows (``scripts/run_trace_suite.py`` in ``fourier`` and
``richardson``, N = 256, K = 64) takes 18-43 us, median 25-29 us, on a
2-vCPU Intel Xeon with one BLAS thread, against a median of 31-35 us when
it went through the public functions; what is left is mostly the rate
fit and the report.  The rate exponent is the closed-form
least-squares slope of log |S_n - S| against log n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .coeffs import ZERO, Coefficient, big_P, build_V
from .errors import PreconditionError, check_integer
from .operators import KIND_FOURTH_ORDER, KIND_SECOND_ORDER, KIND_SQUARE_PLUS_Q, OperatorSpec
from .eigensolve import Spectrum, spectrum

__all__ = [
    "FormulaId",
    "FORMULAS",
    "ROLES",
    "CoefficientSet",
    "TraceReport",
    "DisputeVariant",
    "DisputeReport",
    "AsymptoticsReport",
    "LocalizationReport",
    "DEFAULT_TOLERANCES",
    "DEFAULT_N",
    "DEFAULT_K",
    "MEAN_TOL",
    "FIT_LO",
    "check_acceleration",
    "check_basis_size",
    "check_preconditions",
    "spectra_for",
    "summand",
    "partial_sums",
    "rhs",
    "tail_accelerate",
    "verify",
    "asym_residuals",
    "localization",
    "dispute",
]

MEAN_TOL = 1e-10
# the default basis size N and truncation K of every entry point, CLI included
DEFAULT_N = 256
DEFAULT_K = 64
# first index of the C/n^2 fits of asym_residuals and the Sadovnichii comparison
FIT_LO = 8


class FormulaId(str, Enum):
    GLF = "GLF"
    S01 = "S01"
    TRF3 = "TRF3"
    TRS = "TRS"
    TRQ0 = "TRQ0"
    TR3 = "TR3"
    COR1 = "COR1"
    IPR1 = "IPR1"
    IP2 = "IP2"
    IPQ = "IPQ"


@dataclass(frozen=True)
class CoefficientSet:
    """The coefficient functions a formula consumes (unused slots zero)."""

    p: Coefficient = ZERO
    q: Coefficient = ZERO
    Q: Coefficient = ZERO

    def __post_init__(self):
        # every memo key of this module holds a set: hash it once
        object.__setattr__(self, "_hash", hash((self.p, self.q, self.Q)))

    def __hash__(self):
        return self._hash

    @functools.lru_cache(maxsize=256)
    def shifted(self, tau: float) -> "CoefficientSet":
        """The set shifted on the circle, f(x) -> f(x + tau mod 1): the one
        place a shift is applied.  A nonzero shift needs a finite tau and
        1-periodic coefficients.  Memoized by value."""
        if not math.isfinite(tau):
            raise PreconditionError(f"circle shift tau={tau} must be finite")
        if tau == 0.0:
            return self
        for name in ("p", "q", "Q"):
            if not getattr(self, name).is_one_periodic():
                raise PreconditionError(
                    f"circle shift requires 1-periodic {name} "
                    "(all odd-frequency amplitudes must vanish)"
                )
        return CoefficientSet(p=self.p.shift(tau), q=self.q.shift(tau), Q=self.Q.shift(tau))

    @functools.lru_cache(maxsize=256)
    def digest(self) -> str:
        """One-line description for reports.  Memoized by value."""
        return f"p:{self.p.short()} q:{self.q.short()} Q:{self.Q.short()}"


# Spectrum roles: the operator kind whose eigenvalues a role names, and the
# coefficients that operator takes (see _role_spec).
ROLES = {
    "alpha": (KIND_SECOND_ORDER, ("p",)),
    "mu": (KIND_FOURTH_ORDER, ("p", "q")),
    "lam": (KIND_FOURTH_ORDER, ("p", "q", "Q")),
    "nu": (KIND_SQUARE_PLUS_Q, ("p", "Q")),
}

# Hypotheses an identity can place on one coefficient: the test the
# coefficient must pass, and what the error message says it must be.  A
# mean is not one: the summand's q0 counterterm takes it off.
_HYPOTHESES = {
    "periodic": (lambda f: f.is_zero() or f.is_one_periodic(), "1-periodic {c}"),
    "constant": (lambda f: f.is_constant(), "a constant {c}"),
    "zero": (lambda f: f.is_zero(), "{c} identically zero"),
}


def _expanded(x, p0: float, z2):
    # x - ((pi n)^2 - p0)^2 + p0^2 with the square expanded
    return x - z2 * z2 + 2.0 * p0 * z2


def _role_spec(role: str, cs: CoefficientSet) -> OperatorSpec:
    """The operator whose spectrum ``role`` reads, from the coefficients it takes."""
    kind, names = ROLES[role]
    return OperatorSpec(kind, **{name: getattr(cs, name) for name in names})


def _z2(k: int) -> np.ndarray:
    """(pi n)^2, n = 1..k."""
    return (np.pi * np.arange(1, k + 1, dtype=float)) ** 2


@functools.lru_cache(maxsize=64)
def _zeta2_tail(k: int) -> float:
    # sum_{n > k} 1/n^2
    return math.pi**2 / 6.0 - sum(1.0 / (n * n) for n in range(1, k + 1))


def _even_cosines(g: Coefficient, k: int) -> np.ndarray:
    """c_2, c_4, ..., c_2k of g."""
    return g.cosine_coeffs(2 * k)[2::2][:k]


@functools.lru_cache(maxsize=256)
def _endpoint_tail(g: Coefficient, k: int) -> float:
    """sum_{n > k} c_{2n}(g), closed through the endpoint-jump identity.

    The full series sums to (g(0) + g(1))/4 - g0/2; subtracting the first
    k terms leaves the exact tail of the model.  Memoized by value, like
    ``spectrum``.
    """
    fg = g.functionals()
    return ((fg.end0 + fg.end1) / 4.0 - fg.mean / 2.0) - float(_even_cosines(g, k).sum())


@functools.lru_cache(maxsize=256)
def _tail_constant(p: Coefficient, v: Coefficient) -> float:
    """C in the TRF3 summand law -c_2n(V) + C/n^2, in closed form:

        C = -(int p'^2 + 4 int p~ V - 4 p0 int p~^2 - 2 int p~^3) / (8 pi^2)

    with p~ = p - p0.  The cubic term is the third-order part of the
    perturbation series about the constant-coefficient operator, the rest
    its second-order part.  The series ends there: give p weight 2, V
    weight 4 and d/dx weight 1; C weighs 6, and every term of fourth or
    higher order weighs 8 or more (Gelfand & Dikii, 1975).  The mean of V
    does not enter, and a constant p gives exactly 0.  Memoized by value,
    like ``spectrum``.
    """
    p0 = p._mean()
    pt = p - Coefficient.constant(p0)
    d1, pt2 = p.derivative(1), pt * pt
    second = (d1 * d1)._mean() + 4.0 * (pt * v)._mean() - 4.0 * p0 * pt2._mean()
    return (2.0 * (pt2 * pt)._mean() - second) / (8.0 * math.pi**2)


@dataclass(frozen=True)
class _Reading:
    """What one identity reads of one coefficient set (``Formula.read``):
    the spec of each role, p0 = int p, P = big_P(p), q0 (the signed sum
    of the terms' mean(q_eff)), the right side, and per term the sign,
    the V and the C of its tail model -c_2n(V) + C/n^2."""

    specs: tuple
    p0: float
    P: float
    q0: float
    rhs: float
    tail: tuple


@dataclass(frozen=True, eq=False)
class Formula:
    """One trace identity: TRF3 applied to a signed sum of spectra.

    ``terms``: (role, sign) pairs, each role read as the spectrum of
    H(p, q_eff) (see ``_role_spec``); the first role is the one a sweep
    tracks.  The signs sum to 1 (one TRF3 sum) or to 0 (a difference of
    two, whose p-only counterterms cancel).  ``tol``: the tolerance at
    the default sizes.  ``hypotheses``: (coefficient, hypothesis) pairs,
    none of them on a mean, which the summand's q0 takes off.
    Nothing else differs between entries: every one reads its summand,
    right side and ``fourier`` tail through the same TRF3 terms.  Entries
    compare and hash by identity: each is one entry of ``FORMULAS``.
    """

    terms: tuple
    tol: float
    hypotheses: tuple = ()

    @property
    def roles(self) -> tuple:
        return tuple(role for role, _ in self.terms)

    @functools.lru_cache(maxsize=256)
    def read(self, cs: CoefficientSet) -> _Reading:
        """What the identity reads of ``cs``, computed once per value of
        ``cs``: everything its summand, right side and tail take from the
        coefficients.  Checks no hypothesis."""
        return self._read(cs)

    def _read(self, cs: CoefficientSet) -> _Reading:
        p0, P = cs.p.functionals().mean, big_P(cs.p)
        specs, tail, q0, right = [], [], 0.0, 0.0
        for role, sign in self.terms:
            spec = _role_spec(role, cs)
            q_eff = spec.fourth_order_q()
            # V of q_eff less its mean, which only shifts every eigenvalue
            mean = q_eff.functionals().mean
            v = build_V(cs.p, q_eff - Coefficient.constant(mean))
            fv = v.functionals()
            specs.append((role, spec))
            tail.append((sign, v, _tail_constant(cs.p, v)))
            q0 += sign * mean
            # the closed-form right side -(P - p0^2 + V(0) + V(1))/4 per term
            right += sign * -0.25 * ((P - p0 * p0) + fv.end0 + fv.end1)
        return _Reading(specs=tuple(specs), p0=p0, P=P, q0=q0, rhs=right, tail=tuple(tail))

    def summand(self, vals, r: _Reading, z2):
        """The regularized summands n = 1..k from ``vals[role]``, the lowest
        k eigenvalues, the reading r and z2 = (pi n)^2."""
        x = sum(sign * (vals[role] ** 2 if role == "alpha" else vals[role])
                for role, sign in self.terms)
        if sum(sign for _, sign in self.terms) == 0:
            # the p-only counterterms of the two TRF3 sums cancel
            return x - r.q0
        return _expanded(x, r.p0, z2) - r.p0 * r.p0 + 0.5 * (r.P + r.p0 * r.p0) - r.q0

    def tail(self, s_k: float, r: _Reading, k: int) -> float:
        """S_k closed by the summand model -c_2n(V) + C/n^2 per term."""
        for sign, v, c in r.tail:
            s_k = s_k - sign * _endpoint_tail(v, k) + sign * c * _zeta2_tail(k)
        return s_k


class _SecondOrder(Formula):
    """GLF: the second-order identity, whose one term reads alpha itself;
    it has its own summand, right side and tail."""

    def _read(self, cs: CoefficientSet) -> _Reading:
        fp = cs.p.functionals()
        return _Reading(
            specs=tuple((role, _role_spec(role, cs)) for role in self.roles),
            p0=fp.mean, P=big_P(cs.p), q0=0.0,
            rhs=(fp.end0 + fp.end1) / 4.0 - fp.mean / 2.0, tail=(),
        )

    def summand(self, vals, r: _Reading, z2):
        return vals["alpha"] - z2 + r.p0

    def tail(self, s_k: float, r: _Reading, k: int) -> float:
        # summand (P - p0^2) / (2 pi n)^2
        return s_k + (r.P - r.p0 ** 2) / (4.0 * math.pi**2) * _zeta2_tail(k)


# Tolerances at the default sizes (N=256, K=64).  1e-2 for S01, TRF3, TRQ0
# and IPR1, sized when their tail model left out the third-order part of
# the 1/n^2 constant, and for IPQ, one TRF3 sum like them.  With that part
# in, the worst |gap|/tol over 12 seeded inputs of amplitude 2 (seed 7,
# degree 2-4) is 0.0075 (S01), 0.026 (TRF3, TRQ0) and 0.0037 (IPQ, periodic),
# and 0.43 (IPR1) and 0.035 (IPQ) at periodic degree 4-8, against 0.48-0.83
# without it; on the +-2 degree 4-6 family of the third-order test it is 0.11
# (S01) and 0.46 (TRF3), against 4.4 and 4.2.  1e-3 where less was left
# (GLF; TRS, whose constant p has no 1/n^2 term; and TR3, COR1 and IP2,
# differences of two TRF3 sums over the same p, whose cubic parts cancel:
# worst 0.028-0.037).
FORMULAS = {
    FormulaId.GLF: _SecondOrder((("alpha", 1),), 1e-3),
    FormulaId.S01: Formula((("alpha", 1),), 1e-2),
    FormulaId.TRF3: Formula((("mu", 1),), 1e-2),
    FormulaId.TRS: Formula((("mu", 1),), 1e-3, (("p", "constant"),)),
    FormulaId.TRQ0: Formula((("mu", 1),), 1e-2, (("q", "zero"),)),
    FormulaId.TR3: Formula((("lam", 1), ("mu", -1)), 1e-3),
    FormulaId.COR1: Formula((("nu", 1), ("alpha", -1)), 1e-3),
    FormulaId.IPR1: Formula((("mu", 1),), 1e-2, (("p", "periodic"), ("q", "periodic"))),
    FormulaId.IP2: Formula((("nu", 1), ("alpha", -1)), 1e-3, (("Q", "periodic"),)),
    FormulaId.IPQ: Formula((("nu", 1),), 1e-2, (("Q", "periodic"),)),
}

DEFAULT_TOLERANCES = {formula: entry.tol for formula, entry in FORMULAS.items()}


def check_basis_size(n: int, k: int) -> None:
    """Reject a size that is not an integer, and a truncation K outside
    1..N/2: truncation error sits in the upper half."""
    check_integer("basis size N", n)
    check_integer("truncation K", k)
    if k < 1:
        raise PreconditionError(f"truncation K={k} must be positive")
    if n < 2 * k:
        raise PreconditionError(f"basis size N={n} must satisfy N >= 2K (K={k})")


@functools.lru_cache(maxsize=256)
def check_preconditions(formula: FormulaId, coeffs: CoefficientSet) -> None:
    """Reject inputs outside the hypothesis class of the chosen identity,
    and any nonzero coefficient that none of its spectra reads.

    Memoized by value, so a repeated check of valid input is one lookup;
    a refusal is never stored and is raised again on every call.
    """
    formula = FormulaId(formula)
    roles = FORMULAS[formula].roles
    read = [name for name in ("p", "q", "Q") if any(name in ROLES[r][1] for r in roles)]
    for name in ("p", "q", "Q"):
        if name not in read and not getattr(coeffs, name).is_zero():
            raise PreconditionError(
                f"{formula.value} reads no {name}: its spectra ({', '.join(roles)}) "
                f"take only {', '.join(read)}"
            )
    for name, hypothesis in FORMULAS[formula].hypotheses:
        holds, must_be = _HYPOTHESES[hypothesis]
        if not holds(getattr(coeffs, name)):
            raise PreconditionError(f"{formula.value} requires " + must_be.format(c=name))


def check_acceleration(k: int, mode: str) -> None:
    """Refuse, before any solve, K < 8 or an unknown mode."""
    if k < 8:
        raise PreconditionError("tail acceleration requires K >= 8")
    if mode not in ("none", "richardson", "fourier"):
        raise ValueError(f"unknown acceleration mode {mode!r}")


# The cores of verify and of the public functions below: each takes the
# formula's entry and its reading of the coefficients and checks no
# hypothesis; its caller converts the formula id, checks and reads.


def _spectra(r: _Reading, n: int) -> dict:
    """The spectra the reading's roles name, keyed by role."""
    return {role: spectrum(spec, n) for role, spec in r.specs}


def _terms(entry: Formula, r: _Reading, spectra, k: int) -> np.ndarray:
    return entry.summand({role: s.vals[:k] for role, s in spectra.items()}, r, _z2(k))


def _partial_sums(entry: Formula, r: _Reading, spectra, k: int) -> np.ndarray:
    for spec in spectra.values():
        spec.require_trusted(k)
    return np.cumsum(_terms(entry, r, spectra, k))


def _accelerate(entry: Formula, r: _Reading, partial: np.ndarray, k: int, mode: str) -> float:
    s_k = float(partial[k - 1])
    if mode == "none":
        return s_k
    if mode == "richardson":
        m = k // 2
        c_fit = (s_k - float(partial[m - 1])) / (_zeta2_tail(m) - _zeta2_tail(k))
        return s_k + c_fit * _zeta2_tail(k)
    return entry.tail(s_k, r, k)


def spectra_for(formula: FormulaId, coeffs: CoefficientSet, n: int):
    """Compute the spectra the formula's summand reads, keyed by role."""
    return _spectra(FORMULAS[FormulaId(formula)].read(coeffs), n)


def _summands(formula: FormulaId, spectra, coeffs: CoefficientSet, k: int) -> np.ndarray:
    entry = FORMULAS[formula]
    return _terms(entry, entry.read(coeffs), spectra, k)


def summand(formula: FormulaId, n: int, spectra, coeffs: CoefficientSet) -> float:
    """The n-th regularized summand of the chosen formula (1-based n)."""
    formula = FormulaId(formula)
    check_preconditions(formula, coeffs)
    if n < 1:
        raise PreconditionError("summand index must be positive")
    for spec in spectra.values():
        spec.require_trusted(n)
    return float(_summands(formula, spectra, coeffs, n)[n - 1])


def partial_sums(formula: FormulaId, spectra, coeffs: CoefficientSet, k: int) -> np.ndarray:
    """Prefix sums S_1..S_k of the regularized summands."""
    formula = FormulaId(formula)
    check_preconditions(formula, coeffs)
    entry = FORMULAS[formula]
    return _partial_sums(entry, entry.read(coeffs), spectra, k)


def rhs(formula: FormulaId, coeffs: CoefficientSet) -> float:
    """Closed-form right side of the chosen identity."""
    formula = FormulaId(formula)
    check_preconditions(formula, coeffs)
    return FORMULAS[formula].read(coeffs).rhs


def tail_accelerate(
    formula: FormulaId,
    partial,
    coeffs: CoefficientSet,
    k: int,
    mode: str = "fourier",
) -> float:
    """Accelerated limit of the trace sum from its partial sums.

    ``fourier`` replaces the truncated remainder by the closed-form tail
    of the summand model: the known 1/(2 pi n)^2 law for GLF, and for
    every fourth-order formula, per signed term, the TRF3 law
    -c_2n(V) + C/n^2 of its effective q, with V = q_eff - q0 - p''/2
    closed through the endpoint-jump series and C in closed form, exact
    through its third-order part, where the perturbation series ends
    (``_tail_constant``); TRQ0 reads TRF3's at q = 0.  ``richardson``
    needs no model: it fits the C of a C/n^2 summand tail to S_k and S_m, m = k // 2,
    as C = (S_k - S_m) / (z(m) - z(k)) with z(k) = sum_{n > k} 1/n^2, and
    returns S_k + C z(k).  ``none`` returns S_k.
    """
    formula = FormulaId(formula)
    check_acceleration(k, mode)
    partial = np.asarray(partial, dtype=float)
    if partial.size < k:
        raise ValueError("partial sums shorter than K")
    entry = FORMULAS[formula]
    return _accelerate(entry, entry.read(coeffs), partial, k, mode)


@dataclass(frozen=True)
class TraceReport:
    """Outcome of one trace-identity verification."""

    formula: FormulaId
    k_used: int
    partial: tuple
    accelerated: float
    rhs: float
    gap: float
    rate_exponent: float
    inputs_digest: str
    mode: str = "fourier"
    basis_n: int = DEFAULT_N
    tau: float = 0.0


def _fit_rate(partial: np.ndarray, accelerated: float, k: int) -> float:
    """Least-squares slope of log |S_n - accelerated| against log n over
    n = max(4, K/4)..K, leaving out residuals at the rounding floor, from
    centred sums; NaN when fewer than three points are left."""
    lo = max(4, k // 4)
    resid = np.abs(partial[lo - 1 : k] - accelerated)
    keep = resid > 1e-13 * (1.0 + abs(accelerated))
    count = int(np.count_nonzero(keep))
    if count < 3:
        return float("nan")
    x = np.log(np.arange(1, k + 1, dtype=float))[lo - 1 :][keep]
    y = np.log(resid[keep])
    x = x - x.sum() / count
    return float(x @ (y - y.sum() / count) / (x @ x))


def verify(
    formula: FormulaId,
    coeffs: CoefficientSet,
    n: int = DEFAULT_N,
    k: int = DEFAULT_K,
    mode: str = "fourier",
    tau: float = 0.0,
) -> TraceReport:
    """Full verification: spectra, partial sums, acceleration, gap, rate.

    The hypotheses, which no shift changes, are checked on ``coeffs``;
    everything else reads ``coeffs.shifted(tau)``.  A q or Q of any mean
    is accepted: the identity verified is that of the centred coefficient,
    whose eigenvalues differ by exactly the mean.
    """
    formula = FormulaId(formula)
    check_basis_size(n, k)
    check_preconditions(formula, coeffs)
    check_acceleration(k, mode)
    digest = coeffs.digest() + f" tau={tau:g}"
    entry = FORMULAS[formula]
    reading = entry.read(coeffs.shifted(tau))
    spectra = _spectra(reading, n)
    parts = _partial_sums(entry, reading, spectra, k)
    accelerated = _accelerate(entry, reading, parts, k, mode)
    return TraceReport(
        formula=formula,
        k_used=k,
        partial=tuple(parts.tolist()),
        accelerated=accelerated,
        rhs=reading.rhs,
        gap=accelerated - reading.rhs,
        rate_exponent=_fit_rate(parts, accelerated, k),
        inputs_digest=digest,
        mode=mode,
        basis_n=n,
        tau=tau,
    )


# ---------------------------------------------------------------------------
# eigenvalue asymptotics and localization diagnostics


@dataclass(frozen=True)
class AsymptoticsReport:
    """Residuals of the two-term-plus-oscillation eigenvalue expansion."""

    residuals: np.ndarray
    fitted_c: float
    derived_c: float
    fit_lo: int
    fit_hi: int
    basis_n: int


def asym_residuals(spec: OperatorSpec, n: int = DEFAULT_N,
                   k: int = DEFAULT_K) -> AsymptoticsReport:
    """Residuals r_m = mu_m - [((pi m)^2-p0)^2 - (P+p0^2)/2 + q0 - Vhat_cm].

    Returns r_1..r_k together with ``fitted_c``, the mean of m^2 r_m over
    m in [FIT_LO, k]: C in r_m ~ C / m^2, with its sign (-0.745 for
    p = cos 2 pi x), and ``derived_c``, C in closed form
    (``_tail_constant``) for (p, q + Q) (-0.75 there).  The expansion
    holds when it is finite and stable under refinement.  r_m is the TRF3
    summand with the spec's ``fourth_order_q``, q + Q, in place of q, plus
    the m-th even cosine of V.
    """
    if spec.kind != KIND_FOURTH_ORDER:
        raise PreconditionError("asymptotic residuals are defined for the fourth-order family")
    check_basis_size(n, k)
    if k < FIT_LO:
        raise PreconditionError(f"K={k} is below the fit start {FIT_LO}")
    s = spectrum(spec, n)
    s.require_trusted(k)
    cs = CoefficientSet(p=spec.p, q=spec.fourth_order_q())
    ns = np.arange(1, k + 1, dtype=float)
    trf3 = FORMULAS[FormulaId.TRF3]
    v = build_V(cs.p, cs.q)
    r = trf3.summand({"mu": s.vals[:k]}, trf3.read(cs), _z2(k)) + _even_cosines(v, k)
    fitted = float(np.mean(ns[FIT_LO - 1 :] ** 2 * r[FIT_LO - 1 :]))
    return AsymptoticsReport(
        residuals=r, fitted_c=fitted, derived_c=_tail_constant(cs.p, v),
        fit_lo=FIT_LO, fit_hi=k, basis_n=n,
    )


@dataclass(frozen=True)
class LocalizationReport:
    """Counting report for the quartic-root windows and the matching disc.

    ``n0`` is the least threshold such that every trusted index above it
    owns exactly one eigenvalue in {|lambda^(1/4) - pi n| < pi/4} while
    the disc {|lambda| < pi^4 (n0 + 1/2)^4} holds exactly n0 eigenvalues.
    Window miscounts above the returned threshold are listed as
    violations (empty when a valid threshold exists).
    """

    n0: int
    violations: tuple
    disc_count: int
    horizon: int


def localization(spec: Spectrum) -> LocalizationReport:
    """Window/disc eigenvalue counting over the trusted range."""
    if spec.kind == KIND_SECOND_ORDER:
        raise PreconditionError("localization applies to fourth-order spectra")
    horizon = spec.n_trusted
    vals = np.asarray(spec.vals[:horizon])
    # counting is order-free, so both counts search sorted copies: the
    # roots in each open window (lo, hi), the moduli below each radius
    roots = np.sort((np.abs(vals) ** 0.25)[vals >= 0.0])
    ns = np.arange(1, horizon + 1)
    lo, hi = np.pi * ns - np.pi / 4.0, np.pi * ns + np.pi / 4.0
    counts = np.searchsorted(roots, hi, "left") - np.searchsorted(roots, lo, "right")
    bad = [int(n) for n in ns[counts != 1]]
    start = max(bad, default=0)
    n0s = range(start, horizon + 1)
    radii = [math.pi**4 * (n0 + 0.5) ** 4 for n0 in n0s]
    discs = np.searchsorted(np.sort(np.abs(vals)), radii, "left").tolist()
    # the least n0 whose disc holds n0 eigenvalues; none: every miscount
    # is a violation, with the disc of the whole trusted range
    n0 = next((n0 for n0, disc in zip(n0s, discs) if disc == n0), None)
    return LocalizationReport(
        n0=horizon if n0 is None else n0,
        violations=tuple((n, int(counts[n - 1])) for n in bad if n0 is None or n > n0),
        disc_count=discs[-1] if n0 is None else n0,
        horizon=horizon,
    )


# ---------------------------------------------------------------------------
# historical-formula adjudication


class DisputeVariant(str, Enum):
    DIKII_TRFD1 = "DikiiTrfD1"
    DIKII_D2 = "DikiiD2"
    SADOVNICHII_TRS = "SadovnichiiTrS"


@dataclass(frozen=True)
class DisputeReport:
    """Numerical adjudication between a historical formula and this package's.

    ``computed_lhs`` is the spectral quantity both sides claim to equal;
    ``variant_rhs`` evaluates the historical variant, ``reference_rhs``
    the identity implemented here.  The verdict names the side matching
    within tolerance, or ``indistinguishable`` when the two sides agree
    to begin with.
    """

    variant: DisputeVariant
    computed_lhs: float
    variant_rhs: float
    reference_rhs: float
    verdict: str
    disagreement: float
    tolerance: float


def _verdict(lhs: float, variant_rhs: float, reference_rhs: float, tol: float) -> str:
    if abs(variant_rhs - reference_rhs) <= 10.0 * tol:
        return "indistinguishable"
    near_variant = abs(lhs - variant_rhs) <= tol
    near_reference = abs(lhs - reference_rhs) <= tol
    if near_reference and not near_variant:
        return "reference"
    if near_variant and not near_reference:
        return "variant"
    return "neither"


def dispute(
    variant: DisputeVariant,
    p: Coefficient,
    q: Coefficient | None = None,
    n: int = DEFAULT_N,
    k: int = DEFAULT_K,
    tol: float = 1e-2,
) -> DisputeReport:
    """Adjudicate one historical trace/asymptotics disagreement numerically
    within ``tol``, a finite positive number."""
    variant = DisputeVariant(variant)
    if not 0.0 < tol < math.inf:
        raise PreconditionError(f"tolerance must be a finite positive number, not {tol}")
    fp = p.functionals()
    if variant in (DisputeVariant.DIKII_TRFD1, DisputeVariant.DIKII_D2):
        if q is not None:
            raise PreconditionError("the Dikii comparisons read no q")
        if abs(fp.mean) > MEAN_TOL or any(p.w):
            raise PreconditionError(
                "Dikii comparisons require a zero-mean pure-cosine p "
                "(every odd endpoint derivative vanishes)"
            )
        report = verify(FormulaId.S01, CoefficientSet(p=p), n=n, k=k, mode="fourier")
        lhs = report.accelerated
        l2 = p.l2sq()
        ends_sq = (fp.end0**2 + fp.end1**2) / 4.0
        d2_ends = (fp.d2_0 + fp.d2_1) / 8.0
        if variant == DisputeVariant.DIKII_TRFD1:
            variant_rhs = l2 / 4.0 + d2_ends - ends_sq
        else:
            variant_rhs = l2 / 4.0 - d2_ends - ends_sq
        reference_rhs = report.rhs
    else:
        if q is None:
            raise PreconditionError("the Sadovnichii comparison needs q = p'' + p^2")
        square = OperatorSpec(KIND_SECOND_ORDER, p=p)
        expected = square.fourth_order_q()
        diff = q - expected
        scale = 1.0 + max((abs(v) for v in (*expected.u, *expected.w)), default=0.0)
        if any(abs(v) > 1e-9 * scale for v in (*diff.u, *diff.w)):
            raise PreconditionError(
                "the Sadovnichii comparison requires q = p'' + p^2 "
                "(the fourth-order operator must be a perfect square)"
            )
        check_basis_size(n, k)
        if k <= FIT_LO:
            raise PreconditionError(
                f"K={k} leaves fewer than two points for the two-term fit from {FIT_LO}"
            )
        alpha = spectrum(square, n)
        alpha.require_trusted(k)
        ns = np.arange(1, k + 1, dtype=float)
        # third-term sequence: mu_m - (pi m)^4 + 2 p0 (pi m)^2 with the
        # oscillating part removed; fitted against const + b/m^2
        t = _expanded(alpha.vals[:k] ** 2, fp.mean, _z2(k)) + _even_cosines(build_V(p, q), k)
        design = np.column_stack([np.ones(k - FIT_LO + 1), 1.0 / ns[FIT_LO - 1 :] ** 2])
        coef, *_ = np.linalg.lstsq(design, t[FIT_LO - 1 :], rcond=None)
        lhs = float(coef[0])
        variant_rhs = q.functionals().mean
        reference_rhs = (p.l2sq() + fp.mean**2) / 2.0
    return DisputeReport(
        variant=variant,
        computed_lhs=float(lhs),
        variant_rhs=float(variant_rhs),
        reference_rhs=float(reference_rhs),
        verdict=_verdict(lhs, variant_rhs, reference_rhs, tol),
        disagreement=float(abs(variant_rhs - reference_rhs)),
        tolerance=tol,
    )
