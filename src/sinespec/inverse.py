"""Circle-shift sweeps and recovery of coefficient functions from spectra.

A sweep shifts the template's coefficients to each point of a uniform tau
grid and to the wrap point tau = 1 (``CoefficientSet.shifted``, the one
place a shift is applied), and evaluates the regularized trace sum S(tau)
of the shifted set there as ``traces.verify`` does at one shift: one guard
(``traces.checked``) and one evaluation per point (``traces.evaluate``).
The template's operator kind names the formula: IPR1 for H, IPQ for h^2+Q
and GLF for h.  One H sweep serves ``recover_V`` and ``recover_q``;
``recover_Q`` reads an h^2+Q or an h sweep.  On the set shifted by tau,
the formula's right side (``traces.FORMULAS``) is affine in the target's
value at tau, and its other terms do not depend on tau, except known terms
of p: p''(tau)/2 for q, and p''(tau)/2 + p(tau)^2 for Q.  So recovery
reads the sweep alone: value(tau) = (S(tau) - grid mean of S) / slope,
plus p''(tau)/2 for q and minus p''(tau)/2 + p(tau)^2 for Q, this one
taken off before the mean, as p^2 has one; the wrap point tau = 1 uses the
same mean, and a target of any mean is recovered less its mean.  The grid
mean of a shift is its mean only while its tau-degree is below the grid
size, so ``sweep`` refuses, before any solve, a coefficient that right
side reads at tau of degree 2 * grid_size or more; p in a Q sweep is
exempt, as its terms come off exactly before the mean.

Q is read from IPQ, TRF3 of the h^2+Q spectrum nu alone, so a Q sweep
solves no h.  The IP2 difference, TRF3 of nu less TRF3 of alpha^2, reads
the same Q(tau) but solves h twice per grid point, and the rounding of its
graded alpha^2 sums varies with tau, which no mean removes.

A sweep sums in ``fourier``, the closed-form tail, and takes no mode: the
grid mean cancels the tail, which is tau-invariant on a 1-periodic set,
so ``none`` recovers the same values to rounding, and ``richardson``
about doubles the error (at the default sizes, under p = cos(2 pi x),
q = sin(2 pi x) on a 16-point grid to 8.1e-5 against 4.0e-5, and
Q = sin(2 pi x) on a 4-point grid to 6.2e-5 against 3.0e-5).  The sums
of another mode at a grid point are ``traces.verify(..., mode=, tau=)``.
q and Q are read from H and h^2+Q spectra solved by the factored solve
(see ``eigensolve``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import Coefficient
from .errors import PreconditionError, check_integer
from .operators import KIND_FOURTH_ORDER, KIND_SECOND_ORDER, KIND_SQUARE_PLUS_Q, OperatorSpec
from .traces import (
    DEFAULT_K,
    DEFAULT_N,
    CoefficientSet,
    FormulaId,
    checked,
    evaluate,
    localization,
)

__all__ = ["SweepResult", "sweep", "recover_V", "recover_q", "recover_Q", "fit_trig"]

# operator kind: (formula, slope of its right side in the value it reads at
# tau, the coefficients it reads at tau, less the known terms of p that
# _invert takes off before the grid mean)
_SWEEPS = {
    KIND_FOURTH_ORDER: (FormulaId.IPR1, -0.5, ("p", "q")),
    KIND_SQUARE_PLUS_Q: (FormulaId.IPQ, -0.5, ("Q",)),
    KIND_SECOND_ORDER: (FormulaId.GLF, 0.5, ("p",)),
}


@dataclass
class SweepResult:
    """Spectra and accelerated sums of one shifted-family sweep.

    ``spectra[i]`` maps role names to the spectra at ``taus[i]``;
    ``sum_branch[i]`` is the sum of the lowest ``n0`` eigenvalues, the
    combination that stays smooth in tau even where individual branches
    may cross.  ``recovered`` is filled by the recover_* routines as
    (tau, value) rows.
    """

    template: OperatorSpec
    taus: np.ndarray
    spectra: list
    accelerated: np.ndarray
    n_trusted: np.ndarray
    sum_branch: np.ndarray
    n0: int
    basis_n: int
    k_trunc: int
    wrap_accelerated: float
    recovered: np.ndarray | None = None
    recovered_wrap: float = float("nan")

    def wrap_gap(self) -> float:
        """|recovered at tau=1 - recovered at tau=0| (periodicity check)."""
        if self.recovered is None:
            raise ValueError("run a recover_* routine before the wrap check")
        return float(abs(self.recovered_wrap - self.recovered[0, 1]))


def sweep(template: OperatorSpec, grid_size: int, n: int = DEFAULT_N,
          k: int = DEFAULT_K) -> SweepResult:
    """Solve the shifted family on a uniform grid of tau in [0, 1), and
    at the wrap point tau = 1, through the formula of the template's kind."""
    check_integer("sweep grid size", grid_size)
    if grid_size < 4:
        raise PreconditionError("sweep grid must have at least 4 points")
    formula, _, names = _SWEEPS[template.kind]
    coeffs = CoefficientSet(p=template.p, q=template.q, Q=template.Q)
    entry = checked(formula, coeffs, n, k, "fourier")
    for name in names:
        if getattr(coeffs, name).degree >= 2 * grid_size:
            raise PreconditionError(f"recovery from {formula.value} sums on a {grid_size}-point "
                                    f"grid requires {name} of degree below {2 * grid_size}")

    taus = np.arange(grid_size, dtype=float) / grid_size
    # the coefficients at each grid point and at the wrap point tau = 1,
    # shifted before any solve, so that a non-periodic one is refused first
    points = [coeffs.shifted(tau) for tau in [*taus.tolist(), 1.0]]
    runs = [evaluate(entry, entry.read(shifted), n, k, "fourier") for shifted in points]
    spectra_list = [spectra for spectra, _, _ in runs[:-1]]
    acc = np.array([accelerated for _, _, accelerated in runs])
    trust = np.array([min(s.n_trusted for s in specs.values()) for specs in spectra_list])
    # one branch count for the whole grid so the tracked sum is comparable
    primary = entry.roles[0]
    if template.kind == KIND_SECOND_ORDER:
        n0 = 1
    else:
        n0 = max(1, localization(spectra_list[0][primary]).n0)
    sum_branch = np.array([specs[primary].vals[:n0].sum() for specs in spectra_list])
    return SweepResult(
        template=template,
        taus=taus,
        spectra=spectra_list,
        accelerated=acc[:-1],
        n_trusted=trust,
        sum_branch=sum_branch,
        n0=n0,
        basis_n=n,
        k_trunc=k,
        wrap_accelerated=float(acc[-1]),
    )


def _invert(sr: SweepResult, caller: str, kinds: tuple, q: bool = False) -> np.ndarray:
    """Fill ``sr.recovered`` and ``sr.recovered_wrap`` with the values the
    sweep's formula reads at tau less their mean, or with q's for ``q``."""
    kind = sr.template.kind
    if kind not in kinds:
        raise PreconditionError(f"{caller} needs a sweep of operator kind "
                                + " or ".join(map(repr, kinds)))
    taus, p = np.append(sr.taus, 1.0), sr.template.p
    vals = np.append(sr.accelerated, sr.wrap_accelerated) / _SWEEPS[kind][1]
    if kind == KIND_SQUARE_PLUS_Q:
        # IPQ's V(tau) holds p''(tau)/2 + p(tau)^2 beside Q(tau); p^2 has a mean
        vals = vals - p.derivative(2).scale(0.5).evaluate(taus) - p.evaluate(taus) ** 2
    vals -= np.mean(vals[:-1])
    if q:
        vals += p.derivative(2).scale(0.5).evaluate(taus)
    sr.recovered, sr.recovered_wrap = np.column_stack([sr.taus, vals[:-1]]), float(vals[-1])
    return sr.recovered


def recover_V(sr: SweepResult) -> np.ndarray:
    """Pointwise V(tau) = q(tau) - p''(tau)/2 less its mean, from the sums
    of an H sweep alone."""
    return _invert(sr, "recover_V", (KIND_FOURTH_ORDER,))


def recover_q(sr: SweepResult) -> np.ndarray:
    """Pointwise q(tau) less its mean, from an H sweep: V's values plus
    p''(tau)/2 of the template's p."""
    return _invert(sr, "recover_q", (KIND_FOURTH_ORDER,), q=True)


def recover_Q(sr: SweepResult) -> np.ndarray:
    """Pointwise Q(tau) of an h^2+Q sweep, or p(tau) of an h sweep, less its mean."""
    return _invert(sr, "recover_Q", (KIND_SQUARE_PLUS_Q, KIND_SECOND_ORDER))


def fit_trig(values, max_harmonic: int) -> Coefficient:
    """Least-squares 1-periodic trigonometric fit of samples on the grid
    tau_j = j / G of a sweep, G = len(values).

    Returns a Coefficient carrying only even frequencies 2m, m up to
    ``max_harmonic``; needs G >= 2*max_harmonic + 1.  On that grid least
    squares is the truncated DFT F = rfft(values): u_0 = Re F_0 / G,
    u_2m = 2 Re F_m / G and w_2m-1 = -2 Im F_m / G.
    """
    check_integer("harmonic count", max_harmonic)
    if max_harmonic < 0:
        raise ValueError(f"harmonic count {max_harmonic} must be nonnegative")
    values = np.asarray(values, dtype=float)
    if values.size < 2 * max_harmonic + 1:
        raise ValueError("not enough samples for the requested harmonic count")
    f = np.fft.rfft(values)[: max_harmonic + 1] * (2.0 / values.size)
    u = np.zeros(2 * max_harmonic + 1)
    w = np.zeros(2 * max_harmonic)
    u[0] = f[0].real / 2.0
    u[2::2] = f[1:].real
    w[1::2] = -f[1:].imag
    return Coefficient(u=tuple(u), w=tuple(w))
