"""Circle-shift sweeps and recovery of coefficient functions from spectra.

A sweep shifts the template's coefficients to each point of a uniform
tau grid (``CoefficientSet.shifted``, the one place a shift is applied),
solves the operators of the shifted set and accelerates the matching
regularized trace sum S(tau) there.  On the set shifted by tau, the
formula's right side (``traces.FORMULAS``) is affine in the target's value
at tau, and its other terms do not depend on tau, except known terms of
p: p''(tau)/2 for q, and p''(tau)/2 + p(tau)^2 for Q.  So recovery reads
the sweep alone: value(tau) = (S(tau) - grid mean of S) / slope, plus
p''(tau)/2 for q and minus p''(tau)/2 + p(tau)^2 for Q, this one taken
off before the mean, as p^2 has one; the wrap point tau = 1 uses the same
mean, and a target of any mean is recovered less its mean.  The grid mean
of a shift is its mean only while its tau-degree is below the grid size,
so ``sweep`` refuses, before any solve, a coefficient that right side
reads at tau of degree 2 * grid_size or more; p in a Q sweep is exempt, as
its terms come off exactly before the mean.

Q is read from IPQ, TRF3 of the h^2+Q spectrum nu alone, so a Q sweep
solves no h.  The IP2 difference, TRF3 of nu less TRF3 of alpha^2, reads
the same Q(tau) but solves h twice per grid point, and the rounding of its
graded alpha^2 sums varies with tau, which no mean removes.

The closed-form ``fourier`` tail is the default acceleration, as in the
CLI.  Its model of the IPR1 and IPQ sums carries the 1/n^2 constant in
closed form, exact through its third-order part, where the perturbation
series ends (``traces._tail_constant``).  At the default sizes, under
p = cos(2 pi x), it recovers q = sin(2 pi x) on a 16-point grid to
4.0e-5 and Q = sin(2 pi x) on a 4-point grid to 3.0e-5, against 8.1e-5
and 6.2e-5 with ``richardson``, which needs no model.  q and Q are read
from H and h^2+Q spectra solved by the factored solve (see ``eigensolve``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import Coefficient
from .errors import PreconditionError, check_integer
from .operators import KIND_SECOND_ORDER, OperatorSpec
from .traces import (
    DEFAULT_K,
    DEFAULT_N,
    FORMULAS,
    ROLES,
    CoefficientSet,
    FormulaId,
    check_acceleration,
    check_basis_size,
    check_preconditions,
    localization,
    partial_sums,
    spectra_for,
    tail_accelerate,
)

__all__ = ["TARGETS", "SweepResult", "sweep", "target_kind",
           "recover_V", "recover_q", "recover_Q", "fit_trig"]

# target: (formula, slope of its right side in the target's value at tau, the
# coefficients it reads at tau, less the known terms of p that _invert takes
# off before the grid mean); a kind's first target is the sweep's default.
_TARGETS = {
    "q": (FormulaId.IPR1, -0.5, ("p", "q")),
    "V": (FormulaId.IPR1, -0.5, ("p", "q")),
    "Q": (FormulaId.IPQ, -0.5, ("Q",)),
    "p_second_order": (FormulaId.GLF, 0.5, ("p",)),
}
TARGETS = tuple(_TARGETS)


def target_kind(target: str) -> str:
    """Operator kind a sweep for ``target`` solves: that of its formula's first role."""
    return ROLES[FORMULAS[_TARGETS[target][0]].roles[0]][0]


@dataclass
class SweepResult:
    """Spectra and accelerated sums of one shifted-family sweep.

    ``spectra[i]`` maps role names to the spectra at ``taus[i]``;
    ``sum_branch[i]`` is the sum of the lowest ``n0`` eigenvalues, the
    combination that stays smooth in tau even where individual branches
    may cross.  ``recovered`` is filled by the recover_* routines as
    (tau, value) rows.
    """

    target: str
    template: OperatorSpec
    taus: np.ndarray
    spectra: list
    accelerated: np.ndarray
    n_trusted: np.ndarray
    sum_branch: np.ndarray
    n0: int
    basis_n: int
    k_trunc: int
    mode: str
    wrap_accelerated: float
    recovered: np.ndarray | None = None
    recovered_wrap: float = float("nan")

    def wrap_gap(self) -> float:
        """|recovered at tau=1 - recovered at tau=0| (periodicity check)."""
        if self.recovered is None:
            raise ValueError("run a recover_* routine before the wrap check")
        return float(abs(self.recovered_wrap - self.recovered[0, 1]))


def _accelerated_at(formula, coeffs, n, k, mode):
    # the public functions, on the cores verify runs: a few lookups per
    # grid point against its solves, and the names a sweep is timed by
    spectra = spectra_for(formula, coeffs, n)
    parts = partial_sums(formula, spectra, coeffs, k)
    return spectra, tail_accelerate(formula, parts, coeffs, k, mode)


def sweep(
    template: OperatorSpec,
    grid_size: int,
    n: int = DEFAULT_N,
    k: int = DEFAULT_K,
    mode: str = "fourier",
    target: str | None = None,
) -> SweepResult:
    """Solve the shifted family on a uniform grid of tau in [0, 1)."""
    check_integer("sweep grid size", grid_size)
    if grid_size < 4:
        raise PreconditionError("sweep grid must have at least 4 points")
    check_basis_size(n, k)
    if target is None:
        target = next(t for t in _TARGETS if target_kind(t) == template.kind)
    if target not in TARGETS:
        raise ValueError(f"unknown sweep target {target!r}")
    if template.kind != target_kind(target):
        raise PreconditionError(
            f"target {target!r} needs operator kind {target_kind(target)!r}"
        )
    formula, _, names = _TARGETS[target]
    coeffs = CoefficientSet(p=template.p, q=template.q, Q=template.Q)
    check_preconditions(formula, coeffs)
    for name in names:
        if getattr(coeffs, name).degree >= 2 * grid_size:
            raise PreconditionError(f"recovering {target} on a {grid_size}-point grid "
                                    f"requires {name} of degree below {2 * grid_size}")
    check_acceleration(k, mode)

    taus = np.arange(grid_size, dtype=float) / grid_size
    # the coefficients at each grid point and at the wrap point tau = 1,
    # shifted before any solve, so that a non-periodic one is refused first
    *points, wrap = [coeffs.shifted(tau) for tau in [*taus.tolist(), 1.0]]
    spectra_list = []
    acc, trust = np.empty(grid_size), np.empty(grid_size, dtype=int)
    primary = FORMULAS[formula].roles[0]
    for i, shifted in enumerate(points):
        spectra, acc[i] = _accelerated_at(formula, shifted, n, k, mode)
        spectra_list.append(spectra)
        trust[i] = min(s.n_trusted for s in spectra.values())
    # one branch count for the whole grid so the tracked sum is comparable
    if template.kind == KIND_SECOND_ORDER:
        n0 = 1
    else:
        n0 = max(1, localization(spectra_list[0][primary]).n0)
    sum_branch = np.array([specs[primary].vals[:n0].sum() for specs in spectra_list])
    _, wrap_acc = _accelerated_at(formula, wrap, n, k, mode)
    return SweepResult(
        target=target,
        template=template,
        taus=taus,
        spectra=spectra_list,
        accelerated=acc,
        n_trusted=trust,
        sum_branch=sum_branch,
        n0=n0,
        basis_n=n,
        k_trunc=k,
        mode=mode,
        wrap_accelerated=wrap_acc,
    )


def _invert(sr: SweepResult, target: str) -> np.ndarray:
    """Fill ``sr.recovered`` and ``sr.recovered_wrap`` with ``target``'s values less their mean."""
    taus, p = np.append(sr.taus, 1.0), sr.template.p
    vals = np.append(sr.accelerated, sr.wrap_accelerated) / _TARGETS[target][1]
    if target == "Q":
        # IPQ's V(tau) holds p''(tau)/2 + p(tau)^2 beside Q(tau); p^2 has a mean
        vals = vals - p.derivative(2).scale(0.5).evaluate(taus) - p.evaluate(taus) ** 2
    vals -= np.mean(vals[:-1])
    if target == "q":
        vals += p.derivative(2).scale(0.5).evaluate(taus)
    sr.recovered, sr.recovered_wrap = np.column_stack([sr.taus, vals[:-1]]), float(vals[-1])
    return sr.recovered


def recover_V(sr: SweepResult) -> np.ndarray:
    """Pointwise V(tau) = q(tau) - p''(tau)/2 less its mean, from the sums alone."""
    if sr.target not in ("V", "q"):
        raise PreconditionError("recover_V needs a sweep with target 'V' or 'q'")
    return _invert(sr, "V")


def recover_q(sr: SweepResult) -> np.ndarray:
    """Pointwise q(tau) less its mean: V's values plus p''(tau)/2 of the template's p."""
    if sr.target not in ("V", "q"):
        raise PreconditionError("recover_q needs a sweep with target 'V' or 'q'")
    return _invert(sr, "q")


def recover_Q(sr: SweepResult) -> np.ndarray:
    """Pointwise Q(tau), or p(tau) for a second-order sweep, less its mean."""
    if sr.target not in ("Q", "p_second_order"):
        raise PreconditionError("recover_Q needs target 'Q' or 'p_second_order'")
    return _invert(sr, sr.target)


def fit_trig(values, max_harmonic: int) -> Coefficient:
    """Least-squares 1-periodic trigonometric fit of samples on the grid
    tau_j = j / G of a sweep, G = len(values).

    Returns a Coefficient carrying only even frequencies 2m, m up to
    ``max_harmonic``; needs G >= 2*max_harmonic + 1.  On that grid least
    squares is the truncated DFT F = rfft(values): u_0 = Re F_0 / G,
    u_2m = 2 Re F_m / G and w_2m-1 = -2 Im F_m / G.
    """
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
