"""Code paths the library replaced by faster ones, kept as the tests' oracles.

Each function is the earlier implementation, step for step, so the tests
can hold the library to the same outputs bit for bit:

- ``square_spectrum``: ``spectrum`` as it assembled the whole 2n x 2n
  section and read its leading 2n x n columns and its diagonal;
- ``numpy_scalar_cumsum``: the Neumaier loop over numpy scalars;
- ``numpy_sum`` and ``numpy_scalar_product``: ``Coefficient`` addition as
  numpy array sums, and the product-to-sum loop over numpy scalars;
- ``loop_localization``: the window and disc counts, one index at a time;
- ``polyfit_rate``: the rate exponent of a ``TraceReport``, fitted by
  ``np.polyfit``;
- ``lstsq_fit_trig``: ``fit_trig`` by least squares over a design matrix
  of the grid's cosines and sines;
- ``_second_order_constant``: the 1/n^2 constant of the TRF3 summand from
  a Rayleigh-Schroedinger sum over the Galerkin entries, extrapolated from
  n = 128 and 256; it holds the second-order part of the closed form
  ``traces._tail_constant``, which adds the third-order part;
- ``hand_recover_V``, ``hand_recover_q``, ``hand_recover_Q``: the
  recoveries with the IPR1, IPQ and GLF right sides written out by hand,

      V(tau) = -2 S(tau) - (P - p0^2)/2                (fourth-order family)
      q(tau) = V(tau) + p''(tau)/2                     (known p)
      Q(tau) = -2 S(tau) - p''(tau)/2 - p(tau)^2       (squared family, known p)
      p(tau) = +2 S(tau)                               (second-order family, p0 = 0)

  each returning (values on the grid, value at the wrap point tau = 1).
"""

import functools
import math

import numpy as np

from sinespec import Coefficient, assemble_spec, big_P, build_V, factored_eigvalsh, graded_eigvalsh
from sinespec.eigensolve import ROUNDING_C, TRUST_TOL_DEFAULT, factored_shift, trust_scale
from sinespec.operators import KIND_SECOND_ORDER, fourth_order_entries

_ROWS = 32


def _square_truncation(fine, vals):
    n = vals.size
    diag = np.diagonal(fine)
    est = np.zeros(n)
    for lo in range(n, 2 * n, _ROWS):
        rows = fine[lo : lo + _ROWS, :n]
        est += (rows * rows / np.abs(diag[lo : lo + _ROWS, None] - vals)).sum(axis=0)
    return est


def square_spectrum(spec, n):
    """(vals, est_abs_err, n_trusted) from the square assembly at 2n."""
    fine = assemble_spec(spec, 2 * n)
    coarse = fine[:n, :n]
    sigma = factored_shift(spec)
    f = factored_eigvalsh(coarse, sigma)
    vals = graded_eigvalsh(coarse) if spec.kind == KIND_SECOND_ORDER else f
    est = np.abs(vals - f) + ROUNDING_C * np.finfo(float).eps * (np.abs(f) + sigma)
    est += _square_truncation(fine, vals)
    ok = est <= TRUST_TOL_DEFAULT * trust_scale(spec.kind, np.arange(1, n + 1))
    n_trusted = n if bool(ok.all()) else int(np.argmin(ok))
    return vals, est, n_trusted


def numpy_scalar_cumsum(terms):
    """Prefix sums with Neumaier compensation, one numpy scalar at a time."""
    terms = np.asarray(terms, dtype=float)
    out = np.empty(terms.size)
    s = 0.0
    c = 0.0
    for i, x in enumerate(terms):
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
        out[i] = s + c
    return out


def numpy_sum(f, g):
    """f + g, the amplitude arrays summed by numpy."""
    deg = max(f.degree, g.degree)
    u = np.zeros(deg + 1)
    w = np.zeros(deg + 1)
    for c in (f, g):
        ua, wa = c._aligned()
        u[: ua.size] += ua
        w[: wa.size] += wa
    return Coefficient(u=tuple(u), w=tuple(w[1:]))


def numpy_scalar_product(f, g):
    """f * g by the product-to-sum identities, one numpy scalar at a time."""
    fu, fw = f._aligned()
    gu, gw = g._aligned()
    deg = f.degree + g.degree
    u = np.zeros(deg + 1)
    w = np.zeros(deg + 1)
    for j in range(fu.size):
        for k in range(gu.size):
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
    return Coefficient(u=tuple(u), w=tuple(w[1:]))


def loop_localization(vals, horizon):
    """(n0, violations, disc_count) of the first ``horizon`` sorted values."""
    vals = np.asarray(vals[:horizon])
    roots = np.where(vals >= 0.0, np.abs(vals) ** 0.25, np.nan)
    counts = np.zeros(horizon + 1, dtype=int)
    for n in range(1, horizon + 1):
        lo, hi = np.pi * n - np.pi / 4.0, np.pi * n + np.pi / 4.0
        counts[n] = int(np.sum((roots > lo) & (roots < hi)))
    bad = [n for n in range(1, horizon + 1) if counts[n] != 1]
    start = max(bad, default=0)
    for n0 in range(start, horizon + 1):
        disc = int(np.sum(np.abs(vals) < math.pi**4 * (n0 + 0.5) ** 4))
        if disc == n0:
            return n0, tuple((n, int(counts[n])) for n in bad if n > n0), disc
    disc = int(np.sum(np.abs(vals) < math.pi**4 * (horizon + 0.5) ** 4))
    return horizon, tuple((n, int(counts[n])) for n in bad), disc


def polyfit_rate(partial, accelerated, k):
    """Slope of log |S_n - accelerated| against log n over n >= max(4, k // 4),
    residuals above the rounding floor only; NaN below three points."""
    ks = np.arange(1, k + 1, dtype=float)
    resid = np.abs(partial[:k] - accelerated)
    lo = max(4, k // 4)
    mask = (ks >= lo) & (resid > 1e-13 * (1.0 + abs(accelerated)))
    if int(mask.sum()) < 3:
        return float("nan")
    slope = np.polyfit(np.log(ks[mask]), np.log(resid[mask]), 1)[0]
    return float(slope)


@functools.lru_cache(maxsize=256)
def _second_order_constant(p: Coefficient, q: Coefficient) -> float:
    """C in the TRF3 summand law -c_2n(V) + C/n^2, from the Galerkin entries.

    The constant parts of p and q are diagonal in the sine basis, so they
    go into the unperturbed operator, with eigenvalues d_m = (pi m)^4 -
    2 p0 (pi m)^2 + q0; the summand's counterterms remove them.  The
    mean-free rest couples mode n to the modes m <= 8n through the
    assemble_H entries E_mn: first order adds E_nn, second order the sum
    of E_mn^2 / (d_n - d_m).  n^2 times what this leaves of the n-th
    summand, once -c_2n(V) is taken off, is C + O(1/n^2); it is evaluated
    at n = 128 and 256 and extrapolated.  For cosine-only p and q, C equals
    -(3 int p'^2 + 4 int (p - p0) (q - p0 (p - p0))) / (8 pi^2); sine
    amplitudes change C in ways this closed form does not follow.
    Third-order terms, which also scale as 1/n^2, are not included.  For a
    constant p the q couplings leave only O(1/n^4), so C is exactly zero.
    The mean of q does not enter.  Memoized by value, like ``spectrum``.
    """
    if p.is_constant():
        return 0.0
    # built once for n = 256: cosine tables are prefix-stable, so n = 128
    # reads their leading part
    cp, cq = p.cosine_coeffs(9 * 256), q.cosine_coeffs(9 * 256)
    cv = build_V(p, q).cosine_coeffs(2 * 256)
    p0 = cp[0]
    # P - p0^2 taken as P of p - p0, where no cancellation can occur
    half_p = 0.5 * big_P(p - Coefficient.constant(p0))
    cp[0] = cq[0] = 0.0
    residual = {}
    for n in (128, 256):
        m = np.arange(1, 8 * n + 1)
        near, far = np.abs(m - n), m + n
        row = fourth_order_entries((cp[near], cp[far]), (cq[near], cq[far]), m, n)
        # d_n - d_m in factored form: the difference of quartics would cancel
        gaps = np.pi**2 * (n * n - m * m) * (np.pi**2 * (n * n + m * m) - 2.0 * p0)
        off = m != n
        second = np.sum(row[off] ** 2 / gaps[off])
        residual[n] = n * n * (row[n - 1] + half_p + cv[2 * n] + second)
    return float((4.0 * residual[256] - residual[128]) / 3.0)


def hand_recover_V(sr):
    fp = sr.template.p.functionals()
    p0, big = fp.mean, sr.template.p.l2sq()
    vals = -2.0 * sr.accelerated - 0.5 * (big - p0 * p0)
    wrap = float(-2.0 * sr.wrap_accelerated - 0.5 * (big - p0 * p0))
    return vals, wrap


def hand_recover_q(sr):
    vals, wrap = hand_recover_V(sr)
    half_second = sr.template.p.derivative(2).scale(0.5)
    return vals + half_second.evaluate(sr.taus), wrap + half_second.evaluate(1.0)


def hand_recover_Q(sr):
    sums = np.append(sr.accelerated, sr.wrap_accelerated)
    if sr.template.kind == KIND_SECOND_ORDER:
        vals = 2.0 * sums
    else:
        p, taus = sr.template.p, np.append(sr.taus, 1.0)
        vals = -2.0 * sums - p.derivative(2).scale(0.5).evaluate(taus) - p.evaluate(taus) ** 2
    return vals[:-1], float(vals[-1])


def lstsq_fit_trig(taus, values, max_harmonic):
    """``fit_trig`` by ``np.linalg.lstsq`` over a cosine-sine design matrix."""
    taus = np.asarray(taus, dtype=float)
    cols = [np.ones_like(taus)]
    for m in range(1, max_harmonic + 1):
        cols.append(np.cos(2.0 * np.pi * m * taus))
        cols.append(np.sin(2.0 * np.pi * m * taus))
    coef, *_ = np.linalg.lstsq(np.column_stack(cols), values, rcond=None)
    u = np.zeros(2 * max_harmonic + 1)
    w = np.zeros(2 * max_harmonic)
    u[0] = coef[0]
    for m in range(1, max_harmonic + 1):
        u[2 * m] = coef[2 * m - 1]
        w[2 * m - 1] = coef[2 * m]
    return Coefficient(u=tuple(u), w=tuple(w))
