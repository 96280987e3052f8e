"""Code paths the library replaced by faster ones, kept as the tests' oracles.

Each function is the earlier implementation, step for step, so the tests
can hold the library to the same outputs bit for bit:

- ``square_spectrum``: ``spectrum`` as it assembled the whole 2n x 2n
  section and read its leading 2n x n columns and its diagonal;
- ``numpy_scalar_cumsum``: the Neumaier loop over numpy scalars;
- ``loop_localization``: the window and disc counts, one index at a time.
"""

import math

import numpy as np

from sinespec import assemble_spec, factored_eigvalsh, graded_eigvalsh
from sinespec.eigensolve import ROUNDING_C, TRUST_TOL_DEFAULT, factored_shift, trust_scale
from sinespec.operators import KIND_SQUARE_PLUS_Q

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
    vals = f if spec.kind == KIND_SQUARE_PLUS_Q else graded_eigvalsh(coarse)
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
