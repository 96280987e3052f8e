"""Hand-rolled dense symmetric eigensolvers, the test suite's oracles.

A Householder reduction with an implicit-shift QL iteration, and a cyclic
Jacobi solver.  They cross-check each other and the LAPACK route that
``sinespec.spectrum`` takes, and share no code with it.
"""

import math

import numpy as np

from sinespec import NumericError

_EPS = float(np.finfo(float).eps)


def _as_matrix(a) -> np.ndarray:
    m = np.array(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(m)):
        raise NumericError("matrix has non-finite entries")
    if not np.array_equal(m, m.T):
        raise ValueError("matrix must be symmetric")
    return m


def tridiagonalize(a):
    """Householder similarity reduction to symmetric tridiagonal form.

    Returns (diag, offdiag, basis_change) with
    basis_change @ T @ basis_change.T reconstructing the input.  Columns
    that are already in tridiagonal form are left untouched, so a
    tridiagonal input comes back unchanged with an identity basis change.
    """
    m = _as_matrix(a)
    n = m.shape[0]
    basis = np.eye(n)
    for k in range(n - 2):
        x = m[k + 1 :, k]
        if x.size < 2 or np.max(np.abs(x[1:]), initial=0.0) == 0.0:
            continue
        alpha = -math.copysign(np.linalg.norm(x), x[0] if x[0] != 0.0 else 1.0)
        v = x.copy()
        v[0] -= alpha
        v /= np.linalg.norm(v)
        block = m[k + 1 :, k + 1 :]
        y = block @ v
        z = 2.0 * (y - (v @ y) * v)
        block -= np.outer(v, z)
        block -= np.outer(z, v)
        m[k + 1, k] = alpha
        m[k + 2 :, k] = 0.0
        m[k, k + 1] = alpha
        m[k, k + 2 :] = 0.0
        basis[:, k + 1 :] -= 2.0 * np.outer(basis[:, k + 1 :] @ v, v)
    return np.diag(m).copy(), np.diag(m, 1).copy(), basis


def tridiag_eigenvalues(diag, offdiag, max_sweeps: int = 50):
    """All eigenvalues of a symmetric tridiagonal matrix, sorted ascending.

    Implicit-shift QL iteration with Wilkinson shifts; each eigenvalue
    converges to absolute accuracy on the order of eps * ||T||.
    """
    d = np.array(diag, dtype=float)
    n = d.size
    e_in = np.asarray(offdiag, dtype=float)
    if e_in.size != max(n - 1, 0):
        raise ValueError("offdiag must have length n - 1")
    if n == 0:
        return d
    e = np.zeros(n)
    e[: n - 1] = e_in
    for low in range(n):
        sweeps = 0
        while True:
            for m in range(low, n - 1):
                if abs(e[m]) <= _EPS * (abs(d[m]) + abs(d[m + 1])):
                    break
            else:
                m = n - 1
            if m == low:
                break
            sweeps += 1
            if sweeps > max_sweeps:
                raise NumericError(
                    f"QL iteration failed to converge within {max_sweeps} sweeps"
                )
            # Wilkinson shift from the leading 2x2
            g = (d[low + 1] - d[low]) / (2.0 * e[low])
            r = math.hypot(g, 1.0)
            g = d[m] - d[low] + e[low] / (g + math.copysign(r, g))
            s = 1.0
            c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, low - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            if underflow:
                continue
            d[low] -= p
            e[low] = g
            e[m] = 0.0
    return np.sort(d)


def jacobi_eigenvalues(a, size_cap: int = 128, max_sweeps: int = 50):
    """Cyclic Jacobi eigenvalues, sorted ascending.

    Independent oracle for the QL path; rotations run until the
    off-diagonal Frobenius mass falls below 1e-13 * ||A||_F.  Intended
    for modest sizes, hence the cap.
    """
    m = _as_matrix(a)
    n = m.shape[0]
    if n > size_cap:
        raise ValueError(f"jacobi solver capped at size {size_cap}")
    norm = np.linalg.norm(m)
    if norm == 0.0:
        return np.zeros(n)
    hollow = np.ones((n, n)) - np.eye(n)
    for _ in range(max_sweeps):
        off = np.linalg.norm(m * hollow)
        if off < 1e-13 * norm:
            return np.sort(np.diag(m))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p, q]
                if abs(apq) <= 1e-18 * (abs(m[p, p]) + abs(m[q, q])):
                    # negligible against the local diagonal; annihilate directly
                    m[p, q] = 0.0
                    m[q, p] = 0.0
                    continue
                theta = (m[q, q] - m[p, p]) / (2.0 * apq)
                if abs(theta) > 1e150:
                    t = 1.0 / (2.0 * theta)
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                col_p = m[:, p].copy()
                col_q = m[:, q].copy()
                m[:, p] = c * col_p - s * col_q
                m[:, q] = s * col_p + c * col_q
                row_p = m[p, :].copy()
                row_q = m[q, :].copy()
                m[p, :] = c * row_p - s * row_q
                m[q, :] = s * row_p + c * row_q
    raise NumericError(f"jacobi iteration failed to converge within {max_sweeps} sweeps")
