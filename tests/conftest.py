import os

# Eigenvalue bits depend on the BLAS thread count: fix it at one, as the
# benchmark does, before numpy loads, so the suite reads the benchmark's bits.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hypothesis.strategies as st  # noqa: E402
import numpy as np  # noqa: E402
from hypothesis import HealthCheck, settings  # noqa: E402

from sinespec import Coefficient, CoefficientSet, OperatorSpec  # noqa: E402

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

amplitudes = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False, width=64)


@st.composite
def coefficients(draw, max_degree=6, periodic=False):
    deg = draw(st.integers(0, max_degree))
    u = [draw(amplitudes) for _ in range(deg + 1)]
    w = [draw(amplitudes) for _ in range(deg)]
    if periodic:
        for j in range(1, deg + 1, 2):
            u[j] = 0.0
            w[j - 1] = 0.0
    return Coefficient(u=tuple(u), w=tuple(w))


def shifted_spec(kind, tau, **coeffs):
    """The operator of ``kind`` on the coefficients shifted by tau."""
    cs = CoefficientSet(**coeffs).shifted(tau)
    return OperatorSpec(kind, p=cs.p, q=cs.q, Q=cs.Q)


def simpson_integral(values, h):
    """Composite Simpson on an odd-length uniform grid."""
    n = values.size
    assert n % 2 == 1
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(weights @ values * h / 3.0)


def random_symmetric(rng, n, scale=1.0):
    m = rng.standard_normal((n, n)) * scale
    return m + m.T
