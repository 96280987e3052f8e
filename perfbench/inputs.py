"""Seeded inputs for the sinespec benchmark.

Every input is a coefficient in the JSON form the library and the CLI
read, ``{"u": [...], "w": [...]}``.  Seeded coefficients follow the
rules of ``tests/conftest.py::coefficients``: amplitudes uniform in
[-2, 2], low degree, odd frequencies zeroed where an identity needs a
1-periodic coefficient, and a zero constant term where it needs a zero
mean.  Only ``random.Random`` is used, so a seed gives byte-identical
inputs on every machine and numpy version.

Each workload has a fixed reference part, identical for every seed, and
a seeded part.  The accuracy metrics are read from the reference part so
they repeat exactly across seeds; the seeded part keeps the timed work
from being tuned to one input and is checked just as strictly.
"""

from __future__ import annotations

import json
import math
import random

AMPLITUDE = 2.0
MAX_DEGREE = 4

COS1 = {"u": [0.0, 1.0], "w": []}
COS2 = {"u": [0.0, 0.0, 1.0], "w": []}
SIN2 = {"u": [0.0], "w": [0.0, 1.0]}
CONST1 = {"u": [1.0], "w": []}
COS1_PLUS_COS2 = {"u": [0.0, 1.0, 1.0], "w": []}
# q = p'' + p^2 for p = cos(2 pi x): the Sadovnichii comparison needs a perfect square
SADOVNICHII_Q = {"u": [0.5, 0.0, -4.0 * math.pi**2, 0.0, 0.5], "w": []}

# The 13 rows of scripts/run_trace_suite.py, copied so that editing the
# script cannot change the benchmark: (formula, {role: coefficient}, tau).
PANEL = [
    ("GLF", {"p": COS1}, 0.0),
    ("GLF", {"p": COS1_PLUS_COS2}, 0.0),
    ("S01", {"p": COS1}, 0.0),
    ("S01", {"p": COS2}, 0.0),
    ("TRF3", {"p": CONST1}, 0.0),
    ("TRF3", {"p": COS2}, 0.0),
    ("TRF3", {"p": COS2, "q": SIN2}, 0.0),
    ("TRS", {"q": COS2}, 0.0),
    ("TR3", {"Q": COS2}, 0.0),
    ("TR3", {"p": COS2, "Q": COS2}, 0.0),
    ("COR1", {"p": COS2, "Q": COS2}, 0.0),
    ("IPR1", {"p": COS2, "q": SIN2}, 0.25),
    ("IP2", {"p": COS2, "Q": SIN2}, 0.25),
]

# scripts/adjudicate_disputes.py: (variant, {role: coefficient}, expected verdict)
DISPUTES = [
    ("DikiiTrfD1", {"p": COS2}, "reference"),
    ("DikiiD2", {"p": COS2}, "indistinguishable"),
    ("SadovnichiiTrS", {"p": COS2, "q": SADOVNICHII_Q}, "reference"),
]

MODES = ("fourier", "richardson")

# Reference sweeps: scripts/run_recovery.py for q, its h^2+Q analogue for Q.
RECOVER_REFERENCE = {
    "recover_q": {"p": COS2, "q": SIN2},
    "recover_Q": {"p": COS2, "Q": SIN2},
}

# The README example files, by the role each CLI command reads them in.
CLI_REFERENCE = {
    "trf3_p": COS2,
    "trs_q": COS2,
    "spec_p": COS2,
    "spec_q": SIN2,
    "dikii_p": COS2,
    "asym_p": COS2,
    "asym_q": SIN2,
    "loc_p": COS2,
    "ipr1_p": COS2,
    "ipr1_q": SIN2,
}
CLI_REFERENCE_TAU = 0.25


def coefficient(rng: random.Random, periodic: bool = False, zero_mean: bool = False,
                cosine_only: bool = False) -> dict:
    """One coefficient drawn by the conftest rules."""
    deg = rng.randint(1, MAX_DEGREE)
    u = [rng.uniform(-AMPLITUDE, AMPLITUDE) for _ in range(deg + 1)]
    w = [rng.uniform(-AMPLITUDE, AMPLITUDE) for _ in range(deg)]
    if periodic:
        for j in range(1, deg + 1, 2):
            u[j] = 0.0
            w[j - 1] = 0.0
    if cosine_only:
        w = [0.0] * deg
    if zero_mean:
        # odd-frequency sines have mean 2/(pi j); the constant term cancels them
        u[0] = -sum(2.0 * w[j - 1] / (math.pi * j) for j in range(1, deg + 1, 2))
    return {"u": u, "w": w}


def _rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def verify_rows(seed: int, index: int) -> list:
    """Seeded verification rows for pass ``index``, one per formula family."""
    rng = _rng(seed, "verify_panel", index)
    return [
        ("GLF", {"p": coefficient(rng)}, 0.0),
        ("TRF3", {"p": coefficient(rng), "q": coefficient(rng, zero_mean=True)}, 0.0),
        ("TR3", {"p": coefficient(rng), "q": coefficient(rng, zero_mean=True),
                 "Q": coefficient(rng)}, 0.0),
        ("IPR1", {"p": coefficient(rng, periodic=True),
                  "q": coefficient(rng, periodic=True, zero_mean=True)}, rng.random()),
    ]


def sweep_truth(seed: int, index: int, workload: str) -> dict:
    """Seeded template of the shifted family for pass ``index``."""
    rng = _rng(seed, workload, index)
    target = "q" if workload == "recover_q" else "Q"
    return {
        "p": coefficient(rng, periodic=True),
        target: coefficient(rng, periodic=True, zero_mean=True),
    }


def cli_files(seed: int) -> tuple:
    """Seeded coefficient files for the CLI commands, by role, and the IPR1 shift."""
    rng = _rng(seed, "cli_calls", 0)
    return rng.random(), {
        "trf3_p": coefficient(rng),
        "trs_q": coefficient(rng, zero_mean=True),
        "spec_p": coefficient(rng),
        "spec_q": coefficient(rng),
        "dikii_p": coefficient(rng, zero_mean=True, cosine_only=True),
        "asym_p": coefficient(rng),
        "asym_q": coefficient(rng),
        "loc_p": coefficient(rng),
        "ipr1_p": coefficient(rng, periodic=True),
        "ipr1_q": coefficient(rng, periodic=True, zero_mean=True),
    }


def dumps(coeff: dict) -> str:
    """The bytes a coefficient file holds (floats written with repr, so exact)."""
    return json.dumps(coeff, sort_keys=True) + "\n"
