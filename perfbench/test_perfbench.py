"""Tests of the benchmark itself: percentile rule, span arithmetic, output
checks, seeded inputs, and BENCHMARK.json against what the runs report.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import pytest  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sinespec.coeffs import Coefficient  # noqa: E402


# -- percentile rule -----------------------------------------------------------


def test_tail_percentile_leaves_exactly_ten_samples_beyond():
    samples = list(range(100, 0, -1))
    pct, value = stats.tail_percentile(samples)
    assert value == 90
    assert sum(s > value for s in samples) == 10
    assert pct == 90.0


def test_tail_percentile_is_the_highest_such_percentile():
    samples = [float(i) for i in range(37)]
    pct, value = stats.tail_percentile(samples)
    assert sum(s > value for s in samples) == 10
    higher = sorted(samples)[sorted(samples).index(value) + 1]
    assert sum(s > higher for s in samples) == 9
    assert pct == pytest.approx(100.0 * 27 / 37)


def test_tail_percentile_falls_back_to_the_maximum():
    assert stats.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)
    # with 11 samples the rank leaving 10 beyond is the minimum: no tail
    assert stats.tail_percentile(list(range(11))) == (100.0, 10)
    assert stats.tail_percentile(list(range(19))) == (100.0, 18)
    assert stats.tail_percentile(list(range(20))) == (50.0, 9)


# -- span arithmetic -------------------------------------------------------------


def span(i, parent, name, layer, start, end, note=None):
    return [i, parent, name, layer, start, end, note]


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        span(0, None, "bench.pass", "bench", 0.0, 10.0),
        span(1, 0, "a.x", "traces", 1.0, 3.0),
        span(2, 0, "a.y", "traces", 2.0, 5.0),  # overlaps its sibling
        span(3, 0, "a.z", "traces", 9.0, 12.0),  # runs past its parent
        span(4, 1, "b.w", "linalg", 1.5, 2.5),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 1.0))
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_layer_metrics_split_a_spectrum_into_its_layers():
    key = "(OperatorSpec(kind='fourth_order'), 256)"
    note = {"key": key, "n_trusted": 200, "basis_n": 256, "err_sum_k": 1e-5}
    spans = [
        span(0, None, "bench.pass", "bench", 0.0, 1.0),
        span(1, 0, "traces.spectrum", "eigensolve", 0.1, 0.5, note),
        span(2, 1, "eigensolve.assemble_spec", "operators", 0.1, 0.15),
        span(3, 2, "operators.assemble_H", "operators", 0.11, 0.14),
        span(4, 1, "eigensolve.graded_eigvalsh", "linalg", 0.15, 0.2, {"n": 256}),
        span(5, 1, "eigensolve.graded_eigvalsh", "linalg", 0.2, 0.45, {"n": 512}),
        span(6, 0, "traces.spectrum", "eigensolve", 0.5, 0.6, dict(note)),
    ]
    m = tracing.layer_metrics(spans)
    assert m["linalg.eigvalsh_s.coarse"] == pytest.approx(0.05)
    assert m["linalg.eigvalsh_s.refine"] == pytest.approx(0.25)
    assert m["operators.assemble_s.H"] == pytest.approx(0.03)
    assert m["operators.assemble_calls"] == 1
    assert m["eigensolve.spectrum_calls"] == 2
    assert m["eigensolve.spectrum_repeat_share"] == 0.5
    assert m["eigensolve.trusted_share"] == pytest.approx(400 / 512)
    assert m["linalg.eig_gflop_computed"] == pytest.approx(4 / 3 * (256**3 + 512**3) / 1e9)
    total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert total == pytest.approx(1.0)


def test_tracer_wraps_and_restores_names():
    import sinespec.eigensolve as eigensolve
    from sinespec.operators import KIND_FOURTH_ORDER, OperatorSpec

    original = eigensolve.graded_eigvalsh
    tracer = tracing.Tracer()
    tracer.install()
    try:
        eigensolve.spectrum(OperatorSpec(KIND_FOURTH_ORDER, p=Coefficient.harmonic_cos(2)), 16)
    finally:
        tracer.uninstall()
    assert eigensolve.graded_eigvalsh is original
    assert tracer.missing == []
    sizes = sorted(s[tracing.NOTE]["n"] for s in tracer.spans
                   if s[tracing.NAME] == "eigensolve.graded_eigvalsh")
    assert sizes == [16, 32]


# -- wrong outputs fail the op; misses the library reports are counted apart ---


def test_gap_over_tolerance_is_a_miss_and_a_problem_on_reference_input():
    assert workloads.gap_outcome("x", "richardson", 5e-4, 1e-3, True) == (False, None)
    missed, problem = workloads.gap_outcome("x", "richardson", 2e-3, 1e-3, True)
    assert missed and problem
    # the documented fourier tail-model miss is a miss, and the run stays correct
    assert workloads.gap_outcome("x", "fourier", 1.16e-2, 1e-2, True) == (True, None)
    # seeded inputs miss without a problem
    assert workloads.gap_outcome("x", "richardson", 2e-3, 1e-3, False) == (True, None)
    missed, problem = workloads.gap_outcome("x", "richardson", math.nan, 1e-3, False)
    assert missed and problem


def test_wrong_verdict_is_a_problem():
    assert workloads.verdict_outcome("d", "reference", "reference") == (False, None)
    missed, problem = workloads.verdict_outcome("d", "variant", "reference")
    assert missed and problem


def test_recovery_over_bound():
    assert workloads.recovery_outcome("r", 1e-3, 2e-2, True) == (False, None)
    missed, problem = workloads.recovery_outcome("r", 3e-2, 2e-2, True)
    assert missed and problem
    assert workloads.recovery_outcome("r", 3e-2, 2e-2, False) == (True, None)


TRACE_EXPECTED = {"gap": 1.1628876624396156e-2, "tol": 1e-2, "mode": "fourier"}
TRACE_FAIL = "formula=TRF3 gap=0.011628876624396156 tol=0.01 FAIL\n"


def test_cli_trace_fail_matching_the_library_is_a_miss():
    missed, problem, ratio = workloads.cli_outcome("ref:trace TRF3", 1, TRACE_FAIL, TRACE_EXPECTED, True)
    assert missed and problem is None
    assert ratio == pytest.approx(1.1628876624396156)


def test_cli_unexpected_exit_code_is_a_problem():
    missed, problem, _ = workloads.cli_outcome("ref:trace TRF3", 0, TRACE_FAIL, TRACE_EXPECTED, True)
    assert missed and "exit 0" in problem
    missed, problem, _ = workloads.cli_outcome(
        "seed:spectrum", 2, "error: bad file\n", {"n_trusted": 256}, False)
    assert missed and "exit 2" in problem


def test_cli_disagreeing_with_the_library_is_a_problem():
    passing = "formula=TRF3 gap=0.0021 tol=0.01 PASS\n"
    missed, problem, _ = workloads.cli_outcome("ref:trace TRF3", 0, passing, TRACE_EXPECTED, True)
    assert missed and "library" in problem
    missed, problem, _ = workloads.cli_outcome(
        "ref:localize", 0, "n0=3 violations=0 horizon=256\n", {"n0": 4}, True)
    assert missed and problem


def test_cli_dispute_verdicts():
    line = "dispute=DikiiTrfD1 verdict={} computed=1\n"
    ok = workloads.cli_outcome("seed:dispute", 0, line.format("reference"), {"verdict": "reference"}, False)
    assert ok == (False, None, None)
    miss = workloads.cli_outcome("seed:dispute", 0, line.format("neither"), {"verdict": "neither"}, False)
    assert miss == (True, None, None)
    missed, problem, _ = workloads.cli_outcome(
        "seed:dispute", 0, line.format("variant"), {"verdict": "reference"}, False)
    assert missed and problem


def test_output_that_changes_between_passes_is_a_problem():
    op = workloads.Op("ref:spectrum", 0.4, fingerprint=("kind=fourth_order", b"1,2\n"))
    changed = workloads.Op("ref:spectrum", 0.4, fingerprint=("kind=fourth_order", b"1,3\n"))
    problems = []
    run.check_repeats([(1.0, [op], None), (1.0, [op], None)], problems)
    assert problems == []
    run.check_repeats([(1.0, [op], None), (1.0, [changed], None)], problems)
    assert len(problems) == 1


def test_tally_fails_ops_with_problems_and_counts_misses_apart():
    ok = workloads.Op("panel0 GLF fourier", 0.1)
    miss = workloads.Op("panel5 TRF3 fourier", 0.1, missed=True)
    wrong = workloads.Op("dispute DikiiD2", 0.1, missed=True, problem="dispute DikiiD2: verdict")
    problems = []
    failed, misses = run.tally([(1.0, [ok, miss, wrong], None), (1.0, [ok, miss], None)], problems)
    assert failed == 1
    assert misses == {"panel5 TRF3 fourier": 2}
    assert problems == ["dispute DikiiD2: verdict"]
    changed = workloads.Op("ref:spectrum", 0.4, fingerprint="a")
    again = workloads.Op("ref:spectrum", 0.4, fingerprint="b")
    problems = []
    assert run.tally([(1.0, [changed], None), (1.0, [again], None)], problems) == (1, {})
    assert len(problems) == 1


class FakeWorkload:
    def __init__(self, min_passes):
        self.min_passes = min_passes

    def prepare(self, index):
        return index

    def run(self, index, tracer=None):
        return [workloads.Op(f"op{index}", 0.0)]


def test_run_passes_holds_at_least_min_passes():
    assert len(run.run_passes(FakeWorkload(1), 0.0)) == 1
    assert len(run.run_passes(FakeWorkload(6), 0.0)) == 6


# -- seeded inputs -----------------------------------------------------------------


def all_inputs(seed):
    return "".join(
        [inputs.dumps(c) for _, roles, _ in inputs.verify_rows(seed, 3) for c in roles.values()]
        + [repr(tau) for _, _, tau in inputs.verify_rows(seed, 3)]
        + [inputs.dumps(c) for c in inputs.sweep_truth(seed, 2, "recover_q").values()]
        + [inputs.dumps(c) for c in inputs.sweep_truth(seed, 2, "recover_Q").values()]
        + [inputs.dumps(c) for c in inputs.cli_files(seed)[1].values()]
        + [repr(inputs.cli_files(seed)[0])]
    ).encode()


def test_same_seed_gives_byte_identical_inputs():
    assert all_inputs(7) == all_inputs(7)
    assert all_inputs(7) != all_inputs(8)
    assert inputs.verify_rows(7, 0) != inputs.verify_rows(7, 1)


@pytest.mark.parametrize("seed", range(20))
def test_seeded_inputs_meet_the_hypotheses(seed):
    tau, files = inputs.cli_files(seed)
    files = {role: Coefficient.from_dict(c) for role, c in files.items()}
    assert 0.0 <= tau < 1.0
    assert abs(files["trs_q"].functionals().mean) < 1e-12
    assert abs(files["ipr1_q"].functionals().mean) < 1e-12
    assert files["ipr1_p"].is_one_periodic() and files["ipr1_q"].is_one_periodic()
    assert not files["dikii_p"].w
    for _, roles, _ in inputs.verify_rows(seed, 0):
        for role, c in roles.items():
            assert max(map(abs, c["u"] + c["w"])) <= inputs.AMPLITUDE
    for name in ("recover_q", "recover_Q"):
        truth = {r: Coefficient.from_dict(c) for r, c in inputs.sweep_truth(seed, 0, name).items()}
        assert all(f.is_one_periodic() for f in truth.values())


# -- BENCHMARK.json ------------------------------------------------------------------


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["workloads"] and [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    reported = set(tracing.layer_metrics([])) | set(run.TRACE_KEYS)
    assert {m["name"] for m in spec["per_layer"]} == reported
    for m in spec["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])
