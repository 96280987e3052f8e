"""sinespec benchmark: one command runs a workload, checks every output and
prints every metric by name and unit.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify_panel, recover_q, recover_Q, cli_calls (see README.md).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` measures
untraced passes for half the time and traced passes for the other half,
and reports the per-layer metrics.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
line before it, starting ``detail``, holds the rest: percentile and
sample counts, misses, problems, machine facts.

The program is the ``sinespec`` package under ``src/`` of the checkout;
the benchmark exits with status 2 and prints no result where it is
missing.
"""

import os

# Fixed before numpy loads, here and in every process the benchmark starts:
# eigenvalue bits depend on the BLAS thread count.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import stats  # noqa: E402
from tracing import END, START, Tracer, layer_metrics  # noqa: E402

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "worst_gap_ratio": "ratio",
    "recovery_err": "abs",
    "peak_rss_mb": "MB",
}


# per-layer metrics the run adds to tracing.layer_metrics
TRACE_KEYS = ("trace.pass_s", "trace.untraced_pass_s", "trace.overhead_s")


def per_layer_unit(name):
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_share"):
        return "share"
    return {
        "linalg.eig_gflop_computed": "gflop",
        "linalg.eig_gflops": "gflop/s",
        "linalg.matrix_mb_computed": "MB",
        "eigensolve.err_sum_K": "abs",
    }.get(name, "count")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def machine():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
    }


def measure_setup(workloads, name, seed, env):
    """Median over fresh processes of imports + input generation + warm-up."""
    samples = []
    for i in range(SETUP_PROBES):
        probe_dir = WORK / f"setup-{os.getpid()}-{i}"
        probe_dir.mkdir(parents=True)
        argv = [sys.executable, str(PERFBENCH / "setup_probe.py"), name, str(seed), str(probe_dir)]
        _, rc, out, _ = workloads.run_child(argv, probe_dir, env)
        shutil.rmtree(probe_dir)
        if rc != 0:
            raise RuntimeError(f"set-up probe exited {rc}")
        samples.append(float(out.strip().splitlines()[-1]))
    return samples


def run_passes(wl, seconds, tracer=None):
    """Closed loop: start passes until ``seconds`` have gone by and the
    workload's ``min_passes`` are done.

    Returns [(pass seconds, ops, spans of the pass)].
    """
    passes = []
    deadline = time.perf_counter() + seconds
    index = 0
    while len(passes) < wl.min_passes or time.perf_counter() < deadline:
        inputs = wl.prepare(index)
        if tracer is None:
            t0 = time.perf_counter()
            ops = wl.run(inputs)
            passes.append((time.perf_counter() - t0, ops, None))
        else:
            first = len(tracer.spans)
            with tracer.span("bench.pass", "bench") as rec:
                ops = wl.run(inputs, tracer)
            passes.append((rec[END] - rec[START], ops, tracer.spans[first:]))
        index += 1
    return passes


def check_repeats(passes, problems):
    """Outputs on unchanged inputs must repeat bit for bit across passes."""
    first = {}
    for _, ops, _ in passes:
        for op in ops:
            if op.fingerprint is None:
                continue
            if first.setdefault(op.name, op.fingerprint) != op.fingerprint:
                problems.append(f"{op.name}: output changed between passes on the same input")


def tally(passes, problems):
    """Failed ops and misses by name; appends every problem to ``problems``.

    An op fails when it has a problem, and so does an output that changed
    between passes.  A miss the library reports on its own is counted
    apart: it is a result, not a failure of the call.
    """
    check_repeats(passes, problems)
    ops = [op for _, p, _ in passes for op in p]
    failed = len(problems) + sum(1 for op in ops if op.problem)
    problems += [op.problem for op in ops if op.problem]
    misses = {}
    for op in ops:
        if op.missed and not op.problem:
            misses[op.name] = misses.get(op.name, 0) + 1
    return failed, misses


def end_to_end(passes, setup_samples, peak_rss_kb):
    ops = [op for _, p, _ in passes for op in p]
    latencies = [op.seconds for op in ops]
    pct, tail = stats.tail_percentile(latencies)
    reference = [op for op in passes[0][1] if op.reference]
    values = {
        "setup_s": stats.median(setup_samples),
        "pass_s": stats.median([t for t, _, _ in passes]),
        "op_p50_ms": 1e3 * stats.median(latencies),
        "op_tail_ms": 1e3 * tail,
        "worst_gap_ratio": max(op.gap_ratio for op in reference if op.gap_ratio is not None),
        "recovery_err": max(op.recovery_err for op in reference if op.recovery_err is not None),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    detail = {"op_tail_percentile": pct, "op_samples": len(latencies),
              "setup_samples_s": setup_samples, "pass_samples_s": [t for t, _, _ in passes]}
    return values, detail


def per_layer(untraced, traced):
    per_pass = [layer_metrics(spans) for _, _, spans in traced]
    values = {k: sum(m[k] for m in per_pass) / len(per_pass) for k in per_pass[0]}
    plain = stats.median([t for t, _, _ in untraced])
    with_trace = stats.median([t for t, _, _ in traced])
    values["trace.pass_s"] = with_trace
    values["trace.untraced_pass_s"] = plain
    values["trace.overhead_s"] = with_trace - plain
    return values


def baseline_accuracy(name):
    path = PERFBENCH / "baseline.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get("accuracy", {}).get(name)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sinespec" / "__init__.py").is_file():
        print(f"error: no sinespec package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sinespec

    if Path(sinespec.__file__).resolve().parent != SRC / "sinespec":
        print(f"error: imported sinespec from {sinespec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    env = child_env()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if not args.trace:
            setup_samples = measure_setup(workloads, args.workload, args.seed, env)
        wl = workloads.make(args.workload, args.seed, workdir, env)
        workloads.warm_up(wl.kinds)
        problems = []
        if args.trace:
            untraced = run_passes(wl, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_passes(wl, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            passes = untraced + traced
            metrics = per_layer(untraced, traced)
            units = {k: per_layer_unit(k) for k in metrics}
            spans_file = WORK / f"spans-{args.workload}-{args.seed}.json"
            spans_file.write_text(json.dumps(tracer.spans), encoding="utf-8")
            detail = {"spans_file": str(spans_file.relative_to(ROOT)),
                      "traced_passes": len(traced), "untraced_passes": len(untraced)}
            if tracer.missing:
                detail["tracer_missing"] = tracer.missing
        else:
            passes = run_passes(wl, args.seconds)
            rss = (wl.peak_rss_kb if args.workload == "cli_calls"
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            metrics, detail = end_to_end(passes, setup_samples, rss)
            units = END_TO_END_UNITS
            recorded = baseline_accuracy(args.workload)
            if recorded is not None:
                detail["accuracy_matches_baseline"] = all(
                    metrics[k] == recorded[k] for k in ("worst_gap_ratio", "recovery_err"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for _, p, _ in passes for op in p]
    failed, misses = tally(passes, problems)
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "miss_share": sum(misses.values()) / len(ops),
        "misses": misses,
        "problems": problems[:20],
        "machine": machine(),
    })
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
