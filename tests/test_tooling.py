"""The README command lines and the experiment scripts stay runnable."""

import argparse
import importlib.util
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sinespec.cli import build_parser
from sinespec.traces import FormulaId

ROOT = Path(__file__).resolve().parents[1]


def readme_command_lines():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("sinespec ")]


def test_readme_has_a_line_per_command():
    commands = {shlex.split(line)[1] for line in readme_command_lines()}
    assert commands == {"spectrum", "trace", "dispute", "asym", "localize", "sweep"}


@pytest.mark.parametrize("line", readme_command_lines())
def test_readme_command_line_parses(line):
    build_parser().parse_args(shlex.split(line)[1:])


def readme_option_table():
    """{command: [option, ...]} from the README table of the options each command takes."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("Each command takes only the options it reads:", 1)[1].split("\n\n")[1]
    rows = {}
    for line in table.splitlines():
        command, options = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
        if command not in ("command", "") and not command.startswith("-"):
            rows[command] = options.split()
    return rows


def test_readme_option_table_matches_the_parser():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: [flag for a in sub._actions if not isinstance(a, argparse._HelpAction)
               for flag in a.option_strings]
        for name, sub in subparsers.choices.items()
    }
    assert readme_option_table() == parsed


def readme_formula_ids():
    """The id of each row of the README "Formula ids" table, in order."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("### Formula ids", 1)[1].split("\n\n")[1]
    ids = [line.strip("|").split("|")[0].strip() for line in table.splitlines()]
    return [i for i in ids if i != "id" and not i.startswith("-")]


def test_readme_formula_table_has_a_row_per_formula_id():
    assert readme_formula_ids() == [f.value for f in FormulaId]


def run_script(name, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_trace_suite_script_verifies_the_panel():
    proc = run_script("run_trace_suite.py", "-N", "64", "-K", "16", "--mode", "richardson")
    assert proc.returncode == 0, proc.stderr
    assert "13/13 identities verified" in proc.stdout


def test_adjudicate_disputes_script():
    proc = run_script("adjudicate_disputes.py")
    assert proc.returncode == 0, proc.stderr
    verdicts = re.findall(r"verdict\s+: (\w+)", proc.stdout)
    assert verdicts == ["reference", "indistinguishable", "reference"]


def test_recovery_script_writes_csv(tmp_path):
    out = tmp_path / "rec.csv"
    proc = run_script("run_recovery.py", "--grid", "4", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "tau,recovered_q,true_q,abs_error"
    assert len(rows) == 5


# Names the benchmark's tracer still lists although the package dropped them
# on purpose; each goes once perfbench/tracing.py stops naming it.
STALE_TRACER_NAMES = {"sinespec.operators.graded_eigh", "sinespec.traces.compensated_cumsum"}


def test_tracer_names_resolve():
    # every name perfbench/tracing.py wraps must exist where it looks for it,
    # or the matching per-layer metric silently reads 0; sinespec.cli, imported
    # above, loads every module the tracer wraps
    path = ROOT / "perfbench" / "tracing.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(tracing)
    missing = []
    for module_name, attr in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{attr}")
    assert set(missing) <= STALE_TRACER_NAMES


def test_every_exported_name_resolves():
    # a name left in an __all__ after its definition went breaks
    # ``from sinespec import *`` and the documented API alike
    import sinespec

    modules = [sinespec] + [importlib.import_module(f"sinespec.{info.name}")
                            for info in pkgutil.iter_modules(sinespec.__path__)]
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []
