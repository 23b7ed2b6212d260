"""Smoke test of the benchmark at the tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each mode prints every metric named in BENCHMARK.json with its
unit, that a corrupted output row fails the checks, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from qslreach import cli  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_printed_with_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                 "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = spec["per_layer" if trace == "1" else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in names
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    for m in names:
        assert f"# {m['name']} = " in proc.stdout


def run_tiny(workload: str, tmp_path: Path) -> list[tuple[workloads.Command, str]]:
    """Run a workload's tiny commands once: (command, its stderr) pairs."""
    out = []
    for cmd in workloads.commands(workload, 7, str(tmp_path), "tiny"):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            assert cli.main(list(cmd.argv)) == 0
        out.append((cmd, err.getvalue()))
    return out


def corrupt_row(path: str, row: int) -> None:
    """Perturb the last field of one data row by one part in 1e4."""
    lines = Path(path).read_text().splitlines(keepends=True)
    data = [i for i, ln in enumerate(lines) if not ln.startswith("#")][1:]
    i = data[row]
    head, last = lines[i].rstrip("\n").rsplit(",", 1)
    lines[i] = f"{head},{float(last) * 1.0001 + 1e-4:.9g}\n"
    Path(path).write_text("".join(lines))


@pytest.mark.parametrize("workload,index,column", [
    ("verify", 0, "margin"),
    ("reach-maps", 0, "lambda_max"),
    ("reach-maps", 1, "lambda_max"),
])
def test_corrupted_row_fails_checks(workload, index, column, tmp_path):
    cmd, stderr = run_tiny(workload, tmp_path)[index]
    assert checks.check(cmd, stderr, 7).errors == []
    corrupt_row(cmd.out, 3)
    assert checks.check(cmd, stderr, 7).errors, f"corrupted {column} passed the checks"


def test_corrupted_trajectory_fidelity_fails_checks(tmp_path):
    cmd, stderr = run_tiny("trajectory", tmp_path)[0]
    assert checks.check(cmd, stderr, 7).errors == []
    lines = Path(cmd.out).read_text().splitlines(keepends=True)
    t, theta, fid, terr = lines[-1].rstrip("\n").split(",")
    lines[-1] = f"{t},{theta},{float(fid) - 1e-5:.9g},{terr}\n"
    Path(cmd.out).write_text("".join(lines))
    assert checks.check(cmd, stderr, 7).errors


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = bench("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
