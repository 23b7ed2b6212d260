"""qslreach benchmark: drives the ``qslreach`` CLI in-process, closed loop.

    python3 perfbench/run.py --workload {verify,trajectory,reach-maps} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  One single-threaded process runs the workload's commands
(``workloads.py``) one after another, each starting when the previous one
has finished, in passes of identical commands until ``--seconds`` are
used (at least two passes).  Every pass must write byte-identical files.
The outputs are then checked against references the benchmark computes
itself (``checks.py``).

All timings are scaled to a reference host speed by a calibration kernel
timed between consecutive commands (``hostspeed.py``); the run record
shows the raw figures next to the scaled ones.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json:

* ``rows_per_s``: median over passes of data rows written per second of
  command time (one trial, one trajectory sample, or one grid point times
  one horizon);
* ``peak_rss_mb``: peak RSS of this process, which runs only the
  workload, read after the timed passes and before the checks;
* ``setup_s``: median over fresh interpreters of the time from spawning
  one to ``qslreach.cli`` imported and its parser built.

``--trace 1`` spends half of ``--seconds`` on untraced passes and then
runs as many traced passes, with spans recorded around the public
functions of ``cli``, ``reachset``, ``dynamics``, ``qsl``, ``models`` and
``linalg`` (``spans.py``).  It prints the per-layer metrics of
BENCHMARK.json, per traced pass, and writes the spans to
``perfbench/_out/``.

The lines before the last form the run record: machine, versions, commit
and load average; every command's argv, exit code and row count; pass
times; the checks; and, for ``reach-maps``, the degenerate probe.  The
probe runs once outside the timed passes and counts in ``fail_ratio``,
not in ``failed``.  The last line is the JSON result.  ``--size tiny``
shrinks every command, for the smoke test.
"""

from __future__ import annotations

import os

# One thread per process: set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib.metadata import version
from pathlib import Path

import checks
import hostspeed
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_RUNS = 7

SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import qslreach.cli\n"
    "qslreach.cli.build_parser()\n"
    "print(time.monotonic())\n"
)


def log(msg: str) -> None:
    print(f"# {msg}", flush=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def spawn_setup() -> float:
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip()) - t0


def measure_setup(clock) -> float:
    """Median scaled time from spawning an interpreter to the parser built.
    The first spawn only warms the file cache and writes bytecode."""
    spawn_setup()
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        elapsed, _, factor = clock.timed(spawn_setup)
        raw.append(elapsed)
        scaled.append(elapsed * factor)
    log("setup_s raw: " + " ".join(f"{t:.4f}" for t in raw))
    log("setup_s scaled: " + " ".join(f"{t:.4f}" for t in scaled))
    return statistics.median(scaled)


def machine_record() -> None:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    log(f"cores={os.cpu_count()} usable={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={version('numpy')} "
        f"scipy={version('scipy')} platform={platform.platform()}")
    log(f"commit={commit}")


class Runner:
    """Runs commands through ``cli.main`` and keeps their outcomes."""

    def __init__(self, cli, clock):
        self.cli = cli
        self.clock = clock
        self.tracer = None
        self.cmd_count = 0
        self.first_digests: list | None = None
        self.passes = 0
        self.attempted = 0
        self.fails: dict[int, int] = {}   # command index -> failed passes
        self.stderr: dict[int, str] = {}

    @property
    def failed(self) -> int:
        return sum(self.fails.values())

    def main(self, argv) -> tuple[int | None, str]:
        """``cli.main(argv)`` with its output captured: (exit code, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(argv))
        except Exception:  # a crash is a failed command, recorded by the caller
            rc = None
            err.write(traceback.format_exc())
        return rc, err.getvalue()

    def call(self, argv) -> tuple[int | None, str, float, float]:
        """Run one timed command: (exit code, stderr, wall s, scaled s)."""
        if self.tracer is not None:
            self.tracer.cmd_id = self.cmd_count
        self.cmd_count += 1
        (rc, err), wall, factor = self.clock.timed(self.main, argv)
        return rc, err, wall, wall * factor

    def run_pass(self, cmds) -> tuple[float, float, int]:
        """One pass over ``cmds``: (wall s, scaled s, rows written)."""
        self.passes += 1
        wall = scaled = 0.0
        rows = 0
        digests = []
        for i, cmd in enumerate(cmds):
            rc, err, w, s = self.call(cmd.argv)
            wall += w
            scaled += s
            ok = rc == 0
            rows += cmd.rows if ok else 0
            self.attempted += 1
            self.stderr[i] = err
            d = digest(cmd.out) if ok and os.path.exists(cmd.out) else None
            digests.append(d)
            if self.first_digests is None:
                log(f"cmd {i}: qslreach {' '.join(cmd.argv)}")
                log(f"cmd {i}: exit={rc} rows={cmd.rows}")
            elif d != self.first_digests[i]:
                log(f"cmd {i}: output differs from the first pass")
                ok = False
            if not ok:
                self.fails[i] = self.fails.get(i, 0) + 1
                log(f"cmd {i}: failed, stderr: {err.strip()[-400:]!r}")
        if self.first_digests is None:
            self.first_digests = digests
        return wall, scaled, rows


def timed_passes(runner: Runner, cmds, budget: float,
                 min_passes: int) -> list[tuple[float, float, int]]:
    """Run at least ``min_passes`` passes, then more while one more, at the
    mean pass length so far, fits in ``budget`` seconds."""
    passes = []
    t0 = time.perf_counter()
    while len(passes) < min_passes or (
        (time.perf_counter() - t0) * (len(passes) + 1) / len(passes) <= budget
    ):
        wall, scaled, rows = runner.run_pass(cmds)
        passes.append((wall, scaled, rows))
        log(f"pass {len(passes)}{' traced' if runner.tracer else ''}: wall={wall:.4f}s "
            f"scaled={scaled:.4f}s rows={rows} rows_per_s raw={rows / wall:.1f} "
            f"scaled={rows / scaled:.1f}")
    return passes


def run_checks(runner: Runner, cmds, seed: int) -> tuple[bool, float]:
    worst, ok = 0.0, True
    for i, cmd in enumerate(cmds):
        if i in runner.fails or not os.path.exists(cmd.out):
            ok = False
            continue
        rep = checks.check(cmd, runner.stderr.get(i, ""), seed)
        worst = max(worst, rep.max_dev)
        devs = " ".join(f"{k}={v:.3g}" for k, v in sorted(rep.devs.items()))
        log(f"check cmd {i}: {'FAILED' if rep.errors else 'ok'} {devs}")
        for e in rep.errors:
            log(f"check cmd {i}: {e}")
        if rep.errors:
            ok = False
            runner.fails[i] = runner.passes
    return ok, worst


def run_probe(runner: Runner, seed: int, workdir: str) -> bool:
    """Run the degenerate probe once; True when it failed."""
    probe = workloads.degenerate_probe(seed, workdir)
    rc, err = runner.main(probe.argv)
    log(f"probe: qslreach {' '.join(probe.argv)}")
    log(f"probe: exit={rc} expected=0 stderr={err.strip()[-200:]!r}")
    if rc != 0:
        log("probe: FAILED (known defect: the degenerate gate bound raises)")
        return True
    rep = checks.check(probe, err, seed)
    for e in rep.errors:
        log(f"probe: {e}")
    return bool(rep.errors)


def metric_table(mode: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[mode]}


def run(args, workdir: Path) -> tuple[dict, bool, Runner]:
    from qslreach import cli, dynamics, linalg, models, qsl, reachset

    clock = hostspeed.Clock()
    metrics: dict[str, float] = {}
    if not args.trace:
        metrics["setup_s"] = measure_setup(clock)
    runner = Runner(cli, clock)
    # Warm-up at the tiny size, untimed and uncounted, so that lazy
    # initialisation in numpy and the package is not timed.
    (workdir / "warm").mkdir()
    for cmd in workloads.commands(args.workload, args.seed, str(workdir / "warm"), "tiny"):
        runner.main(cmd.argv)
    cmds = workloads.commands(args.workload, args.seed, str(workdir), args.size)

    if args.trace:
        plain = timed_passes(runner, cmds, args.seconds / 2, 1)
        tracer = spans.Tracer()
        tracer.install({"cli": cli, "reachset": reachset, "dynamics": dynamics,
                        "qsl": qsl, "models": models, "linalg": linalg})
        runner.tracer = tracer
        try:
            traced = timed_passes(runner, cmds, 0.0, len(plain))
        finally:
            tracer.uninstall()
            runner.tracer = None
        metrics.update(spans.layer_metrics(tracer, len(traced)))
        metrics["trace.overhead"] = (
            statistics.median(s for _, s, _ in traced)
            / statistics.median(s for _, s, _ in plain) - 1.0
        )
        share = metrics["dynamics.integrate.busy_s"] / metrics["cli.main.busy_s"]
        log(f"traced share of cli.main busy time: dynamics.integrate={share:.3f}")
        span_file = OUT / f"spans-{args.workload}.npz"
        tracer.save(str(span_file))
        log(f"spans: {len(tracer.start)} written to {span_file.relative_to(ROOT)}")
    else:
        passes = timed_passes(runner, cmds, args.seconds, 2)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for label, col in (("raw", 0), ("scaled", 1)):
            q1, med, q3 = quartiles([p[2] / p[col] for p in passes])
            log(f"rows_per_s {label}: median={med:.2f} q1={q1:.2f} q3={q3:.2f} "
                f"passes={len(passes)}")
        metrics["rows_per_s"] = med
    log("host kernel s: median={:.5f} min={:.5f} max={:.5f} reference={}".format(
        statistics.median(clock.samples), min(clock.samples), max(clock.samples),
        hostspeed.REFERENCE_S))

    correct, worst = run_checks(runner, cmds, args.seed)
    probe_failed = 0
    if args.workload == "reach-maps":
        probe_failed = int(run_probe(runner, args.seed, str(workdir)))
    probes = int(args.workload == "reach-maps")
    fail_ratio = (runner.failed + probe_failed) / (runner.attempted + probes)
    log(f"fail_ratio = {fail_ratio:.6g} ratio ({runner.failed} of {runner.attempted} "
        f"commands failed; degenerate probe failed: {bool(probe_failed)})")
    log(f"ref_err_max = {worst:.6g} (largest deviation from the references)")
    metrics["fail_ratio"] = fail_ratio
    metrics["ref_err_max"] = worst
    return metrics, correct, runner


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    if not (SRC / "qslreach" / "cli.py").is_file():
        print(f"error: no qslreach sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qslreach

    if Path(qslreach.__file__).resolve().parent != SRC / "qslreach":
        print(f"error: imported qslreach from {qslreach.__file__}", file=sys.stderr)
        return 2

    log(f"qslreach benchmark workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    machine_record()
    log(f"loadavg start={os.getloadavg()}")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        metrics, correct, runner = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    log(f"loadavg end={os.getloadavg()}")

    table = metric_table("per_layer" if args.trace else "end_to_end")
    missing = set(table) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    for name, unit in table.items():
        log(f"{name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": bool(correct and runner.failed == 0),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": u} for n, u in table.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
