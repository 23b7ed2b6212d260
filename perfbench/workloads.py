"""Seeded command lists for the three benchmark workloads.

Every argument a command receives is generated here from the benchmark
seed, so the program sees only generated inputs and the same seed gives
the same commands.  Each command carries the number of data rows it
should write: one trial (``verify``), one trajectory sample
(``trajectory``), or one grid point times one horizon (``reach-maps``).

Why these workloads:

* ``verify`` is the acceptance-1 configuration (dims 2, 3, 4, T = 0.5,
  dt = 1e-3): many short integrations where only the final angle matters.
  Nearly all of its time is in ``dynamics.integrate``.
* ``trajectory`` is one long integration per command, each of whose
  ~50k states is kept, health-checked and written, once as CSV and once
  as JSON.  Batching across trials should not move it; state storage and
  the writers should.
* ``reach-maps`` runs large grids with no integration at all: the
  ``lambda_max`` inversion, the gate bounds, record building and the row
  writers.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

BELL_LABELS = ("phi-plus", "phi-minus", "psi-plus", "psi-minus")
WORKLOADS = ("verify", "trajectory", "reach-maps")

#: Problem sizes.  ``full`` is what the benchmark measures; ``tiny`` is the
#: smoke-test size and the warm-up before timing.
SIZES = {
    "full": {"trials": 5, "traj_T": 15.0, "sweep": 5000, "bell": 1250, "gate": 150},
    "tiny": {"trials": 2, "traj_T": 0.05, "sweep": 40, "bell": 20, "gate": 12},
}
DT = 1e-3
VERIFY_DIMS = (2, 3, 4)
VERIFY_T = 0.5


@dataclass
class Command:
    """One CLI invocation and what the checks need to know about it."""

    kind: str            # check routine: verify, traj-csv, traj-json, sweep, bell, gate
    argv: list[str]
    out: str
    rows: int
    params: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _steps(T: float, dt: float) -> int:
    return round(T / dt)


def _horizons(rng: random.Random) -> tuple[float, ...]:
    return (
        round(rng.uniform(0.28, 0.32), 4),
        round(rng.uniform(0.47, 0.53), 4),
        round(rng.uniform(0.75, 0.85), 4),
    )


def verify_commands(seed: int, workdir: str, size: str) -> list[Command]:
    n = SIZES[size]["trials"]
    out = os.path.join(workdir, "verify.csv")
    argv = ["verify", "--seed", str(seed), "--trials", str(n),
            "--dims", ",".join(map(str, VERIFY_DIMS)), "--T", str(VERIFY_T),
            "--dt", str(DT), "--out", out]
    params = {"seed": seed, "trials": n, "dims": VERIFY_DIMS, "T": VERIFY_T, "dt": DT}
    return [Command("verify", argv, out, n * len(VERIFY_DIMS), params)]


def trajectory_commands(seed: int, workdir: str, size: str) -> list[Command]:
    rng = random.Random(seed)
    T = SIZES[size]["traj_T"]
    label = rng.choice(BELL_LABELS)
    gb = round(rng.uniform(0.05, 1.0), 6)
    theta = round(rng.uniform(0.0, 3.14), 6)
    phi = round(rng.uniform(0.0, 3.14), 6)
    gq = round(rng.uniform(0.05, 1.0), 6)
    rows = _steps(T, DT) + 1
    bell_out = os.path.join(workdir, "bell.csv")
    qubit_out = os.path.join(workdir, "qubit.json")
    return [
        Command(
            "traj-csv",
            ["simulate", "--model", "bell", "--state", label, "--gamma", _fmt(gb),
             "--T", str(T), "--dt", str(DT), "--out", bell_out],
            bell_out, rows,
            {"model": "bell", "state": label, "gamma": gb, "T": T, "dt": DT},
        ),
        Command(
            "traj-json",
            ["simulate", "--model", "qubit", "--theta", _fmt(theta), "--phi", _fmt(phi),
             "--gamma", _fmt(gq), "--omega", "1", "--T", str(T), "--dt", str(DT),
             "--format", "json", "--out", qubit_out],
            qubit_out, rows,
            {"model": "qubit", "theta": theta, "phi": phi, "gamma": gq, "omega": 1.0,
             "T": T, "dt": DT},
        ),
    ]


def reach_map_commands(seed: int, workdir: str, size: str) -> list[Command]:
    # Narrow ranges keep the share of inversions capped at lambda = 1, and
    # so the work per row, about the same from seed to seed.
    rng = random.Random(seed)
    sz = SIZES[size]
    gamma = round(rng.uniform(0.3, 0.6), 6)
    omega = round(rng.uniform(0.8, 1.2), 6)
    theta = round(rng.uniform(0.1, 0.7), 6)
    u_max = round(rng.uniform(0.5, 1.5), 6)
    hs = _horizons(rng)
    bell_T = round(rng.uniform(0.45, 0.55), 4)
    hs_arg = ",".join(map(str, hs))
    n_sweep, n_bell, n_gate = sz["sweep"], sz["bell"], sz["gate"]
    paths = {k: os.path.join(workdir, k) for k in
             ("sweep.csv", "bell.csv", "qutrit.csv", "qubit.json")}
    gate_axes = ["--alpha-min", "0", "--alpha-max", "2pi", "--beta-min", "0",
                 "--beta-max", "pi"]
    return [
        Command(
            "sweep",
            ["sweep-lambda", "--gamma", _fmt(gamma), "--omega", _fmt(omega),
             "--theta-min", "0", "--theta-max", "0.5pi", "--points", str(n_sweep),
             "--horizons", hs_arg, "--out", paths["sweep.csv"]],
            paths["sweep.csv"], n_sweep * len(hs),
            {"gamma": gamma, "omega": omega, "points": n_sweep, "horizons": hs},
        ),
        Command(
            "bell",
            ["bell-sweep", "--gamma-min", "0.01", "--gamma-max", _fmt(4 * gamma),
             "--points", str(n_bell), "--T", str(bell_T), "--out", paths["bell.csv"]],
            paths["bell.csv"], n_bell * len(BELL_LABELS),
            {"gamma_min": 0.01, "gamma_max": float(_fmt(4 * gamma)), "points": n_bell,
             "T": bell_T},
        ),
        Command(
            "gate",
            ["gate-map", "--model", "qutrit", "--omega", _fmt(omega), "--u-max", _fmt(u_max),
             "--points", str(n_gate), *gate_axes, "--horizons", hs_arg,
             "--out", paths["qutrit.csv"]],
            paths["qutrit.csv"], n_gate * n_gate * len(hs),
            {"model": "qutrit", "omega": omega, "u_max": u_max, "points": n_gate,
             "horizons": hs, "format": "csv"},
        ),
        Command(
            "gate",
            ["gate-map", "--model", "qubit", "--theta", _fmt(theta), "--omega", _fmt(omega),
             "--u-max", _fmt(u_max), "--points", str(n_gate), *gate_axes,
             "--horizons", hs_arg, "--format", "json", "--out", paths["qubit.json"]],
            paths["qubit.json"], n_gate * n_gate * len(hs),
            {"model": "qubit", "theta": theta, "omega": omega, "u_max": u_max,
             "points": n_gate, "horizons": hs, "format": "json"},
        ),
    ]


def degenerate_probe(seed: int, workdir: str) -> Command:
    """``gate-map --theta 0.25pi --u-max 0``: both drive terms of the qubit
    gate bound vanish.  The documented convention is T* = inf, or 0 for
    the identity gate; the seed commit exits 2 instead (a known defect)."""
    rng = random.Random(seed)
    omega = round(rng.uniform(0.5, 2.0), 6)
    hs = _horizons(rng)
    out = os.path.join(workdir, "probe.csv")
    n = 12
    argv = ["gate-map", "--model", "qubit", "--theta", "0.25pi", "--omega", _fmt(omega),
            "--u-max", "0", "--points", str(n), "--alpha-min", "0", "--alpha-max", "2pi",
            "--beta-min", "0", "--beta-max", "pi", "--horizons", ",".join(map(str, hs)),
            "--out", out]
    params = {"model": "qubit", "theta": math.pi / 4, "omega": omega, "u_max": 0.0,
              "points": n, "horizons": hs, "format": "csv"}
    return Command("gate", argv, out, n * n * len(hs), params)


def commands(workload: str, seed: int, workdir: str, size: str = "full") -> list[Command]:
    build = {
        "verify": verify_commands,
        "trajectory": trajectory_commands,
        "reach-maps": reach_map_commands,
    }[workload]
    return build(seed, workdir, size)
