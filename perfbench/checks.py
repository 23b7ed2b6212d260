"""Output checks against references the benchmark computes itself.

* Fidelities (``verify`` sample, trajectories): ``scipy.linalg.expm`` of a
  Liouvillian built here from the same Hamiltonian and Lindblad operators.
* ``lambda_max`` rows (``sweep-lambda``, ``bell-sweep``): the closed-form
  inversion of T* through the Lambert W branch W_{-1}
  (``scipy.special.lambertw``), with A and E computed from their
  definitions.
* Gate maps (a seeded sample of rows): the matrix route, ``su2_gate`` /
  ``so3_gate`` followed by ``gate_fidelity``, and A' from the variances of
  the drift and control Hamiltonians.

Each check returns a ``Report`` listing the largest deviation per quantity
and an error per failed comparison.  A deviation is
``|got - ref| / max(1, |ref|)`` unless stated otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

from workloads import BELL_LABELS, Command

DEGENERACY_EPS = 1e-14       # coefficient threshold of the T* limits
RADIUS_RESOLUTION = 1e-6     # simulated radii below this read as zero
MARGIN_TOL = 1e-4            # allowed slack on T >= T*
FIDELITY_TOL = 1e-7
LAMBDA_TOL = 1e-8
T_STAR_REL_TOL = 1e-7
GATE_TOL = 1e-6
TRACE_TOL = 1e-9
GATE_SAMPLE = 500
TRAJ_SAMPLE = 16

SQ2 = math.sqrt(2.0)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)
SPIN1_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / SQ2
SPIN1_Z = np.diag([1.0, 0.0, -1.0]).astype(complex)
QUTRIT_PSI0 = np.array([1.0, 0.0, 1.0], dtype=complex) / SQ2
BELL_VECTORS = {
    "phi-plus": np.array([1, 0, 0, 1], dtype=complex) / SQ2,
    "phi-minus": np.array([1, 0, 0, -1], dtype=complex) / SQ2,
    "psi-plus": np.array([0, 1, 1, 0], dtype=complex) / SQ2,
    "psi-minus": np.array([0, -1, 1, 0], dtype=complex) / SQ2,
}
COLLECTIVE_DECAY = np.kron(SIGMA_MINUS, np.eye(2)) + np.kron(np.eye(2), SIGMA_MINUS)


@dataclass
class Report:
    devs: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    @property
    def max_dev(self) -> float:
        return max(self.devs.values(), default=0.0)

    def compare(self, what: str, got, ref, tol: float, relative: bool = False) -> None:
        got = np.asarray(got, dtype=float)
        ref = np.asarray(ref, dtype=float)
        scale = np.abs(ref) if relative else np.maximum(1.0, np.abs(ref))
        with np.errstate(invalid="ignore", divide="ignore"):
            dev = np.abs(got - ref) / scale
        dev[got == ref] = 0.0          # equal infinities and exact zeros
        dev[np.isnan(dev)] = np.inf
        worst = float(dev.max()) if dev.size else 0.0
        self.devs[what] = max(self.devs.get(what, 0.0), worst)
        if worst > tol:
            i = int(np.argmax(dev))
            self.errors.append(
                f"{what}: deviation {worst:.3g} > {tol:g} at row {i} "
                f"(got {got.flat[i]!r}, reference {ref.flat[i]!r})"
            )

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


# -- references --------------------------------------------------------

def liouvillian(h: np.ndarray, ops) -> np.ndarray:
    """Generator on row-major vec(rho): vec(A rho B) = (A kron B^T) vec(rho)."""
    d = h.shape[0]
    eye = np.eye(d)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for m in ops:
        mdm = m.conj().T @ m
        gen += np.kron(m, m.conj()) - 0.5 * (np.kron(mdm, eye) + np.kron(eye, mdm.T))
    return gen


def fidelity_ref(psi: np.ndarray, h: np.ndarray, ops, times) -> np.ndarray:
    """<psi| exp(L t)(|psi><psi|) |psi> at each time."""
    from scipy.linalg import expm

    gen = liouvillian(h, ops)
    rho0 = np.outer(psi, psi.conj()).reshape(-1)
    d = psi.shape[0]
    out = []
    for t in times:
        rho = (expm(gen * t) @ rho0).reshape(d, d)
        out.append(np.vdot(psi, rho @ psi).real)
    return np.array(out)


def coefficients_ref(psi, h, ops):
    """A and E from their definitions, batched over the leading axis.

    psi is (n, d); h and each operator are (d, d) or (n, d, d).
    """
    psi = np.asarray(psi, dtype=complex)
    rho = psi[:, :, None] * psi.conj()[:, None, :]
    x = 1j * (h @ rho - rho @ h)
    e = np.zeros(psi.shape[0])
    for m in ops:
        md = np.conj(np.swapaxes(m, -1, -2))
        mdm = md @ m
        x = x + md @ rho @ m - 0.5 * (mdm @ rho + rho @ mdm)
        mpsi = (m @ psi[:, :, None])[:, :, 0]
        e += np.sum(np.abs(mpsi) ** 2, axis=1) - np.abs(np.sum(psi.conj() * mpsi, axis=1)) ** 2
    a = SQ2 * np.linalg.norm(x, axis=(1, 2))
    return a, np.maximum(e, 0.0)


def t_star_ref(a, e, lam):
    """T*(lambda) with its degenerate limits, elementwise."""
    a, e, lam = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, e, lam)))
    out = np.full(a.shape, np.inf)
    a_ok, e_ok = a >= DEGENERACY_EPS, e >= DEGENERACY_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        gen = 2 * lam / a - (2 * e / (a * a)) * np.log1p(a * lam / e)
        out = np.where(a_ok & e_ok, gen, out)
        out = np.where(a_ok & ~e_ok, 2 * lam / a, out)
        out = np.where(~a_ok & e_ok, lam * lam / e, out)
    return np.where(lam <= 0, 0.0, out)


def lambda_max_ref(a, e, T):
    """Largest radius with T*(lambda) <= T, capped at 1, in closed form:
    lambda = (E/A)(w - 1) with w = -W_{-1}(-exp(-1 - c)), c = A^2 T / (2E).

    For c beyond exp's range w solves w - ln w = 1 + c by fixed-point
    iteration, and lambda is written as A T / 2 + (E/A)(w - 1 - c)."""
    from scipy.special import lambertw

    a, e, T = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, e, T)))
    lam = np.zeros(a.shape)
    a_ok, e_ok = a >= DEGENERACY_EPS, e >= DEGENERACY_EPS
    lam[a_ok & ~e_ok] = (a * T / 2)[a_ok & ~e_ok]
    lam[~a_ok & e_ok] = np.sqrt(e * T)[~a_ok & e_ok]
    both = a_ok & e_ok
    ab, eb, tb = a[both], e[both], T[both]
    x = 1.0 + ab * ab * tb / (2 * eb)
    small = x <= 700.0
    w = x.copy()
    w[small] = -lambertw(-np.exp(-x[small]), -1).real
    for _ in range(10):
        w[~small] = x[~small] + np.log(w[~small])
    lam[both] = np.where(small, eb / ab * (w - 1), ab * tb / 2 + eb / ab * (w - x))
    return np.where(T > 0, np.minimum(lam, 1.0), 0.0)


def measured_radius(theta):
    lam = np.sqrt(np.maximum(1.0 - np.cos(theta), 0.0))
    return np.where(lam >= RADIUS_RESOLUTION, lam, 0.0)


def draw_system(seed: int, dim: int, trial: int):
    """The documented random system of ``verify``: rng([seed, dim, trial]);
    Gaussian H entries (real, then imaginary), H strength, M entries, M
    strength, state amplitudes; H and M scaled to unit Frobenius norm times
    a strength from U[0, 2]."""
    rng = np.random.default_rng([seed, dim, trial])
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (x + x.conj().T) / 2
    h = h / np.linalg.norm(h) * rng.uniform(0.0, 2.0)
    y = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = y / np.linalg.norm(y) * rng.uniform(0.0, 2.0)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi), h, m


def qubit_state(theta, phi=0.0):
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return np.stack([np.cos(theta) + 0j, np.exp(1j * phi) * np.sin(theta)], axis=1)


def _std(h: np.ndarray, psi: np.ndarray) -> float:
    hpsi = h @ psi
    return math.sqrt(max(np.vdot(hpsi, hpsi).real - np.vdot(psi, hpsi).real ** 2, 0.0))


# -- readers -----------------------------------------------------------

def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _columns(header, rows, names):
    idx = [header.index(n) for n in names]
    return [np.array([r[i] for r in rows], dtype=float) for i in idx]


def _json_columns(records, names):
    return [np.array([float(rec[n]) for rec in records]) for n in names]


# -- checks per command kind ---------------------------------------------

def check_verify(cmd: Command, stderr: str, seed: int) -> Report:
    rep = Report()
    p = cmd.params
    header, rows = read_csv(cmd.out)
    cols = ["trial", "seed", "dim", "T", "theta_T", "lambda", "t_star", "margin"]
    rep.require(header == cols, f"verify header {header} != {cols}")
    rep.require(len(rows) == cmd.rows, f"verify rows {len(rows)} != {cmd.rows}")
    if rep.errors:
        return rep
    trial, sd, dim, T, theta, lam, t_star, margin = _columns(header, rows, cols)
    keys = [(d, k) for d in p["dims"] for k in range(p["trials"])]
    rep.require(
        [(int(d), int(k)) for d, k in zip(dim, trial)] == keys and set(sd) == {p["seed"]},
        "verify rows do not enumerate seed x dims x trials in order",
    )
    rep.compare("verify.T", T, np.full(T.size, p["T"]), 1e-12)
    rep.compare("verify.lambda", lam, measured_radius(theta), LAMBDA_TOL)
    systems = [draw_system(p["seed"], d, k) for d, k in keys]
    ref_t = np.empty(len(keys))
    for i, (psi, h, m) in enumerate(systems):
        a, e = coefficients_ref(psi[None], h, [m])
        ref_t[i] = t_star_ref(a, e, lam[i])[0]
    rep.compare("verify.t_star", t_star, ref_t, T_STAR_REL_TOL, relative=True)
    rep.compare("verify.margin", margin, T - t_star, LAMBDA_TOL)
    rep.require(bool(np.all(margin >= -MARGIN_TOL)),
                f"verify: {int(np.sum(margin < -MARGIN_TOL))} bound violations")
    rep.require("violations = 0" in stderr, "verify did not report zero violations")
    sample = random.Random(seed).sample(range(len(keys)), min(12, len(keys)))
    for i in sample:
        psi, h, m = systems[i]
        fid = fidelity_ref(psi, h, [m], [p["T"]])
        rep.compare("verify.fidelity", [math.cos(theta[i])], fid, FIDELITY_TOL)
    return rep


def _trajectory_system(p: dict):
    if p["model"] == "bell":
        return (BELL_VECTORS[p["state"]], np.zeros((4, 4), dtype=complex),
                [math.sqrt(p["gamma"]) * COLLECTIVE_DECAY])
    psi = qubit_state(p["theta"], p["phi"])[0]
    ops = [math.sqrt(p["gamma"]) * SIGMA_MINUS] if p["gamma"] > 0 else []
    return psi, p["omega"] * PAULI_Z, ops


def check_trajectory(cmd: Command, seed: int) -> Report:
    rep = Report()
    p = cmd.params
    cols = ["t", "theta", "fidelity", "trace_err"]
    summary = None
    if cmd.kind == "traj-json":
        with open(cmd.out) as fh:
            payload = json.load(fh)
        records = payload["trajectory"]
        summary = payload["summary"]
        rep.require(list(records[0]) == cols, f"trajectory keys {list(records[0])} != {cols}")
        n = len(records)
        t, theta, fid, terr = _json_columns(records, cols) if n == cmd.rows else [None] * 4
    else:
        header, rows = read_csv(cmd.out)
        rep.require(header == cols, f"trajectory header {header} != {cols}")
        n = len(rows)
        t, theta, fid, terr = _columns(header, rows, cols) if n == cmd.rows else [None] * 4
    rep.require(n == cmd.rows, f"trajectory rows {n} != {cmd.rows}")
    if rep.errors:
        return rep
    grid = np.arange(n) * p["dt"]
    grid[-1] = p["T"]
    rep.compare("trajectory.t", t, grid, 1e-8, relative=False)
    rep.compare("trajectory.cos_theta", np.cos(theta), fid, 2e-8)
    rep.require(bool(np.all(terr <= TRACE_TOL)), "trajectory trace error above 1e-9")
    psi, h, ops = _trajectory_system(p)
    picks = sorted(random.Random(seed).sample(range(1, n), min(TRAJ_SAMPLE, n - 1)) + [n - 1])
    rep.compare("trajectory.fidelity", fid[picks],
                fidelity_ref(psi, h, ops, grid[picks]), FIDELITY_TOL)
    if summary is not None:
        theta_t = float(summary["theta_T"])
        a, e = coefficients_ref(psi[None], h, [m[None] for m in ops])
        lam = float(measured_radius(theta_t))
        ref_t = float(t_star_ref(a, e, lam)[0])
        rep.require(theta_t == theta[-1], "summary theta_T differs from the last sample")
        rep.compare("trajectory.lambda", [float(summary["lambda"])], [lam], LAMBDA_TOL)
        rep.compare("trajectory.t_star", [float(summary["t_star"])], [ref_t],
                    T_STAR_REL_TOL, relative=True)
        rep.compare("trajectory.margin", [float(summary["margin"])],
                    [p["T"] - float(summary["t_star"])], LAMBDA_TOL)
    return rep


def check_sweep(cmd: Command) -> Report:
    rep = Report()
    p = cmd.params
    header, rows = read_csv(cmd.out)
    cols = ["theta", "gamma", "omega", "T", "lambda_max"]
    rep.require(header == cols, f"sweep header {header} != {cols}")
    rep.require(len(rows) == cmd.rows, f"sweep rows {len(rows)} != {cmd.rows}")
    if rep.errors:
        return rep
    theta, gamma, omega, T, lam = _columns(header, rows, cols)
    hs = np.array(p["horizons"])
    grid = np.linspace(0.0, math.pi / 2, p["points"])
    rep.compare("sweep.grid", theta, np.repeat(grid, hs.size), 1e-8)
    rep.compare("sweep.T", T, np.tile(hs, p["points"]), 1e-12)
    rep.compare("sweep.params", np.concatenate([gamma, omega]),
                np.concatenate([np.full(gamma.size, p["gamma"]),
                                np.full(omega.size, p["omega"])]), 1e-12)
    ops = [math.sqrt(p["gamma"]) * SIGMA_MINUS] if p["gamma"] > 0 else []
    a, e = coefficients_ref(qubit_state(grid), p["omega"] * PAULI_Z, ops)
    ref = lambda_max_ref(np.repeat(a, hs.size), np.repeat(e, hs.size), T)
    rep.compare("sweep.lambda_max", lam, ref, LAMBDA_TOL)
    return rep


def check_bell(cmd: Command) -> Report:
    rep = Report()
    p = cmd.params
    header, rows = read_csv(cmd.out)
    cols = ["state", "gamma", "T", "lambda_max"]
    rep.require(header == cols, f"bell header {header} != {cols}")
    rep.require(len(rows) == cmd.rows, f"bell rows {len(rows)} != {cmd.rows}")
    if rep.errors:
        return rep
    labels = [r[0] for r in rows]
    gamma, T, lam = _columns(header, rows, cols[1:])
    grid = np.linspace(p["gamma_min"], p["gamma_max"], p["points"])
    rep.require(labels == [s for s in BELL_LABELS for _ in grid], "bell label order")
    rep.compare("bell.grid", gamma, np.tile(grid, len(BELL_LABELS)), 1e-8)
    rep.compare("bell.T", T, np.full(T.size, p["T"]), 1e-12)
    psi = np.repeat(np.stack([BELL_VECTORS[s] for s in BELL_LABELS]), grid.size, axis=0)
    g = np.tile(grid, len(BELL_LABELS))
    ops = [np.sqrt(g)[:, None, None] * COLLECTIVE_DECAY]
    a, e = coefficients_ref(psi, np.zeros((4, 4), dtype=complex), ops)
    rep.compare("bell.lambda_max", lam, lambda_max_ref(a, e, p["T"]), LAMBDA_TOL)
    return rep


def check_gate(cmd: Command, seed: int) -> Report:
    from qslreach import models

    rep = Report()
    p = cmd.params
    hs = list(p["horizons"])
    cols = ["model", "theta", "alpha", "beta", "t_star"] + [
        f"reach_T{i}" for i in range(1, len(hs) + 1)
    ]
    if p["format"] == "json":
        with open(cmd.out) as fh:
            records = json.load(fh)
        keys = list(records[0]) if records else []
        labels = [rec["model"] for rec in records]
        n = len(records)
        data = _json_columns(records, cols[1:]) if n * len(hs) == cmd.rows else None
    else:
        keys, rows = read_csv(cmd.out)
        labels = [r[0] for r in rows]
        n = len(rows)
        data = _columns(keys, rows, cols[1:]) if n * len(hs) == cmd.rows else None
    rep.require(keys == cols, f"gate-map columns {keys} != {cols}")
    rep.require(n * len(hs) == cmd.rows, f"gate-map rows {n} != {cmd.rows // len(hs)}")
    if rep.errors:
        return rep
    theta, alpha, beta, t_star, *reach = data
    qubit = p["model"] == "qubit"
    rep.require(set(labels) == {p["model"]}, "gate-map model column")
    alphas = np.linspace(0.0, 2 * math.pi, p["points"])
    betas = np.linspace(0.0, math.pi, p["points"])
    rep.compare("gate.alpha", alpha, np.repeat(alphas, betas.size), 1e-8)
    rep.compare("gate.beta", beta, np.tile(betas, alphas.size), 1e-8)
    rep.compare("gate.theta", theta, np.full(n, p["theta"] if qubit else math.pi), 1e-8)
    for i, T in enumerate(hs):
        rep.require(bool(np.all(reach[i] == (t_star <= T))), f"gate-map reach_T{i + 1} flags")
    if qubit:
        psi = qubit_state(p["theta"])[0]
        drift, ctrl = p["omega"] * PAULI_X, PAULI_Z
    else:
        psi, drift, ctrl = QUTRIT_PSI0, p["omega"] * SPIN1_X, SPIN1_Z
    speed = 2 * (_std(drift, psi) + p["u_max"] * _std(ctrl, psi))
    picks = sorted(random.Random(seed).sample(range(n), min(GATE_SAMPLE, n)))
    ref = []
    for i in picks:
        g = models.GateParams(alpha=float(alphas[i // betas.size]),
                              beta=float(betas[i % betas.size]))
        gate = models.su2_gate(g) if qubit else models.so3_gate(g)
        lam = math.sqrt(1.0 - min(max(models.gate_fidelity(psi, gate), 0.0), 1.0))
        if speed >= 1e-12:
            ref.append(2 * lam / speed)
        else:
            ref.append(0.0 if lam < RADIUS_RESOLUTION else math.inf)
    rep.compare("gate.t_star", t_star[picks], ref, GATE_TOL)
    return rep


def check(cmd: Command, stderr: str, seed: int) -> Report:
    if cmd.kind == "verify":
        return check_verify(cmd, stderr, seed)
    if cmd.kind in ("traj-csv", "traj-json"):
        return check_trajectory(cmd, seed)
    if cmd.kind == "sweep":
        return check_sweep(cmd)
    if cmd.kind == "bell":
        return check_bell(cmd)
    return check_gate(cmd, seed)
