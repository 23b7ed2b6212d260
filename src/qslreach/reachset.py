"""Parameter sweeps behind the reachable-set datasets, plus the randomized
harness that validates the time bound against direct simulation.

The sweeps evaluate whole grids as arrays and, like ``verify_bound``, return
column dicts: column name -> 1-D array, in file column order, one entry per
output row.
``write_rows`` writes such a dict as CSV or JSON.  Rows are always in
grid/trial order, so output files are byte-identical for identical
configuration and seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics, qsl
from .dynamics import SystemSpec, integrate_many, theta_rate_check
from .models import (
    BELL_LABELS,
    GateParams,
    QubitParams,
    bell_state,
    collective_decay,
    qubit_gate_time_bound,
    qubit_spec,
    qubit_state,
    qutrit_gate_time_bound,
)

DEFAULT_HORIZONS = (0.3, 0.5, 0.8)
DEFAULT_SWEEP_POINTS = 200
DEFAULT_MAP_POINTS = 100
MARGIN_TOL = 1e-4  # numerical slack on T >= T*


def measured_radius(theta_t: float) -> float:
    """Radius of a *simulated* final angle, with displacements below
    qsl.RADIUS_RESOLUTION reported as exactly zero."""
    lam = qsl.radius_from_angle(theta_t)
    return lam if lam >= qsl.RADIUS_RESOLUTION else 0.0


@dataclass(frozen=True)
class GridAxis:
    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("axis count must be >= 2")
        if not self.start < self.stop:
            raise ValueError("axis start must be < stop")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepGrid:
    axes: tuple[GridAxis, ...]
    horizons: tuple[float, ...] = DEFAULT_HORIZONS

    def __post_init__(self):
        hs = tuple(float(h) for h in self.horizons)
        if not hs:
            raise ValueError("at least one horizon is required")
        if any(h <= 0 for h in hs):
            raise ValueError("horizons must be positive")
        if any(b <= a for a, b in zip(hs, hs[1:])):
            raise ValueError("horizons must be strictly increasing")
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "horizons", hs)


def sweep_reachable_radius(grid: SweepGrid, gamma: float, omega: float = 1.0) -> dict:
    """Largest reachable radius versus initial-state angle theta.

    Coefficients come from the generic pipeline for the driven, decaying
    qubit; for gamma = 0 the result reduces to min(1, omega |sin 2th| T).
    Columns theta, gamma, omega, T, lambda_max; one row per (theta, T),
    theta-major.
    """
    if len(grid.axes) != 1:
        raise ValueError("radius sweep expects a single theta axis")
    p = QubitParams(theta=grid.axes[0].values(), omega=omega, gamma=gamma)
    gens = qubit_spec(replace(p, theta=0.0))  # H and M_k do not depend on theta
    a, e = qsl.coefficients(qubit_state(p), gens.h_drift, gens.lindblad_ops)
    hs = np.array(grid.horizons)
    lam = qsl.max_reachable_radius(qsl.QslCoefficients(a[:, None], e[:, None]), hs)
    n = lam.size
    return {
        "theta": np.repeat(p.theta, hs.size),
        "gamma": np.full(n, gamma),
        "omega": np.full(n, omega),
        "T": np.tile(hs, p.theta.size),
        "lambda_max": lam.ravel(),
    }


def gate_reach_map(
    model: str,
    grid: SweepGrid,
    theta: float = 0.0,
    omega: float = 1.0,
    u_max: float = 1.0,
) -> dict:
    """Gate-implementation time bound over an (alpha, beta) grid.

    ``model`` is "qubit" (su2 rotations, initial angle theta) or "qutrit"
    (so3 rotations from [1, 0, 1]/sqrt(2); theta is reported as pi).
    Columns model, theta, alpha, beta, t_star and reach_T1, reach_T2, ...
    (1 where t_star <= T for each horizon); one row per gate, alpha-major.
    """
    if model not in ("qubit", "qutrit"):
        raise ValueError(f"model must be 'qubit' or 'qutrit', got {model!r}")
    if len(grid.axes) != 2:
        raise ValueError("gate map expects alpha and beta axes")
    alphas, betas = (ax.values() for ax in grid.axes)
    g = GateParams(alpha=np.repeat(alphas, betas.size), beta=np.tile(betas, alphas.size))
    if model == "qubit":
        t_star = qubit_gate_time_bound(QubitParams(theta=theta, omega=omega, u_max=u_max), g)
    else:
        t_star = qutrit_gate_time_bound(omega, u_max, g)
        theta = math.pi
    n = t_star.size
    cols = {"model": np.full(n, model), "theta": np.full(n, theta),
            "alpha": g.alpha, "beta": g.beta, "t_star": t_star}
    for i, T in enumerate(grid.horizons, start=1):
        cols[f"reach_T{i}"] = (t_star <= T).astype(int)
    return cols


def bell_sweep(gamma_axis: GridAxis, T: float) -> dict:
    """Largest reachable radius per Bell state versus decay rate gamma.

    Columns state, gamma, T, lambda_max; one row per (state, gamma),
    state-major in BELL_LABELS order.
    """
    if T <= 0:
        raise ValueError("T must be > 0")
    gammas = np.tile(gamma_axis.values(), len(BELL_LABELS))
    n = gammas.size
    vectors = np.stack([bell_state(label).vector for label in BELL_LABELS])
    psi = np.repeat(vectors, gamma_axis.count, axis=0)
    # collective decay alone: H = 0
    a, e = qsl.coefficients(psi, np.zeros((4, 4)), (collective_decay(gammas),))
    return {
        "state": np.repeat(BELL_LABELS, gamma_axis.count),
        "gamma": gammas,
        "T": np.full(n, float(T)),
        "lambda_max": qsl.max_reachable_radius(qsl.QslCoefficients(a, e), T),
    }


def draw_random_system(seed: int, dim: int, trial: int) -> SystemSpec:
    """Seeded random system: Gaussian-entry Hermitian H and unconstrained M,
    each scaled to unit Frobenius norm times a strength drawn from [0, 2],
    plus a Haar-like random pure state.

    The stream order is H entries (real then imaginary), H strength,
    M entries, M strength, state amplitudes.
    """
    rng = np.random.default_rng([seed, dim, trial])
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (x + x.conj().T) / 2
    nrm = np.linalg.norm(h)
    if nrm > 0:
        h = h / nrm * rng.uniform(0.0, 2.0)
    y = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = y / np.linalg.norm(y) * rng.uniform(0.0, 2.0)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi = psi / np.linalg.norm(psi)
    return SystemSpec(psi0=psi, h_drift=h, lindblad_ops=(m,))


def verify_bound(
    seed: int,
    n_trials: int,
    dims=(2, 3, 4),
    T: float = 0.5,
    dt: float = 1e-3,
) -> dict:
    """Integrate ``n_trials`` random systems per dimension and check that the
    simulated evolution respects T >= T*(lambda).

    Returns the verify file's columns trial, seed, dim, T, theta_T, lambda,
    t_star and margin (= T - t_star), followed by rate_excess: the largest
    ``theta_rate_check`` value of each trial, <= 0 up to roundoff.  One row
    per trial, dim-major.  A and E come from one ``qsl.coefficients`` call
    per dim and t_star from one ``qsl_time`` call over all trials.  Each
    dim's trials are integrated by ``integrate_many`` in blocks of about
    ``dynamics.STACK_ENTRIES`` state entries, which bounds memory; the block
    size does not change any result.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if not dims:
        raise ValueError("at least one dim is required")
    samples = len(dynamics._step_sizes(T, dt)) + 1
    theta_t, lam, rate_excess, a, e = [], [], [], [], []
    for dim in dims:
        specs = [draw_random_system(seed, dim, k) for k in range(n_trials)]
        a_dim, e_dim = qsl.coefficients(
            np.stack([s.psi0 for s in specs]),
            np.stack([s.h_drift for s in specs]),
            tuple(np.stack(ms) for ms in zip(*(s.lindblad_ops for s in specs))),
        )
        block = max(1, dynamics.STACK_ENTRIES // (samples * dim * dim))
        for start in range(0, n_trials, block):
            trajs = integrate_many(specs[start:start + block], T, dt)
            for k, traj in enumerate(trajs, start):
                theta_t.append(float(traj.thetas[-1]))
                lam.append(measured_radius(theta_t[-1]))
                coeffs = qsl.QslCoefficients(a_dim[k], e_dim[k])
                rate_excess.append(theta_rate_check(traj, coeffs).max())
        a.append(a_dim)
        e.append(e_dim)
    t_star = qsl.qsl_time(qsl.QslCoefficients(np.concatenate(a), np.concatenate(e)),
                          np.array(lam))
    n = t_star.size
    return {
        "trial": np.tile(np.arange(n_trials), len(dims)),
        "seed": np.full(n, seed),
        "dim": np.repeat(dims, n_trials),
        "T": np.full(n, T),
        "theta_T": np.array(theta_t),
        "lambda": np.array(lam),
        "t_star": t_star,
        "margin": T - t_star,
        "rate_excess": np.array(rate_excess),
    }


#: Fixed provenance note for verify output; parsers should skip '#' lines.
VERIFY_CSV_COMMENT = (
    "# random systems: rng([seed, dim, trial]); Gaussian entries; "
    "H = (X+X^dag)/2 and M each scaled to unit Frobenius norm times a "
    "strength drawn from U[0, 2]; psi0 normalized Gaussian"
)


def _cells(column, fmt: str) -> list[str]:
    """One column rendered cell by cell.  CSV: floats at 9 significant
    digits (+inf as "inf"), everything else verbatim.  JSON: the tokens
    json.dumps writes, except that non-finite floats become strings
    ("inf")."""
    arr = np.asarray(column)
    values = arr.tolist()
    if arr.dtype.kind == "f":
        if fmt == "csv":
            return [f"{v:.9g}" for v in values]
        cells = [repr(v) for v in values]
        for i in np.flatnonzero(~np.isfinite(arr)):
            cells[i] = f'"{values[i]}"'
        return cells
    if fmt == "csv":
        return [str(v) for v in values]
    tokens = {v: json.dumps(v) for v in set(values)}
    return [tokens[v] for v in values]


def write_rows(columns: dict, out, fmt: str, comment: str | None = None) -> None:
    """Write a column dict (name -> 1-D sequence, in column order) as rows.

    ``fmt`` is "csv" (a header line, then comma-separated cells; a
    ``comment`` line, if given, goes first) or "json" (a list of one object
    per row, laid out as json.dumps(..., indent=2) lays it out).  ``out``
    is a file path or an open text stream.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    if not columns or not len(next(iter(columns.values()))):
        raise ValueError("no rows to write")
    cells = [_cells(col, fmt) for col in columns.values()]
    if fmt == "csv":
        lines = [",".join(columns)] + [",".join(row) for row in zip(*cells)]
        if comment is not None:
            lines.insert(0, comment)
        text = "\n".join(lines) + "\n"
    else:
        keys = [json.dumps(name).replace("{", "{{").replace("}", "}}") for name in columns]
        record = "  {{\n" + ",\n".join(f"    {k}: {{}}" for k in keys) + "\n  }}"
        text = "[\n" + ",\n".join(record.format(*row) for row in zip(*cells)) + "\n]\n"
    if hasattr(out, "write"):
        out.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
