"""Parameter sweeps behind the reachable-set datasets, plus the randomized
harness that validates the time bound against direct simulation.

The sweeps take each axis by name, as a ``GridAxis`` (a checked linspace),
evaluate whole grids as arrays and, like ``verify_bound``, return column
dicts: column name -> 1-D array, in file column order, one entry per output
row.  Each column is built at its final width: a constant column is a
read-only zero-stride view of its one value (``np.broadcast_to``), so it
owns no row, and a reach flag is one byte per row (uint8 0/1).  A grid of systems is one stacked ``SystemSpec``, whose coefficients
come from one ``qsl.generic_coefficients`` call (``bell_sweep``: one per
Bell state).  The one simulation check is ``check_bound``, which
``verify_bound`` runs on its random systems one stack per block; its
radius, like ``bound``'s and the gate bounds', comes from
``qsl.radius_from_fidelity`` of a fidelity.
``write_rows`` writes such a dict as CSV or JSON.  Every table is rendered
by ``format_rows``, which yields it in blocks of about
``dynamics.CHUNK_BYTES`` of text (``_block_rows``), each one %-format of
the per-row template over that block's cells; ``write_rows`` writes each
block as it is made, so no whole-table text is held.  A constant column is
literal text in the template, and a column that repeats its cells has each
distinct value rendered once and looked up per row, through codes of the
narrowest unsigned type that holds them.  Coefficient stacks are likewise
evaluated a chunk of members at a time (``qsl._coefficients``), so a
grid's transient memory grows with the chunk, not with the grid.
``format_record`` renders one record with the same cell specs.
Rows are always in grid/trial order, so output files are byte-identical for
identical configuration and seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import dynamics, qsl
from .dynamics import SystemSpec, integrate, theta_rate_check
from .models import (
    BELL_LABELS,
    GateParams,
    QubitParams,
    bell_spec,
    qubit_gate_time_bound,
    qubit_spec,
    qutrit_gate_time_bound,
)

MARGIN_TOL = 1e-4  # numerical slack on T >= T*
#: 8-byte entries per ``verify_bound`` block (4 MB), d^2 + 8 per trial and sample.
STACK_ENTRIES = 2 ** 19


def violated(margin):
    """Whether the margin T - T* undercuts the bound by more than MARGIN_TOL,
    NaN included: a bool for a float, a bool array for an array."""
    holds = np.asarray(margin) >= -MARGIN_TOL
    return ~holds if holds.ndim else not holds


@dataclass(frozen=True)
class GridAxis:
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("axis count must be >= 2")
        if not -math.inf < self.start < self.stop < math.inf:
            raise ValueError("axis start must be < stop, both finite")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


def _horizons(horizons) -> tuple[float, ...]:
    """``horizons`` as floats: non-empty, finite, positive, strictly increasing."""
    hs = tuple(float(h) for h in horizons)
    if not hs:
        raise ValueError("at least one horizon is required")
    if not all(0 < h < math.inf for h in hs):
        raise ValueError(f"horizons must be finite and positive, got {','.join(map(repr, hs))}")
    if any(b <= a for a, b in zip(hs, hs[1:])):
        raise ValueError(f"horizons must be strictly increasing, got {','.join(map(repr, hs))}")
    return hs


def sweep_reachable_radius(theta: GridAxis, horizons, gamma: float, omega: float = 1.0) -> dict:
    """Largest reachable radius versus initial-state angle, per ``horizons`` entry.

    Coefficients come from the generic pipeline for the driven, decaying
    qubit, one stacked spec over the theta axis; for gamma = 0 the result
    reduces to min(1, omega |sin 2th| T).  Columns theta, gamma, omega, T,
    lambda_max; one row per (theta, T), theta-major.  gamma and omega are
    read-only zero-stride views of their one value.
    """
    hs = np.array(_horizons(horizons))
    p = QubitParams(theta=theta.values(), omega=omega, gamma=gamma)
    c = qsl.generic_coefficients(qubit_spec(p))
    lam = qsl.max_reachable_radius(qsl.QslCoefficients(c.speed[:, None], c.noise[:, None]), hs)
    n = lam.size
    return {
        "theta": np.repeat(p.theta, hs.size),
        "gamma": np.broadcast_to(gamma, n),
        "omega": np.broadcast_to(omega, n),
        "T": np.tile(hs, p.theta.size),
        "lambda_max": lam.ravel(),
    }


def gate_reach_map(
    model: str,
    alpha: GridAxis,
    beta: GridAxis,
    horizons,
    theta: float = 0.0,
    omega: float = 1.0,
    u_max: float = 1.0,
) -> dict:
    """Gate-implementation time bound over the ``alpha`` x ``beta`` grid.

    ``model`` is "qubit" (su2 rotations, initial angle theta) or "qutrit"
    (so3 rotations from [1, 0, 1]/sqrt(2); theta is reported as pi).
    Columns model, theta, alpha, beta, t_star and reach_T1, reach_T2, ...;
    one row per gate, alpha-major.  model and theta are read-only
    zero-stride views of their one value.  reach_Ti is uint8, 1 where
    t_star <= T_i: the comparison on the computed float, so an exact tie is
    decided by the last bit of t_star.  At theta = 0 the cells at beta =
    pi/3 are such ties at T = 0.5 (the frontier |sin(beta/2)| = omega T):
    their t_star lies within two ulps of 0.5, on either side, as alpha
    and the grid's rounding of pi/3 vary.
    """
    if model not in ("qubit", "qutrit"):
        raise ValueError(f"model must be 'qubit' or 'qutrit', got {model!r}")
    horizons = _horizons(horizons)
    alphas, betas = alpha.values(), beta.values()
    g = GateParams(alpha=np.repeat(alphas, betas.size), beta=np.tile(betas, alphas.size))
    if model == "qubit":
        t_star = qubit_gate_time_bound(QubitParams(theta=theta, omega=omega, u_max=u_max), g)
    else:
        t_star = qutrit_gate_time_bound(omega, u_max, g)
        theta = math.pi
    n = t_star.size
    cols = {"model": np.broadcast_to(model, n), "theta": np.broadcast_to(theta, n),
            "alpha": g.alpha, "beta": g.beta, "t_star": t_star}
    for i, T in enumerate(horizons, start=1):
        cols[f"reach_T{i}"] = (t_star <= T).view(np.uint8)
    return cols


def bell_sweep(gamma_axis: GridAxis, T: float) -> dict:
    """Largest reachable radius per Bell state versus decay rate gamma.

    Columns state, gamma, T, lambda_max; one row per (state, gamma),
    state-major in BELL_LABELS order.  T is a read-only zero-stride view of
    its one value.
    """
    if not 0 < T < math.inf:
        raise ValueError(f"T must be finite and > 0, got {T!r}")
    gammas = gamma_axis.values()
    per_state = [qsl.generic_coefficients(bell_spec(label, gammas)) for label in BELL_LABELS]
    coeffs = qsl.QslCoefficients(np.concatenate([c.speed for c in per_state]),
                                 np.concatenate([c.noise for c in per_state]))
    return {
        "state": np.repeat(BELL_LABELS, gammas.size),
        "gamma": np.tile(gammas, len(BELL_LABELS)),
        "T": np.broadcast_to(float(T), coeffs.speed.size),
        "lambda_max": qsl.max_reachable_radius(coeffs, T),
    }


def draw_random_system(seed: int, dim: int, trial) -> SystemSpec:
    """Seeded random system: Gaussian-entry Hermitian H and unconstrained M,
    each scaled to unit Frobenius norm times a strength drawn from [0, 2],
    plus a Haar-like random pure state.

    Trial k draws from rng([seed, dim, k]) in the stream order H entries
    (real then imaginary), H strength, M entries, M strength, state
    amplitudes; a zero H is left as it is, and draws no strength.  A
    sequence of trials gives one stacked spec, whose members equal the
    single draws bit for bit.

    The loop over trials only makes the rng calls, each trial filling one
    row of a (B, 4d^2 + 2d + 2) array: standard_normal(2d^2) is the stream
    of two (d, d) calls, and 2 * random() is the double uniform(0, 2)
    returns.  H, M, psi0 and their scaling are then formed over the whole
    stack by the elementwise operations of a per-trial draw, and each norm
    is the sqrt of the two ddot sums np.linalg.norm takes of one member
    (``_norms``).  Since h_00 = Re x_00 exactly, only a trial whose first
    normal is 0 needs its H norm in the loop, to decide the stream: a
    nonzero standard normal exceeds 1e-17 in magnitude, so its square does
    not underflow.
    """
    single = np.ndim(trial) == 0
    trials = [trial] if single else list(trial)
    if not trials:
        raise ValueError("a draw needs at least one trial")
    n = dim * dim
    s_h, s_m = 2 * n, 4 * n + 1  # the strength columns
    raw = np.empty((len(trials), 4 * n + 2 * dim + 2))
    zero_h = []
    for b, k in enumerate(trials):
        rng, row = np.random.default_rng([seed, dim, k]), raw[b]
        rng.standard_normal(2 * n, out=row[:s_h])
        if row[0] == 0.0 and not _norms(_hermitian(row[None], dim))[0] > 0:
            zero_h.append(b)  # no strength drawn: H / 1 * 1 keeps its +0 entries
            row[s_h] = 1.0
        else:
            row[s_h] = 2.0 * rng.random()
        rng.standard_normal(2 * n, out=row[s_h + 1:s_m])
        row[s_m] = 2.0 * rng.random()
        rng.standard_normal(2 * dim, out=row[s_m + 1:])
    h = _hermitian(raw, dim)
    h_norm = _norms(h)
    h_norm[zero_h] = 1.0
    h = h / h_norm[:, None, None] * raw[:, s_h, None, None]
    y = _complex_columns(raw, s_h + 1, (dim, dim))
    m = y / _norms(y)[:, None, None] * raw[:, s_m, None, None]
    psi = _complex_columns(raw, s_m + 1, (dim,))
    psi = psi / _norms(psi)[:, None]
    if single:
        psi, h, m = psi[0], h[0], m[0]
    return SystemSpec(psi0=psi, h_drift=h, lindblad_ops=(m,))


def _complex_columns(raw: np.ndarray, start: int, shape: tuple) -> np.ndarray:
    """re + 1j * im per row of ``raw`` as a (B, *shape) stack: re from the
    ``prod(shape)`` columns at ``start``, im from the next as many."""
    size = math.prod(shape)
    part = raw[:, start:start + 2 * size].reshape(len(raw), 2, *shape)
    return part[:, 0] + 1j * part[:, 1]


def _hermitian(raw: np.ndarray, dim: int) -> np.ndarray:
    """(X + X^dag) / 2 per row, X from the first 2 dim^2 columns."""
    x = _complex_columns(raw, 0, (dim, dim))
    return (x + x.conj().swapaxes(-1, -2)) / 2


def _norms(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each member of the C-contiguous complex stack ``a``,
    bit for bit: sqrt(re . re + im . im) over the member's .real and .imag
    views.  A (B, 1, n) @ (B, n, 1) matmul on those views makes, per member,
    the same strided BLAS ddot call as np.linalg.norm's vector dot."""
    v = a.reshape(len(a), 1, -1)
    re, im = v.real, v.imag
    return np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0])


def check_bound(spec: SystemSpec, T: float, dt: float = dynamics.DEFAULT_DT):
    """Integrate ``spec`` to ``T`` and hold the simulation against the bound.

    Returns the trajectory and the record theta_T (arccos of the final
    fidelity F_T, the last ``traj.thetas`` entry), lambda
    (``qsl.radius_from_fidelity`` of F_T), t_star, margin (= T - t_star) and
    rate_excess (the largest ``theta_rate_check`` value): floats for one
    system, arrays of shape (B,) for a stack; ``violated(margin)`` is the
    verdict.
    """
    coeffs = qsl.generic_coefficients(spec)
    traj = integrate(spec, T, dt)
    fid_t = traj.fidelities[..., -1]
    theta_t = qsl._scalar(np.arccos(fid_t))
    lam = qsl.radius_from_fidelity(fid_t)
    t_star = qsl.qsl_time(coeffs, lam)
    rate_excess = qsl._scalar(theta_rate_check(traj, coeffs).max(axis=-1))
    return traj, {"theta_T": theta_t, "lambda": lam, "t_star": t_star,
                  "margin": T - t_star, "rate_excess": rate_excess}


def verify_bound(
    seed: int,
    n_trials: int,
    dims=(2, 3, 4),
    T: float = 0.5,
    dt: float = dynamics.DEFAULT_DT,
) -> dict:
    """Integrate ``n_trials`` random systems per dimension and check that the
    simulated evolution respects T >= T*(lambda).

    Returns the verify file's columns trial, seed, dim and T (seed and T
    read-only zero-stride views of their one value), then the
    ``check_bound`` record theta_T, lambda, t_star, margin and rate_excess;
    one row per trial, dim-major.  Each dim's trials go in blocks of about
    ``STACK_ENTRIES`` entries, which bounds memory: a block is one
    stacked draw and one ``check_bound``.  The block size does not change
    any result.
    """
    if n_trials < 1:
        raise ValueError(f"trials must be >= 1, got {n_trials}")
    if not dims:
        raise ValueError("at least one dim is required")
    if min(dims) < 1:
        raise ValueError(f"dims must be >= 1, got {min(dims)}")
    if len(set(dims)) < len(dims):
        raise ValueError(f"dims must be distinct, got {','.join(map(str, dims))}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    samples = len(dynamics._sample_times(T, dt)[0])
    blocks = []
    for dim in dims:
        # per trial and sample: d^2 state coordinates and about 8 entries of
        # (B, n) arrays (the rate/fidelity pair, the health screen's trace
        # error and verdicts, the rate check's radius and temporaries)
        block = max(1, STACK_ENTRIES // (samples * (dim * dim + 8)))
        for start in range(0, n_trials, block):
            spec = draw_random_system(seed, dim, range(start, min(start + block, n_trials)))
            blocks.append(check_bound(spec, T, dt)[1])
    n = n_trials * len(dims)
    return {
        "trial": np.tile(np.arange(n_trials), len(dims)),
        "seed": np.broadcast_to(seed, n),
        "dim": np.repeat(dims, n_trials),
        "T": np.broadcast_to(T, n),
        **{k: np.concatenate([b[k] for b in blocks]) for k in blocks[0]},
    }


#: Fixed provenance note for verify output; parsers should skip '#' lines.
VERIFY_CSV_COMMENT = (
    "# random systems: rng([seed, dim, trial]); Gaussian entries; "
    "H = (X+X^dag)/2 and M each scaled to unit Frobenius norm times a "
    "strength drawn from U[0, 2]; psi0 normalized Gaussian"
)


def _cells(column, fmt: str):
    """One column as a %-spec and a function of (i, j) that gives the Python
    values the spec formats for rows i:j.  CSV: floats at 9 significant
    digits (+inf as "inf"), everything else verbatim.  JSON: the tokens
    json.dumps writes (str of a float is its repr), except that non-finite
    floats become strings ("inf").

    A column whose cells are all equal (floats: bit patterns) is rendered
    once and returned as literal template text, "%" escaped, with no value
    function: it is neither sorted nor substituted per row.  Otherwise each
    distinct cell is rendered once when at most half the rows are distinct:
    floats are keyed by their bit pattern, so -0.0 and every NaN keep their
    own text, and the rendered strings are looked up per row through codes
    of the narrowest unsigned type that holds them (a byte per row for at
    most 256 distinct cells).  A mostly-distinct column is formatted in
    place, which is cheaper than the lookup.  The strings of a list or tuple
    column are taken as given: numpy's unicode dtype would drop their
    trailing NULs."""
    arr = np.asarray(column)
    if arr.dtype.kind == "U" and isinstance(column, (list, tuple)):
        tokens = {v: v if fmt == "csv" else json.dumps(v) for v in set(column)}
        if len(tokens) == 1:
            return tokens[column[0]].replace("%", "%%"), None
        return "%s", lambda i, j: [tokens[v] for v in column[i:j]]
    floats = arr.dtype.kind == "f"
    if floats:
        arr = arr.astype(np.float64, copy=False)
    spec = "%.9g" if floats and fmt == "csv" else "%s"

    def values(cells):
        out = cells.tolist()
        if floats and fmt == "json":
            for k in np.flatnonzero(~np.isfinite(cells)):
                out[k] = f'"{out[k]}"'
        elif fmt == "json":
            out = [json.dumps(v) for v in out]
        return out

    keys = arr.view(np.int64) if floats else arr
    if (keys == keys[0]).all():
        uniq, codes = keys[:1], None
    else:
        uniq, inverse = np.unique(keys, return_inverse=True)
        if 2 * len(uniq) > len(arr):
            return spec, lambda i, j: values(arr[i:j])
        codes = inverse.astype(np.min_scalar_type(len(uniq) - 1))
    cells = values(uniq.view(arr.dtype))
    strings = (((spec + "\n") * len(cells) % tuple(cells)).split("\n") if floats
               else list(map(str, cells)))
    if codes is None:
        return strings[0].replace("%", "%%"), None
    strings = np.array(strings, dtype=object)
    return "%s", lambda i, j: strings[codes[i:j]].tolist()


def format_rows(columns: dict, fmt: str, indent: str = ""):
    """The rows of a column dict as text, yielded in blocks of
    ``_block_rows`` rows, about ``dynamics.CHUNK_BYTES`` of text each: each
    block is one %-format of the per-row template repeated once per row,
    over only that block's cells from ``_cells`` (a
    constant column is literal template text, a repetitive one arrives as
    strings rendered once per distinct value).  CSV: one line per row, no
    header.  JSON: the list json.dumps(rows, indent=2) writes, without a
    final newline; ``indent`` prefixes every line but the first, to nest it
    in an object.  The bytes do not depend on the block size.  The format
    and the columns (non-empty, of one length) are checked, and the cells
    prepared, before the first block is asked for."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    n = len(next(iter(columns.values()))) if columns else 0
    if not n:
        raise ValueError("no rows to write")
    if any(len(col) != n for col in columns.values()):
        raise ValueError("columns must all have the same length")
    specs, cells = zip(*(_cells(col, fmt) for col in columns.values()))
    cells = [c for c in cells if c is not None]
    if fmt == "csv":
        head, row = "", ",".join(specs) + "\n"
        last = row
    else:
        record = f"{indent}  " + _object_template(columns, specs, indent + "  ")
        head, row, last = "[\n", record + ",\n", record + f"\n{indent}]"
    step = _block_rows(row, len(cells))

    def blocks():
        for i in range(0, n, step):
            j = min(i + step, n)
            template = (head if i == 0 else "") + row * (j - i - 1) + (last if j == n else row)
            yield template % tuple(chain.from_iterable(zip(*(c(i, j) for c in cells))))
    return blocks()


def _block_rows(row: str, cells: int) -> int:
    """Rows per block of ``format_rows`` for the row template ``row`` with
    ``cells`` cells substituted per row: about ``dynamics.CHUNK_BYTES`` of
    text, counting 16 bytes of text per cell beyond the template.  A block's
    text, its template and its encoded copy then each stay under glibc's
    128 KB mmap threshold, whatever the table's length."""
    return max(1, dynamics.CHUNK_BYTES // (len(row) + 16 * cells))


def _object_template(names, specs, indent: str) -> str:
    """The %-template of one object as json.dumps(..., indent=2) lays it out;
    ``indent`` prefixes every line but the first."""
    fields = ",\n".join(f"{indent}  {json.dumps(k).replace('%', '%%')}: {s}"
                        for k, s in zip(names, specs))
    return f"{{\n{fields}\n{indent}}}"


def format_record(record: dict, fmt: str, indent: str = "") -> str:
    """One record (name -> scalar), cells as in ``format_rows``.  "json": the
    object json.dumps(record, indent=2) writes, nested at ``indent``; "text":
    one "name = value" line per entry, cells as in CSV.  No final newline."""
    if fmt not in ("text", "json"):
        raise ValueError(f"format must be 'text' or 'json', got {fmt!r}")
    specs = [_cells([v], "csv" if fmt == "text" else fmt)[0] for v in record.values()]
    template = (_object_template(record, specs, indent) if fmt == "json" else
                "\n".join(f"{k.replace('%', '%%')} = {s}" for k, s in zip(record, specs)))
    return template % ()


def write_text(pieces, out) -> None:
    """Write the strings ``pieces``, in order, to a file path ("\\n" line
    ends) or an open text stream."""
    if hasattr(out, "write"):
        out.writelines(pieces)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.writelines(pieces)


def write_rows(columns: dict, out, fmt: str, comment: str | None = None) -> None:
    """Write a column dict (name -> 1-D sequence, in column order) as rows.

    ``fmt`` is "csv" (a header line, then comma-separated cells; a
    ``comment`` line, if given, goes first) or "json" (a list of one object
    per row, laid out as json.dumps(..., indent=2) lays it out).  ``out``
    is a file path or an open text stream.  The rows come from
    ``format_rows``, and each block is written as it is made.
    """
    rows = format_rows(columns, fmt)
    if fmt == "csv":
        head = "" if comment is None else comment + "\n"
        pieces = chain([head + ",".join(columns) + "\n"], rows)
    else:
        pieces = chain(rows, ["\n"])
    write_text(pieces, out)
