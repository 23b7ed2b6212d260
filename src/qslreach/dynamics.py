"""Markovian master-equation integration and the fidelity to the initial state.

The density matrix evolves under

    drho/dt = L(rho) = -i [H, rho] + sum_k D[M_k] rho,
    D[M] rho = M rho M^dag - (M^dag M rho + rho M^dag M) / 2,

with hbar = 1 and a pure initial state rho_0 = |psi_0><psi_0|.  L is written
once, in ``lindblad``, and its adjoint is the reference for ``qsl``'s A,
which forms L^dag(rho_0) from state vectors.  L maps Hermitian matrices to
Hermitian matrices, so the integrator works on real coordinates: in the
orthonormal Hermitian basis E_ii, (E_ij + E_ji) / sqrt(2) and
i (E_ij - E_ji) / sqrt(2) (i > j), rho is a real d^2-vector x and L a real
d^2 x d^2 matrix G, built by applying ``lindblad`` to the basis (the
coherence-vector form of Alicki and Lendi, Quantum Dynamical Semigroups
and Applications, Lecture Notes in Physics 286, 1987).  The distance of
the evolved state from the initial one is tracked through the fidelity
F_t = <psi_0| rho_t |psi_0>, clipped into [0, 1], which gives the radius
lambda_t = sqrt(1 - F_t) of ``qsl`` and the relative-purity angle

    Theta_t = arccos(F_t),   0 <= Theta_t <= pi/2,

formed only where a file prints it.

Trajectories produced here are the ground truth that every speed-limit
bound in this package is validated against, so states are *checked*
(finiteness, unit trace, positivity) rather than silently repaired; a state
formed from real coordinates is Hermitian by construction.  Each
trajectory also carries the exact fidelity rate dF/dt = <psi_0| L(rho_t)
|psi_0>, against which ``theta_rate_check`` tests the differential bound.

A ``SystemSpec`` is one system or a stack of systems of one dimension, and
``integrate`` is the one integrator for both: it propagates the whole stack
together, filling the samples by doubling (about 2 log2(n) stacked real
products for n steps), and checks its states in one pass over their
coordinates that keeps each state's residuals (finiteness, trace, LDL^H
pivots), which the failure report and ``Trajectory.trace_errors`` read.
An eigenvalue solve runs only on the samples of a failing system whose
pivots fail, and only their density matrices are formed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg

#: Tolerances for trajectory health checks.
TRACE_TOL = 1e-9
POSITIVITY_TOL = 1e-8

#: Default integration step (units of 1/Omega with hbar = 1).
DEFAULT_DT = 1e-3

#: Bytes of one chunk of a grid's working arrays, whatever the grid's size:
#: a temporary of this size stays in cache and under glibc's 128 KB mmap
#: threshold, so its pages are reused, not faulted in afresh.  The health
#: screen, ``qsl._adjoint_stacks`` and ``reachset.format_rows`` size their
#: chunks by it.
CHUNK_BYTES = 2 ** 16

#: States per pass of the health screen in ``_check_states``: its dozen or
#: so temporaries of this length, complex ones included, stay in cache,
#: whatever the stack size.
_SCREEN_MATRICES = CHUNK_BYTES // 16


class IntegrationError(RuntimeError):
    """A trajectory state violated the health check named by ``check``
    ("non-finite", "trace" or "positivity") at ``time``; the message gives
    the check's worst residual and its tolerance.  States are Hermitian by
    construction, so Hermiticity is not checked."""

    def __init__(self, message: str, time: float, check: str):
        super().__init__(message)
        self.time = time
        self.check = check


@dataclass(frozen=True)
class SystemSpec:
    """Initial state plus generators of the master equation, for one system
    or for a stack of B systems of one dimension d.

    A stacked field carries a leading axis of length B: ``psi0`` (B, d), a
    matrix (B, d, d), ``u_max`` (B,).  An unstacked field is shared by every
    system of the stack.  ``u_max`` (default 0) bounds the amplitude of the
    control; without ``h_control`` it is checked but unused.
    """

    psi0: np.ndarray
    h_drift: np.ndarray
    h_control: np.ndarray | None = None
    u_max: float | np.ndarray = 0.0
    lindblad_ops: tuple[np.ndarray, ...] = ()
    #: () for one system, (B,) for a stack of B
    shape: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        psi0 = linalg.as_state(self.psi0)
        dim = psi0.shape[-1]
        h_drift = _operator("h_drift", self.h_drift, dim, hermitian=True)
        h_control = (None if self.h_control is None else
                     _operator("h_control", self.h_control, dim, hermitian=True))
        ops = tuple(_operator("Lindblad operator", m, dim) for m in self.lindblad_ops)
        u_max = np.asarray(self.u_max, dtype=float)
        if not (np.isfinite(u_max) & (u_max >= 0)).all():
            raise ValueError(f"u_max must be finite and >= 0, got {self.u_max!r}")
        mats = [m for m in (h_drift, h_control, *ops) if m is not None]
        shapes = {psi0.shape[:-1], u_max.shape, *(m.shape[:-2] for m in mats)} - {()}
        if len(shapes) > 1 or any(len(s) > 1 for s in shapes):
            raise ValueError(f"stacked fields must share one leading axis, got {sorted(shapes)}")
        shape = shapes.pop() if shapes else ()
        if shape == (0,):
            raise ValueError("a stack needs at least one system")
        object.__setattr__(self, "psi0", psi0)
        object.__setattr__(self, "h_drift", h_drift)
        object.__setattr__(self, "h_control", h_control)
        object.__setattr__(self, "u_max", u_max if u_max.ndim else float(u_max))
        object.__setattr__(self, "lindblad_ops", ops)
        object.__setattr__(self, "shape", shape)

    @property
    def dim(self) -> int:
        return self.psi0.shape[-1]

    @property
    def has_control(self) -> bool:
        return self.h_control is not None


def _operator(name: str, m, dim: int, hermitian: bool = False) -> np.ndarray:
    """A validated (d, d) or stacked (B, d, d) operator of dimension ``dim``."""
    m = linalg.as_matrix(m)
    if m.shape[-1] != dim:
        raise ValueError(f"{name} dimension does not match psi0")
    with np.errstate(over="ignore"):  # an overflowing residual is inf, which fails
        if hermitian and np.max(np.abs(m - _dagger(m))) > 1e-10:
            raise ValueError(f"{name} must be Hermitian within 1e-10")
    return m


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the master equation from t = 0 to t = T.  For a
    stack of B systems every field but ``times`` leads with the stack axis.
    The stored per-sample quantity is the fidelity; the angle Theta_t is
    formed from it on each access to ``thetas``."""

    times: np.ndarray            # (n,) increasing, times[0] = 0
    coords: np.ndarray           # ([B,] n, dim^2) real coordinates of rho_t
    fidelities: np.ndarray       # ([B,] n) <psi0| rho_t |psi0> in [0, 1], 1 at t = 0
    fidelity_rates: np.ndarray   # ([B,] n) exact dF/dt = <psi0| L(rho_t) |psi0>
    trace_errors: np.ndarray     # ([B,] n) |tr rho_t - 1|, from the health check

    @property
    def states(self) -> np.ndarray:
        """The ([B,] n, dim, dim) density matrices, formed from ``coords``
        on each access; exactly Hermitian."""
        return _from_coords(self.coords)

    @property
    def thetas(self) -> np.ndarray:
        """The relative-purity angles arccos(F_t), formed from
        ``fidelities`` on each access; 0 at t = 0."""
        return np.arccos(self.fidelities)

    def columns(self) -> dict[str, np.ndarray]:
        """The trajectory file's columns: t, theta, fidelity, trace_err."""
        return {"t": self.times, "theta": self.thetas,
                "fidelity": self.fidelities, "trace_err": self.trace_errors}


def lindblad(h: np.ndarray, ops, rho: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """The Lindblad generator K rho + rho K^dag + sum_k M_k rho M_k^dag.

    Here K = -i h - (1/2) sum_k M_k^dag M_k, so this equals
    -i[h, rho] + sum_k D[M_k] rho.  ``rho``, ``h`` and each M_k may be
    stacks of shape (..., d, d) that broadcast against each other.
    ``adjoint=True`` evaluates the Hilbert-Schmidt dual
    i[h, rho] + sum_k D^dag[M_k] rho by swapping K -> K^dag and M_k -> M_k^dag.
    """
    h = np.asarray(h)
    rho = np.asarray(rho)
    if h.shape[-1] != rho.shape[-1]:
        raise ValueError(f"dimension mismatch: {h.shape[-1]} vs {rho.shape[-1]}")
    k = -1j * h
    jumps = []
    for m in ops:
        m = np.asarray(m)
        md = _dagger(m)
        k = k - 0.5 * (md @ m)
        jumps.append(md if adjoint else m)
    kd = _dagger(k)
    if adjoint:
        k, kd = kd, k
    out = k @ rho + rho @ kd
    for m in jumps:
        out = out + m @ rho @ _dagger(m)
    return out


def _dagger(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.swapaxes(x.conj(), -1, -2)


_SQRT2 = math.sqrt(2.0)


def _pairs(dim: int) -> list[tuple[int, int]]:
    """The entries (i, j), i > j, of the strict lower triangle, row by row."""
    return [(i, j) for i in range(dim) for j in range(i)]


def _to_coords(rho: np.ndarray) -> np.ndarray:
    """The real coordinates (..., d^2) of Hermitian matrices (..., d, d) in
    the orthonormal basis E_ii, then (E_ij + E_ji) / sqrt(2) and
    i (E_ij - E_ji) / sqrt(2) for each pair i > j in ``_pairs`` order:
    Re rho_ii, then sqrt(2) Re rho_ij and sqrt(2) Im rho_ij side by side.
    Only the diagonal and the lower triangle are read."""
    dim = rho.shape[-1]
    flat = rho.reshape(rho.shape[:-2] + (dim * dim,))
    low = np.take(flat, [i * dim + j for i, j in _pairs(dim)], axis=-1)
    return np.concatenate([flat[..., ::dim + 1].real, _SQRT2 * low.view(float)], axis=-1)


def _from_coords(x: np.ndarray) -> np.ndarray:
    """The Hermitian matrices (..., d, d) of real coordinates (..., d^2),
    the inverse of ``_to_coords``: rho_ji is written as the exact conjugate
    of rho_ij, so the result is Hermitian bit for bit."""
    dim = math.isqrt(x.shape[-1])
    low = (x[..., dim:] / _SQRT2).view(complex)
    rho = np.zeros(x.shape[:-1] + (dim * dim,), dtype=complex)
    rho[..., ::dim + 1] = x[..., :dim]
    rho[..., [i * dim + j for i, j in _pairs(dim)]] = low
    rho[..., [j * dim + i for i, j in _pairs(dim)]] = low.conj()
    return rho.reshape(x.shape[:-1] + (dim, dim))


@functools.lru_cache(maxsize=None)
def _basis(dim: int) -> np.ndarray:
    """The d^2 Hermitian basis matrices (d^2, d, d), B_k for coordinate k,
    built once per dimension and read-only."""
    basis = _from_coords(np.eye(dim * dim))
    basis.flags.writeable = False
    return basis


def _sample_times(T: float, dt: float) -> tuple[np.ndarray, int]:
    """The sample times 0, dt, 2 dt, ..., T and the number of full steps
    among them; a last step shorter than dt ends the grid on T."""
    if not 0 < T < math.inf:
        raise ValueError(f"T must be finite and > 0, got {T!r}")
    if not 0 < dt <= T:
        raise ValueError(f"dt must satisfy 0 < dt <= T, got dt = {dt!r} and T = {T!r}")
    steps = T / dt + 1e-9
    if steps == math.inf:
        raise ValueError(f"T / dt overflows: T = {T!r} and dt = {dt!r} give too many steps")
    n_full = int(np.floor(steps))
    n = n_full + (T - n_full * dt > 1e-12 * max(1.0, T))
    times = np.arange(n + 1) * dt
    times[-1] = T
    return times, n_full


def _check_states(times: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The (B, n) trace errors |tr rho - 1| of a (B, n, d^2) stack of real
    coordinates; raise IntegrationError for the first unhealthy system, at
    its earliest bad sample over the three checks (non-finite, trace,
    positivity).

    One pass, _SCREEN_MATRICES states at a time, reads each chunk
    coordinate-major: the diagonal as a (d, m) real copy and the lower
    triangle as a (d(d-1)/2, m) complex copy of the coordinates x_re + i
    x_im = sqrt(2) rho_ij, so every entry is one contiguous array over the
    chunk.  It keeps two residuals per state: the trace error (the sum of
    the diagonal coordinates) and the ``_positive_pivots`` verdict.  A
    non-finite coordinate fails one of them (a NaN trace error, or a
    non-finite pivot), so finiteness is taken only of a system that fails.
    The coordinates describe a Hermitian matrix exactly, so there is no
    Hermiticity check.

    A system whose residuals fail is judged from its rows, in stack order:
    the cheap checks (non-finite, trace) on every sample, and positivity on
    the samples before the first cheap failure, so a state that is already
    indefinite is named before a later one that has overflowed.  Only the
    samples there whose pivots failed are formed and given to ``eigvalsh``;
    a passing pivot proves lambda_min >= -POSITIVITY_TOL / 2 - O(1e-15), so
    the verdict, the time and the message are those of the eigenvalue
    check on every sample."""
    b, n, d2 = x.shape
    dim = math.isqrt(d2)
    flat = x.reshape(-1, d2)
    trace_err, pivots = np.empty(b * n), np.empty(b * n, bool)
    for start in range(0, len(flat), _SCREEN_MATRICES):
        chunk = slice(start, start + _SCREEN_MATRICES)
        diag = np.ascontiguousarray(flat[chunk, :dim].T)
        low = np.ascontiguousarray(flat[chunk, dim:].view(complex).T)
        np.abs(diag.sum(axis=0) - 1.0, out=trace_err[chunk])
        pivots[chunk] = _positive_pivots(diag, low)
    trace_err, pivots = trace_err.reshape(b, n), pivots.reshape(b, n)
    for k in np.flatnonzero(~((trace_err <= TRACE_TOL) & pivots).all(axis=1)):
        finite = np.isfinite(x[k]).all(axis=1)
        cheap = ~finite | (trace_err[k] > TRACE_TOL)
        head = int(np.argmax(cheap)) if cheap.any() else n
        suspect = np.flatnonzero(~pivots[k, :head])
        resid = -np.linalg.eigvalsh(_from_coords(x[k, suspect])).min(axis=1)
        bad = resid > POSITIVITY_TOL
        if bad.any():
            i, name, worst, tol = suspect[bad][0], "positivity", resid.max(), POSITIVITY_TOL
        elif head == n:
            continue
        elif not finite[head]:
            i, name, worst, tol = head, "non-finite", np.inf, 0.0
        else:
            i, name, worst, tol = head, "trace", np.nanmax(trace_err[k]), TRACE_TOL
        raise IntegrationError(f"{name} check failed at t = {times[i]:.6g}: worst residual "
                               f"{worst:.3g} exceeds tolerance {tol:.3g} "
                               "(step size too large for this system?)",
                               time=float(times[i]), check=name)
    return trace_err


def _positive_pivots(diag: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Per state of a chunk given by its diagonal rho_ii (d, m) and its
    lower-triangle coordinates sqrt(2) rho_ij (d(d-1)/2, m) in ``_pairs``
    order, whether every pivot of the LDL^H factorization of sqrt(2) (rho +
    (POSITIVITY_TOL / 2) I) is > 0: the diagonal is scaled to the
    coordinates' sqrt(2), which scales every pivot by sqrt(2) and keeps its
    sign.

    The factorization is unrolled over the lower triangle (LAPACK's 'L'),
    outer-product form, each entry one array over the chunk; the inputs are
    not written.  This is the success test of Cholesky, which is backward
    stable (Higham, Accuracy and Stability of Numerical Algorithms, ch.
    10), so True proves lambda_min >= -POSITIVITY_TOL / 2 - O(1e-15),
    inside the tolerance; False (a nan pivot included) proves nothing."""
    dim = len(diag)
    low = dict(zip(_pairs(dim), low))
    positive = np.ones(diag.shape[1], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pivots = list(_SQRT2 * (diag + 0.5 * POSITIVITY_TOL))
        for k in range(dim):
            positive &= pivots[k] > 0.0
            col = {i: low[i, k].conj() for i in range(k + 1, dim)}
            inv = 1.0 / pivots[k]
            for i in range(k + 1, dim):
                ratio = low[i, k] * inv
                for j in range(k + 1, i):
                    low[i, j] = low[i, j] - ratio * col[j]
                ratio *= col[i]
                pivots[i] -= ratio.real
    return positive


def _rk4_propagator(gen: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of dx/dt = gen x, which for constant gen is
    exactly the Taylor polynomial sum_{k<=4} (h gen)^k / k! (Horner form).
    ``gen`` may be a stack (..., m, m)."""
    eye = np.eye(gen.shape[-1])
    p = eye
    for k in (4.0, 3.0, 2.0, 1.0):
        p = eye + (h / k) * gen @ p
    return p


def _generator(spec: SystemSpec, u: float = 0.0) -> np.ndarray:
    """The master equation of every system of ``spec`` under the constant
    control u as a real (B, d^2, d^2) matrix G on the coordinates of
    ``_to_coords``: column k holds the coordinates of L(B_k), with B_k the
    Hermitian basis matrix of coordinate k, so dx/dt = G x.  L is
    ``lindblad``, applied to the d^2 basis matrices at once."""
    if spec.h_control is None:
        if u != 0.0:
            raise ValueError("control value supplied but spec has no control Hamiltonian")
        ham = spec.h_drift
    else:
        if np.any(abs(u) > spec.u_max + 1e-12):
            raise ValueError(f"|u| = {abs(u)} exceeds u_max = {spec.u_max}")
        ham = spec.h_drift + u * spec.h_control
    b, dim = math.prod(spec.shape), spec.dim

    def per_system(m):
        """(b, 1, d, d): one matrix per system, broadcast over the basis."""
        return np.broadcast_to(m, (b, dim, dim))[:, None]

    gen = lindblad(per_system(ham), [per_system(m) for m in spec.lindblad_ops], _basis(dim))
    return _to_coords(gen).transpose(0, 2, 1)


def integrate(spec: SystemSpec, T: float, dt: float = DEFAULT_DT, u: float = 0.0) -> Trajectory:
    """Propagate rho_0 = |psi0><psi0| of ``spec`` with fixed-step classical
    RK4; a stack of systems is propagated together.

    The sample times are ``_sample_times``' 0, dt, 2 dt, ... with the last
    step shortened so the final sample lands exactly on T.  The control u
    is constant and must stay within +-u_max of every system.  Each state
    is carried as its d^2 real coordinates x in an orthonormal Hermitian
    basis (``_to_coords``), on which the master equation is the real
    matrix G of ``_generator``.  The generators are time-invariant, so the
    sample after i full steps is P^i x_0 with P = _rk4_propagator(G, dt), a
    real stack of shape (B, d^2, d^2).  The samples are filled by doubling:
    with m filled, the next m are one stacked product with P^m, and P^2m =
    P^m P^m; the last block is clipped, and a shortened last step is one
    product with its own propagator.  These are the RK4 iterates up to
    roundoff, computed in about 2 log2(n) products instead of n.  The basis
    is orthonormal, so F_t = x_0 . x_t and ``fidelity_rates`` = x_0 . G x_t,
    the exact dF/dt of the sampled states under this u: one product, whose
    (rate, fidelity) pairs the two fields view.  F_t is clipped into [0, 1]
    in place and is exactly 1 at t = 0.  The returned ``Trajectory`` keeps
    the coordinates and forms the density matrices only when ``states`` is
    read, and the angles only when ``thetas`` is; the states are Hermitian
    by construction.  The
    states of the stack are checked together (``_check_states``); a
    failure names the first unhealthy system in stack order and its
    earliest bad sample, and overflow of an unstable step raises no numpy
    warning.  Every member of a stack equals ``integrate`` of that system
    alone, bit for bit.
    """
    times, n_full = _sample_times(T, dt)
    n = len(times) - 1
    gen = _generator(spec, u)
    b, d2 = gen.shape[:2]
    x = np.empty((b, n + 1, d2))
    x[:, 0] = _to_coords(linalg.outer(np.broadcast_to(spec.psi0, (b, spec.dim))))
    # dF/dt = x_0 . G x_t and F = x_0 . x_t: two columns, multiplied into
    # every sample by one product
    probes = np.stack([np.matmul(x[:, :1], gen)[:, 0], x[:, 0]], axis=-1)
    # unstable steps overflow; _check_states then names the first bad sample
    with np.errstate(over="ignore", invalid="ignore"):
        # samples are rows, x[:, i] = x[:, 0] (P^i)^T: with m samples
        # filled, the next m are x[:, :m] (P^m)^T, then P^2m = P^m P^m
        power = _rk4_propagator(gen, dt).transpose(0, 2, 1)
        m = 1
        while m <= n_full:
            k = min(m, n_full + 1 - m)
            np.matmul(x[:, :k], power, out=x[:, m:m + k])
            m += k
            if m <= n_full:
                power = power @ power
        if n > n_full:
            last = _rk4_propagator(gen, T - n_full * dt).transpose(0, 2, 1)
            np.matmul(x[:, n_full:n], last, out=x[:, n:])
        rates, fids = np.moveaxis(np.matmul(x, probes), -1, 0)
        np.clip(fids, 0.0, 1.0, out=fids)
        fids[:, 0] = 1.0
        trace_err = _check_states(times, x)
    if not spec.shape:
        x, fids, rates, trace_err = x[0], fids[0], rates[0], trace_err[0]
    return Trajectory(times, x, fids, rates, trace_err)


def theta_rate_check(traj: Trajectory, coeffs) -> np.ndarray:
    """Excess of the fidelity's decay rate over its bound, at every sample:

        -dF/dt - (A lambda_t + E),   lambda_t = sqrt(1 - F_t),

    with F_t = ``traj.fidelities``, dF/dt = ``traj.fidelity_rates``, A =
    ``coeffs.speed`` and E = ``coeffs.noise``; a stacked trajectory (B, n)
    is checked against coefficients of shape (B,).  This is the
    differential bound dTheta/dt <= (A lambda + E) / sin Theta multiplied by
    sin Theta.  For any density matrix it is <= 0 up to roundoff: -dF/dt =
    E - tr(X (rho_t - rho_0)) with X = L^dag(rho_0), sqrt(2) ||X||_F <= A
    and ||rho_t - rho_0||_F <= sqrt(2) lambda_t.
    """
    lam = np.sqrt(1.0 - traj.fidelities)
    a, e = (np.asarray(c)[..., None] for c in (coeffs.speed, coeffs.noise))
    return -traj.fidelity_rates - (a * lam + e)
