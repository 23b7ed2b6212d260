"""Markovian master-equation integration and the relative-purity angle.

The density matrix evolves under

    drho/dt = L(rho) = -i [H, rho] + sum_k D[M_k] rho,
    D[M] rho = M rho M^dag - (M^dag M rho + rho M^dag M) / 2,

with hbar = 1 and a pure initial state rho_0 = |psi_0><psi_0|.  L is written
once, in ``lindblad``; the integrator (via L as a d^2 x d^2 matrix) and,
through its adjoint, ``qsl``'s A both call it.  The distance of the evolved
state from the initial one is tracked through the fidelity
F_t = <psi_0| rho_t |psi_0> and the relative-purity angle

    Theta_t = arccos(F_t),   0 <= Theta_t <= pi/2.

Trajectories produced here are the ground truth that every speed-limit
bound in this package is validated against, so states are *checked*
(Hermiticity, unit trace, positivity) rather than silently repaired.  Each
trajectory also carries the exact fidelity rate dF/dt = <psi_0| L(rho_t)
|psi_0>, against which ``theta_rate_check`` tests the differential bound.

A ``SystemSpec`` is one system or a stack of systems of one dimension, and
``integrate`` is the one integrator for both: it propagates the whole stack
together, filling the samples by doubling (about 2 log2(n) stacked products
for n steps).  Positivity is screened by one Cholesky factorization per
trajectory; the eigenvalue solve runs only when the screen fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg

#: Tolerances for trajectory health checks.
HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-9
POSITIVITY_TOL = 1e-8

#: Default integration step (units of 1/Omega with hbar = 1).
DEFAULT_DT = 1e-3

#: Complex entries (trials x samples x d^2) per ``integrate`` stack that
#: callers aim for: 4 MB of states.
STACK_ENTRIES = 2 ** 18


class IntegrationError(RuntimeError):
    """A trajectory state violated the health check named by ``check``
    ("non-finite", "Hermiticity", "trace" or "positivity") at ``time``; the
    message gives the check's worst residual and its tolerance."""

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
    system of the stack.  ``u_max`` bounds the admissible control amplitude
    and is required exactly when a control Hamiltonian is present.
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
    if hermitian and not linalg.is_hermitian(m, 1e-10):
        raise ValueError(f"{name} must be Hermitian within 1e-10")
    return m


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the master equation from t = 0 to t = T.  For a
    stack of B systems every field but ``times`` leads with the stack axis."""

    times: np.ndarray            # (n,) increasing, times[0] = 0
    states: np.ndarray           # ([B,] n, dim, dim) density matrices
    thetas: np.ndarray           # ([B,] n) relative-purity angles, 0 at t = 0
    fidelity_rates: np.ndarray   # ([B,] n) exact dF/dt = <psi0| L(rho_t) |psi0>

    @property
    def fidelities(self) -> np.ndarray:
        """<psi0| rho_t |psi0> = cos(Theta_t) per sample."""
        return np.cos(self.thetas)

    @property
    def trace_errors(self) -> np.ndarray:
        return np.abs(np.einsum("...ii->...", self.states) - 1.0)

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


def _step_sizes(T: float, dt: float) -> np.ndarray:
    if not 0 < T < math.inf:
        raise ValueError(f"T must be finite and > 0, got {T!r}")
    if not 0 < dt <= T:
        raise ValueError("dt must satisfy 0 < dt <= T")
    n_full = int(np.floor(T / dt + 1e-9))
    rem = T - n_full * dt
    if rem > 1e-12 * max(1.0, T):
        return np.concatenate([np.full(n_full, dt), [rem]])
    return np.full(n_full, dt)


def _check_states(times: np.ndarray, states: np.ndarray) -> None:
    """Raise IntegrationError at the earliest unhealthy state over all four
    checks.  The cheap checks (non-finite, Hermiticity, trace) run on every
    sample; positivity runs on the samples before the first cheap failure,
    so a state that is already indefinite is named before a later one that
    has overflowed.

    Positivity is first screened by one Cholesky factorization of
    states + (POSITIVITY_TOL / 2) I.  It is backward stable, so success
    proves lambda_min >= -POSITIVITY_TOL / 2 - O(1e-15) for every state and
    the check passes; only if it fails are the eigenvalues computed, so the
    verdict and the message are those of the eigenvalue check alone."""
    finite = np.isfinite(states.view(float)).reshape(states.shape[0], -1).all(axis=1)
    checks = [
        ("non-finite", np.where(finite, 0.0, np.inf), 0.0),
        ("Hermiticity", np.abs(states - states.conj().transpose(0, 2, 1)).max(axis=(1, 2)),
         HERMITICITY_TOL),
        ("trace", np.abs(np.einsum("tii->t", states) - 1.0), TRACE_TOL),
    ]
    bad = np.array([r > tol for _, r, tol in checks])
    head = states[:int(np.argmax(bad.any(axis=0)))] if bad.any() else states
    try:
        np.linalg.cholesky(head + 0.5 * POSITIVITY_TOL * np.eye(states.shape[-1]))
    except np.linalg.LinAlgError:
        resid = -np.linalg.eigvalsh(head).min(axis=1)
        if (resid > POSITIVITY_TOL).any():
            checks = [("positivity", resid, POSITIVITY_TOL)]
            bad = resid[None] > POSITIVITY_TOL
    if not bad.any():
        return
    i = int(np.argmax(bad.any(axis=0)))
    j = int(np.argmax(bad[:, i]))
    name, resid, tol = checks[j]
    raise IntegrationError(
        f"{name} check failed at t = {times[i]:.6g}: worst residual "
        f"{resid[bad[j]].max():.3g} exceeds tolerance {tol:.3g} "
        "(step size too large for this system?)",
        time=float(times[i]),
        check=name,
    )


def _rk4_propagator(gen: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of dx/dt = gen x, which for constant gen is
    exactly the Taylor polynomial sum_{k<=4} (h gen)^k / k! (Horner form).
    ``gen`` may be a stack (..., m, m)."""
    eye = np.eye(gen.shape[-1])
    p = eye
    for k in (4.0, 3.0, 2.0, 1.0):
        p = eye + (h / k) * gen @ p
    return p


def integrate(spec: SystemSpec, T: float, dt: float = DEFAULT_DT, u: float = 0.0) -> Trajectory:
    """Propagate rho_0 = |psi0><psi0| of ``spec`` with fixed-step classical
    RK4; a stack of systems is propagated together.

    The sample times are 0, dt, 2 dt, ... with the last step shortened so
    the final sample lands exactly on T.  The control u is constant and must
    stay within +-u_max of every system.  The generators are time-invariant,
    so the sample after i full steps is P^i vec(rho_0) with P =
    _rk4_propagator(L, dt), a stack of shape (B, d^2, d^2).  The samples are
    filled by doubling: with m filled, the next m are one stacked product
    with P^m, and P^2m = P^m P^m; the last block is clipped, and a shortened
    last step is one product with its own propagator.  These are the RK4
    iterates up to roundoff, computed in about 2 log2(n) products instead of
    n.  ``fidelity_rates`` evaluate each system's L at every sample, so they
    are the exact dF/dt of the sampled states under this u.  States are
    checked system by system, in stack order, so a failure names the first
    unhealthy system; overflow of an unstable step raises no numpy warning.
    Every member of a stack equals ``integrate`` of that system alone, bit
    for bit.
    """
    steps = _step_sizes(T, dt)
    if spec.h_control is None:
        if u != 0.0:
            raise ValueError("control value supplied but spec has no control Hamiltonian")
        ham = spec.h_drift
    else:
        if np.any(abs(u) > spec.u_max + 1e-12):
            raise ValueError(f"|u| = {abs(u)} exceeds u_max = {spec.u_max}")
        ham = spec.h_drift + u * spec.h_control
    b, dim = math.prod(spec.shape), spec.dim
    d2 = dim ** 2

    def per_system(m):
        """(b, 1, d, d): one matrix per system, broadcast over the basis."""
        return np.broadcast_to(m, (b, dim, dim))[:, None]

    basis = np.eye(d2, dtype=complex).reshape(d2, dim, dim)
    gen = lindblad(per_system(ham), [per_system(m) for m in spec.lindblad_ops], basis)
    gen = gen.reshape(b, d2, d2).transpose(0, 2, 1)

    n = len(steps)
    n_full = n if steps[-1] == dt else n - 1
    vecs = np.empty((b, n + 1, d2), dtype=complex)
    vecs[:, 0] = linalg.outer(np.broadcast_to(spec.psi0, (b, dim))).reshape(b, d2)
    # dF/dt = vec(rho_0)^dag L vec(rho_t) and F = vec(rho_0)^dag vec(rho_t):
    # two row vectors, multiplied into every sample by one product
    probes = np.concatenate([np.matmul(vecs[:, :1].conj(), gen), vecs[:, :1].conj()], axis=1)
    times = np.arange(n + 1) * dt
    times[-1] = T
    states = vecs.reshape(b, n + 1, dim, dim)
    # unstable steps overflow; _check_states then names the first bad sample
    with np.errstate(over="ignore", invalid="ignore"):
        # samples are rows, vecs[:, i] = vecs[:, 0] (P^i)^T: with m samples
        # filled, the next m are vecs[:, :m] (P^m)^T, then P^2m = P^m P^m
        power = _rk4_propagator(gen, dt).transpose(0, 2, 1)
        m = 1
        while m <= n_full:
            k = min(m, n_full + 1 - m)
            np.matmul(vecs[:, :k], power, out=vecs[:, m:m + k])
            m += k
            if m <= n_full:
                power = power @ power
        if n > n_full:
            np.matmul(vecs[:, n_full:n], _rk4_propagator(gen, steps[-1]).transpose(0, 2, 1),
                      out=vecs[:, n:])
        rates, fids = np.moveaxis(np.matmul(vecs, probes.transpose(0, 2, 1)).real, -1, 0)
        thetas = np.arccos(np.clip(fids, 0.0, 1.0))
        thetas[:, 0] = 0.0
        for states_b in states:
            _check_states(times, states_b)
    if not spec.shape:
        states, thetas, rates = states[0], thetas[0], rates[0]
    return Trajectory(times=times, states=states, thetas=thetas, fidelity_rates=rates)


def theta_rate_check(traj: Trajectory, coeffs) -> np.ndarray:
    """Excess of the fidelity's decay rate over its bound, at every sample:

        -dF/dt - (A lambda_t + E),   lambda_t = sqrt(1 - F_t),

    with F_t = cos Theta_t, dF/dt = ``traj.fidelity_rates``, A =
    ``coeffs.speed`` and E = ``coeffs.noise``; a stacked trajectory (B, n)
    is checked against coefficients of shape (B,).  This is the
    differential bound dTheta/dt <= (A lambda + E) / sin Theta multiplied by
    sin Theta.  For any density matrix it is <= 0 up to roundoff: -dF/dt =
    E - tr(X (rho_t - rho_0)) with X = L^dag(rho_0), sqrt(2) ||X||_F <= A
    and ||rho_t - rho_0||_F <= sqrt(2) lambda_t.
    """
    lam = np.sqrt(np.maximum(1.0 - traj.fidelities, 0.0))
    a, e = (np.asarray(c)[..., None] for c in (coeffs.speed, coeffs.noise))
    return -traj.fidelity_rates - (a * lam + e)
