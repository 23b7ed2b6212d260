"""Markovian master-equation integration and the relative-purity angle.

The density matrix evolves under

    drho/dt = L(rho) = -i [H, rho] + sum_k D[M_k] rho,
    D[M] rho = M rho M^dag - (M^dag M rho + rho M^dag M) / 2,

with hbar = 1 and a pure initial state rho_0 = |psi_0><psi_0|.  L is written
once, in ``lindblad``; ``master_rhs``, the integrator (via L as a d^2 x d^2
matrix) and, through its adjoint, ``qsl``'s A all call it.  The distance of
the evolved state from the initial one is tracked through the fidelity
F_t = <psi_0| rho_t |psi_0> and the relative-purity angle

    Theta_t = arccos(F_t),   0 <= Theta_t <= pi/2.

Trajectories produced here are the ground truth that every speed-limit
bound in this package is validated against, so states are *checked*
(Hermiticity, unit trace, positivity) rather than silently repaired.  Each
trajectory also carries the exact fidelity rate dF/dt = <psi_0| L(rho_t)
|psi_0>, against which ``theta_rate_check`` tests the differential bound.

``integrate_many`` is the one step loop: it steps a stack of systems of one
dimension together, one (B, d^2, d^2) propagator product per step, and
``integrate`` is its single-system case.  Positivity is screened by one
Cholesky factorization per trajectory; the eigenvalue solve runs only when
the screen fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg

#: Tolerances for trajectory health checks.
HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-9
POSITIVITY_TOL = 1e-8

#: Default integration step (units of 1/Omega with hbar = 1).
DEFAULT_DT = 1e-3

#: Complex entries (trials x samples x d^2) per ``integrate_many`` stack that
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
    """Initial state plus generators of the master equation.

    ``u_max`` bounds the admissible control amplitude and is required
    exactly when a control Hamiltonian is present.
    """

    psi0: np.ndarray
    h_drift: np.ndarray
    h_control: np.ndarray | None = None
    u_max: float = 0.0
    lindblad_ops: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        psi0 = linalg.as_state(self.psi0)
        h_drift = linalg.as_matrix(self.h_drift)
        dim = psi0.shape[0]
        if h_drift.shape[0] != dim:
            raise ValueError("h_drift dimension does not match psi0")
        if not linalg.is_hermitian(h_drift, 1e-10):
            raise ValueError("h_drift must be Hermitian within 1e-10")
        h_control = self.h_control
        if h_control is not None:
            h_control = linalg.as_matrix(h_control)
            if h_control.shape[0] != dim:
                raise ValueError("h_control dimension does not match psi0")
            if not linalg.is_hermitian(h_control, 1e-10):
                raise ValueError("h_control must be Hermitian within 1e-10")
            if self.u_max < 0:
                raise ValueError("u_max must be >= 0")
        ops = tuple(linalg.as_matrix(m) for m in self.lindblad_ops)
        for m in ops:
            if m.shape[0] != dim:
                raise ValueError("Lindblad operator dimension does not match psi0")
        object.__setattr__(self, "psi0", psi0)
        object.__setattr__(self, "h_drift", h_drift)
        object.__setattr__(self, "h_control", h_control)
        object.__setattr__(self, "u_max", float(self.u_max))
        object.__setattr__(self, "lindblad_ops", ops)

    @property
    def dim(self) -> int:
        return self.psi0.shape[0]

    @property
    def has_control(self) -> bool:
        return self.h_control is not None


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the master equation from t = 0 to t = T."""

    times: np.ndarray            # (n,) increasing, times[0] = 0
    states: np.ndarray           # (n, dim, dim) density matrices
    thetas: np.ndarray           # (n,) relative-purity angles, thetas[0] = 0
    fidelity_rates: np.ndarray   # (n,) exact dF/dt = <psi0| L(rho_t) |psi0>
    psi0: np.ndarray = field(repr=False, default=None)

    @property
    def fidelities(self) -> np.ndarray:
        """<psi0| rho_t |psi0> = cos(Theta_t) per sample."""
        return np.cos(self.thetas)

    @property
    def trace_errors(self) -> np.ndarray:
        return np.abs(np.einsum("tii->t", self.states) - 1.0)

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


def _hamiltonian(spec: SystemSpec, u: float) -> np.ndarray:
    """H_drift + u H_control, checking that u is admissible for ``spec``."""
    if spec.h_control is None:
        if u != 0.0:
            raise ValueError("control value supplied but spec has no control Hamiltonian")
        return spec.h_drift
    if abs(u) > spec.u_max + 1e-12:
        raise ValueError(f"|u| = {abs(u)} exceeds u_max = {spec.u_max}")
    return spec.h_drift + u * spec.h_control


def master_rhs(spec: SystemSpec, u: float, rho: np.ndarray) -> np.ndarray:
    """Right-hand side -i[H_drift + u H_control, rho] + sum_k D[M_k] rho."""
    return lindblad(_hamiltonian(spec, u), spec.lindblad_ops, rho)


def _step_sizes(T: float, dt: float) -> np.ndarray:
    if T <= 0:
        raise ValueError("T must be > 0")
    if not 0 < dt <= T:
        raise ValueError("dt must satisfy 0 < dt <= T")
    n_full = int(np.floor(T / dt + 1e-9))
    rem = T - n_full * dt
    if rem > 1e-12 * max(1.0, T):
        return np.concatenate([np.full(n_full, dt), [rem]])
    return np.full(n_full, dt)


def _check_states(times: np.ndarray, states: np.ndarray) -> None:
    """Raise IntegrationError at the first unhealthy state; positivity is
    checked only once the cheap checks pass everywhere.

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
    if not bad.any():
        try:
            np.linalg.cholesky(states + 0.5 * POSITIVITY_TOL * np.eye(states.shape[-1]))
            return
        except np.linalg.LinAlgError:
            pass
        checks = [("positivity", -np.linalg.eigvalsh(states).min(axis=1), POSITIVITY_TOL)]
        bad = np.array([r > tol for _, r, tol in checks])
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
    """Propagate rho_0 = |psi0><psi0| with fixed-step classical RK4: the
    single-system case of ``integrate_many``."""
    return integrate_many([spec], T, dt, u)[0]


def integrate_many(specs, T: float, dt: float = DEFAULT_DT, u: float = 0.0) -> list[Trajectory]:
    """Propagate each rho_0 = |psi0><psi0| of ``specs`` with fixed-step
    classical RK4, all systems in one step loop.

    The specs must share one dimension.  The sample times are 0, dt,
    2 dt, ... with the last step shortened so the final sample lands
    exactly on T.  The control u is constant and must stay within +-u_max of
    every spec.  The generators are time-invariant, so each RK4 step is one
    product with the stack of matrices _rk4_propagator(L, dt), shape
    (B, d^2, d^2).  Each trajectory's ``fidelity_rates`` evaluate its L at
    every sample, so they are the exact dF/dt of the sampled states under
    this u.  States are checked trajectory by trajectory, in stack order, so
    a failure names the first unhealthy system.  Every trajectory equals
    ``integrate`` of its spec alone, bit for bit.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("at least one system is required")
    dim = specs[0].dim
    if any(s.dim != dim for s in specs):
        raise ValueError("all systems of one stack must share one dimension")
    steps = _step_sizes(T, dt)
    d2 = dim ** 2
    # zero operators add nothing to L: pad every spec to the same count
    n_ops = max(len(s.lindblad_ops) for s in specs)
    zero = np.zeros((dim, dim), dtype=complex)
    padded = [s.lindblad_ops + (zero,) * (n_ops - len(s.lindblad_ops)) for s in specs]
    ops = [np.stack(ms)[:, None] for ms in zip(*padded)]
    hams = np.stack([_hamiltonian(s, u) for s in specs])[:, None]
    basis = np.eye(d2, dtype=complex).reshape(d2, dim, dim)
    gen = lindblad(hams, ops, basis).reshape(len(specs), d2, d2).transpose(0, 2, 1)

    n = len(steps)
    vecs = np.empty((len(specs), n + 1, d2), dtype=complex)
    vecs[:, 0] = np.stack([linalg.outer(s.psi0).reshape(d2) for s in specs])
    # dF/dt = vec(rho_0)^dag L vec(rho_t): one row vector, then one product
    rate_rows = np.matmul(vecs[:, :1].conj(), gen)
    p = _rk4_propagator(gen, dt)
    for i, h in enumerate(steps):
        if h != dt:
            p = _rk4_propagator(gen, h)
        np.matmul(p, vecs[:, i, :, None], out=vecs[:, i + 1, :, None])
    rates = np.matmul(vecs, rate_rows.transpose(0, 2, 1))[..., 0].real
    states = vecs.reshape(len(specs), n + 1, dim, dim)
    times = np.arange(n + 1) * dt
    times[-1] = T

    trajs = []
    for spec, states_b, rates_b in zip(specs, states, rates):
        _check_states(times, states_b)
        fids = np.einsum("i,tij,j->t", spec.psi0.conj(), states_b, spec.psi0).real
        thetas = np.arccos(np.clip(fids, 0.0, 1.0))
        thetas[0] = 0.0
        trajs.append(Trajectory(times=times, states=states_b, thetas=thetas,
                                fidelity_rates=rates_b, psi0=spec.psi0))
    return trajs


def theta_rate_check(traj: Trajectory, coeffs) -> np.ndarray:
    """Excess of the fidelity's decay rate over its bound, at every sample:

        -dF/dt - (A lambda_t + E),   lambda_t = sqrt(1 - F_t),

    with F_t = cos Theta_t, dF/dt = ``traj.fidelity_rates``, A =
    ``coeffs.speed`` and E = ``coeffs.noise``.  This is the differential
    bound dTheta/dt <= (A lambda + E) / sin Theta multiplied by sin Theta.
    For any density matrix it is <= 0 up to roundoff: -dF/dt = E -
    tr(X (rho_t - rho_0)) with X = L^dag(rho_0), sqrt(2) ||X||_F <= A and
    ||rho_t - rho_0||_F <= sqrt(2) lambda_t.
    """
    lam = np.sqrt(np.maximum(1.0 - traj.fidelities, 0.0))
    return -traj.fidelity_rates - (coeffs.speed * lam + coeffs.noise)
