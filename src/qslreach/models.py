"""Concrete systems: single qubit, Bell pairs under collective decay, qutrit.

Conventions follow the Bloch parametrization with |0> the excited state and
|1> the ground state, so the energy-decay operator is sigma_- = |1><0|.
Each model's ``SystemSpec`` comes from ``qubit_spec``, ``bell_spec`` or
``qutrit_spec``, and its coefficients from ``qsl.generic_coefficients``;
the gate families also have closed forms that cross-check it.
Angles in ``QubitParams.theta`` and ``GateParams`` and the Bell decay rate
may be arrays: ``qubit_state`` gives a stack of states, ``qubit_spec`` and
``bell_spec`` a stacked ``SystemSpec``, ``su2_gate``/``so3_gate`` an
(n, d, d) stack of gates, ``gate_fidelity`` broadcasts states against
gates, and the closed-form gate functions evaluate elementwise.  Each
member of a stack equals the single call bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qsl
from .dynamics import SystemSpec

_SQ2 = math.sqrt(2.0)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |1><0|, decay |0> -> |1>

SPIN1_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / _SQ2
SPIN1_Y = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / _SQ2
SPIN1_Z = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)

BELL_LABELS = ("phi-plus", "phi-minus", "psi-plus", "psi-minus")

_ANGLE_SLACK = 1e-9

#: sigma_- x I + I x sigma_-, the collective lowering operator at gamma = 1.
_COLLECTIVE = np.kron(SIGMA_MINUS, np.eye(2)) + np.kron(np.eye(2), SIGMA_MINUS)


def _check_angle(name: str, x, hi: float, hi_text: str) -> None:
    """Raise unless the angle ``x``, or every entry of an array of angles,
    lies in [0, hi] (within _ANGLE_SLACK)."""
    ok = (x >= 0.0) & (x <= hi + _ANGLE_SLACK)
    if not np.asarray(ok).all():
        bad = np.asarray(x, dtype=float)[~np.asarray(ok)]
        raise ValueError(f"{name} must lie in [0, {hi_text}], got {bad.flat[0].item()!r}")


def _check_rate(name: str, x, positive: bool = False) -> None:
    """Raise unless the rate ``x``, or every entry of an array of rates, is
    finite and >= 0 (> 0 when ``positive``)."""
    ok = np.isfinite(x) & ((x > 0.0) if positive else (x >= 0.0))
    if not np.asarray(ok).all():
        bad = np.asarray(x, dtype=float)[~np.asarray(ok)]
        raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, "
                         f"got {bad.flat[0].item()!r}")


@dataclass(frozen=True)
class QubitParams:
    """Initial-state angles and rates for the qubit models.

    theta, phi parametrize |psi0> = [cos(theta), e^{i phi} sin(theta)];
    omega is the drive frequency, gamma the decay rate, u_max the control
    amplitude bound.
    """

    theta: float
    phi: float = 0.0
    omega: float = 1.0
    gamma: float = 0.0
    u_max: float = 0.0

    def __post_init__(self):
        _check_angle("theta", self.theta, math.pi, "pi")
        _check_angle("phi", self.phi, math.pi, "pi")
        _check_rate("omega", self.omega, positive=True)
        _check_rate("gamma", self.gamma)
        _check_rate("u_max", self.u_max)


@dataclass(frozen=True)
class GateParams:
    """Rotation angles (alpha, beta, delta) of a target gate."""

    alpha: float
    beta: float
    delta: float = 0.0

    def __post_init__(self):
        _check_angle("alpha", self.alpha, 2 * math.pi, "2pi")
        _check_angle("beta", self.beta, math.pi, "pi")
        _check_angle("delta", self.delta, 4 * math.pi, "4pi")


def qubit_state(p: QubitParams) -> np.ndarray:
    """|psi0> = [cos(theta), e^{i phi} sin(theta)]; a stack of shape (n, 2)
    when theta is an array of n angles."""
    theta = np.asarray(p.theta, dtype=float)
    return np.stack([np.cos(theta) + 0j, np.exp(1j * p.phi) * np.sin(theta)], axis=-1)


def qubit_spec(p: QubitParams, with_control: bool = False) -> SystemSpec:
    """Qubit system.

    Without control: H = omega sigma_z with decay M = sqrt(gamma) sigma_-.
    With control (gate analysis, no decoherence): drift omega sigma_x,
    control sigma_z bounded by u_max.  An array of angles theta gives a
    stack of initial states sharing these generators.
    """
    psi0 = qubit_state(p)
    if with_control:
        return SystemSpec(
            psi0=psi0,
            h_drift=p.omega * PAULI_X,
            h_control=PAULI_Z,
            u_max=p.u_max,
        )
    ops = (math.sqrt(p.gamma) * SIGMA_MINUS,) if p.gamma > 0 else ()
    return SystemSpec(psi0=psi0, h_drift=p.omega * PAULI_Z, lindblad_ops=ops)


def _matrices(*entries) -> np.ndarray:
    """The complex (..., d, d) stack whose d*d entries, in row order, are
    the broadcast ``entries``."""
    entries = np.broadcast_arrays(*entries)
    d = math.isqrt(len(entries))
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (d, d)).astype(complex)


def su2_gate(g: GateParams) -> np.ndarray:
    """G(alpha, beta, delta) = Rz(alpha) Ry(beta) Rz(delta) on a qubit; a
    stack of shape (n, 2, 2) when the angles are arrays of n entries."""
    alpha, beta, delta = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                               for x in (g.alpha, g.beta, g.delta)))
    cb, sb = np.cos(beta / 2), np.sin(beta / 2)
    rz_a, rz_d = (_matrices(np.exp(-0.5j * x), 0, 0, np.exp(0.5j * x)) for x in (alpha, delta))
    return rz_a @ _matrices(cb, -sb, sb, cb) @ rz_d


def gate_fidelity(psi0: np.ndarray, gate: np.ndarray):
    """|<psi0| G |psi0>|^2 for a state (d,) or stack of states (n, d) and a
    gate (d, d) or stack of gates (n, d, d); a float for one of each."""
    psi0 = np.asarray(psi0, dtype=complex)
    gate = np.asarray(gate)
    if gate.shape[-1] != psi0.shape[-1]:
        raise ValueError(f"dimension mismatch: {gate.shape[-1]} vs {psi0.shape[-1]}")
    amp = (psi0.conj()[..., None, :] @ (gate @ psi0[..., None]))[..., 0, 0]
    # libm hypot and pow, as in abs(z) ** 2 of one complex: np.abs of an
    # array and x * x round differently in the last bit
    return qsl._scalar(np.minimum(np.float_power(np.hypot(amp.real, amp.imag), 2.0), 1.0))


def qubit_gate_radius(theta: float, g: GateParams):
    """Closed form of sqrt(1 - fidelity) for the su2 gate family at phi = 0:

    sqrt(1 - cos^2(a/2) cos^2(b/2) - sin^2(a/2) cos^2(2 th + b/2)).
    """
    ca, sa = np.cos(g.alpha / 2), np.sin(g.alpha / 2)
    cb = np.cos(g.beta / 2)
    cmix = np.cos(2 * theta + g.beta / 2)
    return qsl._scalar(np.sqrt(np.maximum(1.0 - ca * ca * cb * cb - sa * sa * cmix * cmix, 0.0)))


def qubit_gate_time_bound(p: QubitParams, g: GateParams):
    """Minimum time to implement G(alpha, beta) with drift omega sigma_x and
    control |u| <= u_max, from the initial angle theta:

        T* = qubit_gate_radius / (omega |cos 2th| + u_max |sin 2th|).

    The denominator is A'/2.  Where it vanishes (below 1e-12) no drive term
    moves the state and the qsl_time convention applies: T* = inf, or 0 for
    gates whose radius is below RADIUS_RESOLUTION (the identity up to
    roundoff).  Angles of theta and the gate broadcast, elementwise.
    """
    if p.phi != 0.0:
        raise ValueError("the closed-form gate bound assumes phi = 0")
    if np.asarray(g.delta != 0.0).any():
        raise ValueError("the closed-form gate bound assumes delta = 0")
    denom = p.omega * np.abs(np.cos(2 * p.theta)) + p.u_max * np.abs(np.sin(2 * p.theta))
    radius = qubit_gate_radius(p.theta, g)
    moving = denom >= 1e-12
    still = np.where(radius < qsl.RADIUS_RESOLUTION, 0.0, np.inf)
    return qsl._scalar(np.where(moving, radius / np.where(moving, denom, 1.0), still))


def bell_state(label: str) -> np.ndarray:
    """One of the four maximally entangled two-qubit states."""
    s = 1.0 / _SQ2
    vectors = {
        "phi-plus": np.array([s, 0, 0, s], dtype=complex),
        "phi-minus": np.array([s, 0, 0, -s], dtype=complex),
        "psi-plus": np.array([0, s, s, 0], dtype=complex),
        "psi-minus": np.array([0, -s, s, 0], dtype=complex),
    }
    if label not in vectors:
        raise ValueError(f"label must be one of {BELL_LABELS}, got {label!r}")
    return vectors[label]


def collective_decay(gamma) -> np.ndarray:
    """Collective lowering operator sqrt(gamma) (sigma_- x I + I x sigma_-);
    a stack of shape (n, 4, 4) when gamma is an array of n rates."""
    _check_rate("gamma", gamma)
    return np.sqrt(np.asarray(gamma, dtype=float))[..., None, None] * _COLLECTIVE


def bell_spec(label: str, gamma) -> SystemSpec:
    """Bell state evolving under collective decay alone (H = 0); a stack
    sharing the state when gamma is an array of rates."""
    return SystemSpec(
        psi0=bell_state(label),
        h_drift=np.zeros((4, 4), dtype=complex),
        lindblad_ops=(collective_decay(gamma),),
    )


#: The worked qutrit initial state [1, 0, 1]/sqrt(2) (theta = pi, phi = pi/2).
QUTRIT_PSI0 = np.array([1.0, 0.0, 1.0], dtype=complex) / _SQ2


def qutrit_spec(omega: float, u_max: float) -> SystemSpec:
    """Qutrit with drift omega S_x and control S_z bounded by u_max."""
    _check_rate("omega", omega, positive=True)
    _check_rate("u_max", u_max)
    return SystemSpec(
        psi0=QUTRIT_PSI0,
        h_drift=omega * SPIN1_X,
        h_control=SPIN1_Z.copy(),
        u_max=u_max,
    )


def so3_gate(g: GateParams) -> np.ndarray:
    """Three-dimensional rotation G(alpha, beta, delta) = Rz(delta) Rx(alpha) Ry(beta).

    Rx, Ry, Rz are the standard 3x3 rotation blocks about the x, y, z axes.
    Ry is applied first; this composition reproduces the closed-form gate
    fidelity of :func:`qutrit_gate_fidelity` and the displayed special
    gates, which the more obvious Ry-then-Rx order does not.  Arrays of n
    angles give a stack of shape (n, 3, 3).
    """
    alpha, beta, delta = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                               for x in (g.alpha, g.beta, g.delta)))
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cd, sd = np.cos(delta), np.sin(delta)
    rx = _matrices(ca, -sa, 0, sa, ca, 0, 0, 0, 1)
    ry = _matrices(cb, 0, sb, 0, 1, 0, -sb, 0, cb)
    rz = _matrices(1, 0, 0, 0, cd, -sd, 0, sd, cd)
    return rz @ rx @ ry


def qutrit_gate_fidelity(g: GateParams):
    """Closed-form cos(Theta_T) for the qutrit gate family from [1,0,1]/sqrt(2):

    (cos a cos b + cos a sin b + cos b - sin b)^2 / 4.
    """
    ca, cb = np.cos(g.alpha), np.cos(g.beta)
    sb = np.sin(g.beta)
    val = 0.25 * (ca * cb + ca * sb + cb - sb) ** 2
    return qsl._scalar(np.minimum(val, 1.0))


def qutrit_gate_time_bound(omega: float, u_max: float, g: GateParams):
    """Minimum time to implement the qutrit rotation G(alpha, beta):

        T* = sqrt(1 - cos Theta_T) / (omega + u_max).
    """
    _check_rate("omega", omega, positive=True)
    _check_rate("u_max", u_max)
    if np.asarray(g.delta != 0.0).any():
        raise ValueError("the closed-form gate bound assumes delta = 0")
    return qsl.radius_from_fidelity(qutrit_gate_fidelity(g)) / (omega + u_max)
