"""Lower bounds on evolution time and the reachable radius they define.

Distances from the initial state are measured by the radius

    lambda = sqrt(1 - cos Theta_T),   0 <= lambda <= 1,

and the minimum time needed to reach radius lambda is bounded by

    T >= T* = 2 lambda / A + (2 E / A^2) ln(E / (E + A lambda)),

where the two coefficients are computed from the initial state and the
generators:

    A = sqrt(2) || i [H, rho_0] + sum_k D^dag[M_k] rho_0 ||_F,
    E = sum_k ( ||M_k psi_0||^2 - |<psi_0| M_k |psi_0>|^2 ).

The operator inside A is the adjoint generator
``dynamics.lindblad(..., adjoint=True)`` applied to rho_0, term by term in A'.

For a bounded control |u(t)| <= u_max the triangle inequality gives the
controlled variant

    A' = sqrt(2) ( ||i[H_drift, rho_0]||_F
                   + u_max ||i[H_control, rho_0]||_F
                   + ||sum_k D^dag[M_k] rho_0||_F ).

Inverting T*(lambda) at a fixed horizon T yields the largest reachable
radius; together with the comparison bound T_DC = sqrt(2) lambda / A this
characterizes which final states (or target gates) are compatible with a
given control setup and time budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dynamics import SystemSpec, lindblad

#: Coefficients below this are treated as exactly degenerate; the limits of
#: T* are removable there and are substituted analytically.
DEGENERACY_EPS = 1e-14

#: Bisection tolerance for the reachable-radius inversion.
RADIUS_TOL = 1e-10

#: Root of 1 - ln(1+x)/x = 1/sqrt(2) with x = A*lambda/E: for x above this
#: value the logarithmic bound T* exceeds the comparison bound T_DC, below
#: it the ordering flips.  Frozen from a brentq root solve.
DEL_CAMPO_CROSSOVER = 7.17248972434648


@dataclass(frozen=True)
class QslCoefficients:
    """The (speed, noise) pair feeding the time bound.

    ``speed`` multiplies the displacement term (A above) and ``noise`` is
    the dissipative floor (E above); ``source`` records how they were
    obtained: "generic", "controlled", or "closed_form".
    """

    speed: float
    noise: float
    source: str = "generic"

    def __post_init__(self):
        if self.speed < 0 or self.noise < 0:
            raise ValueError("coefficients must be nonnegative")
        if self.source not in ("generic", "controlled", "closed_form"):
            raise ValueError(f"unknown coefficient source {self.source!r}")


def speed_coefficient(spec: SystemSpec) -> float:
    """A = sqrt(2) ||i[H, rho0] + sum_k D^dag[M_k] rho0||_F (uncontrolled)."""
    if spec.has_control:
        raise ValueError("spec has a control Hamiltonian; use controlled_speed_coefficient")
    x = lindblad(spec.h_drift, spec.lindblad_ops, linalg.outer(spec.psi0), adjoint=True)
    return math.sqrt(2.0) * linalg.frobenius_norm(x)


def controlled_speed_coefficient(spec: SystemSpec) -> float:
    """Triangle-inequality speed coefficient A' for |u(t)| <= u_max.

    For a pure state and Hermitian h each commutator term satisfies
    sqrt(2) ||i[h, rho0]||_F = 2 sqrt(<h^2> - <h>^2).
    """
    if not spec.has_control:
        raise ValueError("spec has no control Hamiltonian; use speed_coefficient")
    rho0 = linalg.outer(spec.psi0)
    terms = ((spec.h_drift, (), 1.0), (spec.h_control, (), spec.u_max),
             (np.zeros_like(rho0), spec.lindblad_ops, 1.0))
    norms = [w * linalg.frobenius_norm(lindblad(h, ops, rho0, adjoint=True))
             for h, ops, w in terms]
    return math.sqrt(2.0) * sum(norms)


def noise_coefficient(psi0: np.ndarray, lindblad_ops) -> float:
    """E = sum_k (||M_k psi0||^2 - |<psi0|M_k|psi0>|^2), nonnegative."""
    psi0 = linalg.as_state(psi0)
    total = 0.0
    for m in lindblad_ops:
        mpsi = np.asarray(m) @ psi0
        total += float(np.vdot(mpsi, mpsi).real - abs(np.vdot(psi0, mpsi)) ** 2)
    return max(total, 0.0)


def generic_coefficients(spec: SystemSpec) -> QslCoefficients:
    """Coefficients straight from the definitions, for any SystemSpec."""
    e = noise_coefficient(spec.psi0, spec.lindblad_ops)
    if spec.has_control:
        return QslCoefficients(controlled_speed_coefficient(spec), e, "controlled")
    return QslCoefficients(speed_coefficient(spec), e, "generic")


def qsl_time(coeffs: QslCoefficients, lam: float) -> float:
    """Minimum-time bound T*(lambda).

    Degenerate limits (thresholds at DEGENERACY_EPS) are substituted
    analytically: lambda = 0 -> 0; E -> 0 gives 2 lambda / A; A -> 0 gives
    lambda^2 / E; A = E = 0 with lambda > 0 is unreachable (+inf).  The log
    term is evaluated as -E log1p(A lambda / E) to stay accurate for small
    E.
    """
    a, e = coeffs.speed, coeffs.noise
    if lam <= 0.0:
        return 0.0
    if a < DEGENERACY_EPS and e < DEGENERACY_EPS:
        return math.inf
    if e < DEGENERACY_EPS:
        return 2.0 * lam / a
    if a < DEGENERACY_EPS:
        return lam * lam / e
    return 2.0 * lam / a - (2.0 / (a * a)) * e * math.log1p(a * lam / e)


def del_campo_time(coeffs: QslCoefficients, lam: float) -> float:
    """Comparison bound T_DC = sqrt(2) lambda / A."""
    if lam <= 0.0:
        return 0.0
    if coeffs.speed < DEGENERACY_EPS:
        return math.inf
    return math.sqrt(2.0) * lam / coeffs.speed


def max_reachable_radius(coeffs: QslCoefficients, T: float) -> float:
    """Largest lambda in [0, 1] with T*(lambda) <= T.

    T* is strictly increasing in lambda whenever it is finite, so bisection
    (to RADIUS_TOL, returning the inner bracket end) finds the supremum.
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    if T == 0.0:
        return 0.0
    if coeffs.speed < DEGENERACY_EPS and coeffs.noise < DEGENERACY_EPS:
        return 0.0
    if qsl_time(coeffs, 1.0) <= T:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > RADIUS_TOL:
        mid = 0.5 * (lo + hi)
        if qsl_time(coeffs, mid) <= T:
            lo = mid
        else:
            hi = mid
    return lo


def closed_system_radius_bound(psi0: np.ndarray, h: np.ndarray, T: float) -> float:
    """lambda <= sqrt(<h^2> - <h>^2) T for purely Hamiltonian evolution.

    May exceed 1, in which case it carries no information; callers clamp
    for display.
    """
    psi0 = linalg.as_state(psi0)
    h = linalg.as_matrix(h)
    if not linalg.is_hermitian(h, 1e-10):
        raise ValueError("h must be Hermitian within 1e-10")
    hpsi = h @ psi0
    var = float(np.vdot(hpsi, hpsi).real - np.vdot(psi0, hpsi).real ** 2)
    return math.sqrt(max(var, 0.0)) * T


def radius_from_angle(theta: float) -> float:
    """lambda = sqrt(1 - cos Theta) for Theta in [0, pi/2]."""
    if not 0.0 <= theta <= math.pi / 2 + 1e-12:
        raise ValueError(f"theta must lie in [0, pi/2], got {theta!r}")
    return math.sqrt(max(1.0 - math.cos(theta), 0.0))


def angle_from_radius(lam: float) -> float:
    """Theta = arccos(1 - lambda^2) for lambda in [0, 1]."""
    if not 0.0 <= lam <= 1.0 + 1e-12:
        raise ValueError(f"lambda must lie in [0, 1], got {lam!r}")
    return math.acos(min(max(1.0 - lam * lam, 0.0), 1.0))


def radius_from_fidelity(fidelity: float) -> float:
    """lambda = sqrt(1 - f) with the fidelity clamped into [0, 1]."""
    return math.sqrt(1.0 - min(max(fidelity, 0.0), 1.0))
