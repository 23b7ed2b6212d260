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
radius in closed form (through the Lambert W branch W_{-1}); together with
the comparison bound T_DC = sqrt(2) lambda^2 / A this characterizes which
final states (or target gates) are compatible with a given control setup
and time budget.  ``generic_coefficients`` is the one route from a
``SystemSpec`` to (A or A', E): floats for one system, arrays for a stack.
It and ``qsl_time``, ``del_campo_time`` and ``max_reachable_radius`` work on
whole stacks of systems or coefficients at once.
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

#: Radii below this are indistinguishable from zero, and ``radius_from_fidelity``
#: reports them as 0: a simulated angle carries integrator roundoff and a
#: gate fidelity the roundoff of cos terms, so an unmoved state can come back
#: with lambda ~ 1e-8 of pure noise (fatal where A = 0, which maps any
#: nonzero radius to an infinite bound).
RADIUS_RESOLUTION = 1e-6


@dataclass(frozen=True)
class QslCoefficients:
    """The (speed, noise) pair feeding the time bound.

    ``speed`` multiplies the displacement term (A above) and ``noise`` is
    the dissipative floor (E above), both finite and nonnegative.  Both may
    be arrays of one shape, one entry per system of a stack.
    """

    speed: float | np.ndarray
    noise: float | np.ndarray

    def __post_init__(self):
        for name, x in (("A", self.speed), ("E", self.noise)):
            if not np.isfinite(x).all():
                raise ValueError(f"coefficient {name} is not finite: a rate or frequency "
                                 "is too large")
            if not (np.asarray(x) >= 0).all():
                raise ValueError("coefficients must be nonnegative")


def _scalar(x):
    """A Python float for a 0-d numpy result, the array itself otherwise."""
    return float(x) if x.ndim == 0 else x


def _coefficients(psi, h, ops=()) -> tuple[np.ndarray, np.ndarray]:
    """A and E for a stack of pure states ``psi`` of shape (n, d).

    ``h`` and each Lindblad operator are (d, d) or stacked (n, d, d).  With
    rho_i = |psi_i><psi_i| returns the arrays, of shape (n,),

        A_i = sqrt(2) ||lindblad(h, ops, rho_i, adjoint=True)||_F,
        E_i = sum_k (||M_k psi_i||^2 - |<psi_i|M_k|psi_i>|^2),  floored at 0.
    """
    psi = np.asarray(psi, dtype=complex)
    x = lindblad(h, ops, linalg.outer(psi), adjoint=True)
    a = math.sqrt(2.0) * np.linalg.norm(x, axis=(-2, -1))
    e = np.zeros(psi.shape[0])
    for m in ops:
        mpsi = (np.asarray(m) @ psi[:, :, None])[:, :, 0]
        e = e + (np.sum(mpsi.conj() * mpsi, axis=-1).real
                 - np.abs(np.sum(psi.conj() * mpsi, axis=-1)) ** 2)
    return a, np.maximum(e, 0.0)


def generic_coefficients(spec: SystemSpec) -> QslCoefficients:
    """A and E straight from the definitions, for one system (floats) or a
    stack (arrays of shape (B,)).

    With a control Hamiltonian the speed is the triangle-inequality A' for
    |u(t)| <= u_max: the drift, control and dissipator terms of A are taken
    separately and the control one is weighted by u_max.  For a pure state
    and Hermitian h each commutator term is sqrt(2) ||i[h, rho0]||_F =
    2 sqrt(<h^2> - <h>^2).
    """
    psi = np.broadcast_to(spec.psi0, (math.prod(spec.shape), spec.dim))
    with np.errstate(over="ignore", invalid="ignore"):  # QslCoefficients names the overflow
        if spec.has_control:
            a_noise, e = _coefficients(psi, np.zeros_like(spec.h_drift), spec.lindblad_ops)
            a = (_coefficients(psi, spec.h_drift)[0]
                 + spec.u_max * _coefficients(psi, spec.h_control)[0] + a_noise)
        else:
            a, e = _coefficients(psi, spec.h_drift, spec.lindblad_ops)
    return QslCoefficients(_scalar(a.reshape(spec.shape)), _scalar(e.reshape(spec.shape)))


def _regular(coeffs: QslCoefficients):
    """(A, E, A ok, E ok), with 1 added to the degenerate entries of A and E
    so the generic formulas stay finite and warning-free there.  Scalars
    stay scalars: numpy arithmetic on 0-d arrays costs a microsecond an op."""
    a, e = coeffs.speed, coeffs.noise
    a_deg, e_deg = a < DEGENERACY_EPS, e < DEGENERACY_EPS
    return a + a_deg, e + e_deg, ~np.asarray(a_deg), ~np.asarray(e_deg)


def qsl_time(coeffs: QslCoefficients, lam):
    """Minimum-time bound T*(lambda).

    Degenerate limits (thresholds at DEGENERACY_EPS) are substituted
    analytically: lambda = 0 -> 0; E -> 0 gives 2 lambda / A; A -> 0 gives
    lambda^2 / E; A = E = 0 with lambda > 0 is unreachable (+inf).  The log
    term is evaluated as -E log1p(A lambda / E) to stay accurate for small
    E.  Coefficients and ``lam`` broadcast; all-scalar input gives a float.
    """
    a, e, a_ok, e_ok = _regular(coeffs)
    t = 2.0 * lam / a
    # each limit is evaluated only if some entry needs it: the closed-form
    # gate bounds pass E = 0 throughout, and most stacks have every A > 0
    if e_ok.any():
        t = np.where(e_ok, t - (2.0 / (a * a)) * e * np.log1p(a * lam / e), t)
    if not a_ok.all():
        t = np.where(a_ok, t, np.where(e_ok, lam * lam / e, np.inf))
    return _scalar(np.where(lam > 0.0, t, 0.0))


def del_campo_time(coeffs: QslCoefficients, lam):
    """Comparison bound T_DC = sqrt(2) lambda^2 / A of del Campo et al.
    (PRL 110, 050403 (2013)) for a pure rho_0.

    F_t = tr(rho_0 rho_t) has dF/dt = tr(L^dag(rho_0) rho_t), which
    Cauchy-Schwarz with ||rho_t||_F <= 1 bounds by ||L^dag(rho_0)||_F =
    A / sqrt(2); so lambda^2 = 1 - F_T <= A T / sqrt(2).  lambda = 0 gives
    0 and A below DEGENERACY_EPS gives +inf.  Coefficients and ``lam``
    broadcast; all-scalar input gives a float.  Unlike T*, its ratio to T*
    depends on E / A as well as on A lambda / E, so no single crossover
    value of A lambda / E decides which bound is larger.
    """
    a, _, a_ok, _ = _regular(coeffs)
    t = np.where(a_ok, math.sqrt(2.0) * lam * lam / a, np.inf)
    return _scalar(np.where(lam > 0.0, t, 0.0))


def _log1p_root(c: np.ndarray) -> np.ndarray:
    """The root v >= 0 of v - log1p(v) = c >= 0, i.e. -W_{-1}(-e^{-1-c}) - 1.

    Solving in v avoids the underflow of e^{-1-c} at large c.  The start is
    the branch-point series p + p^2/3 + p^3/36 (p = sqrt(2c)) for c < 2 and
    c + log1p(c) above; two Halley steps then reach about 1e-15 relative.
    Below c = 1e-7 the series alone is exact to 1e-13 while the residual
    v - log1p(v) - c loses its digits to cancellation, so it is kept as is.
    c = inf (an overflowed A^2 T / 2E) gives v = inf, not the NaN of the steps.
    """
    p = np.sqrt(2.0 * np.minimum(c, 2.0))
    series = p + p * p / 3.0 + p ** 3 / 36.0
    v = np.where(c < 2.0, series, c + np.log1p(c))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(2):
            f = v - np.log1p(v) - c
            v = v - 2.0 * f * (1.0 + 1.0 / v) / (2.0 - f / (v * v))
    return np.where(c < 1e-7, series, np.where(c < np.inf, v, c))


def max_reachable_radius(coeffs: QslCoefficients, T):
    """Largest lambda in [0, 1] with T*(lambda) <= T, in closed form.

    With v = A lambda / E and c = A^2 T / (2E), T*(lambda) = T reads
    v - log1p(v) = c, so lambda = (E / A) v with v = -W_{-1}(-e^{-1-c}) - 1
    (Lambert W; Corless et al., Adv. Comput. Math. 5, 329 (1996)).  The
    degenerate limits are E -> 0: A T / 2; A -> 0: sqrt(E T); A = E = 0: 0.
    The result is capped at 1 and is 0 at T = 0; T must be finite.
    Coefficients and ``T`` broadcast; all-scalar input gives a float.
    """
    t = np.asarray(T)
    if not (np.isfinite(t) & (t >= 0)).all():
        raise ValueError(f"T must be finite and >= 0, got {T!r}")
    a, e, a_ok, e_ok = _regular(coeffs)
    with np.errstate(over="ignore"):  # c = inf: v = inf, capped to 1 below
        c = a * a * T / (2.0 * e)
    lam = np.where(e_ok, e / a * _log1p_root(c), a * T / 2.0)
    lam = np.minimum(np.where(a_ok, lam, np.where(e_ok, np.sqrt(e * T), 0.0)), 1.0)
    # The root lands within rounding of T on either side of the evaluated
    # bound; a few ulps down restore qsl_time(lambda) <= T wherever T* is
    # well conditioned, so the radius is never overstated.
    for _ in range(3):
        lam = np.where(qsl_time(coeffs, lam) > T, np.nextafter(lam, 0.0), lam)
    return _scalar(lam)


def radius_from_angle(theta: float) -> float:
    """lambda = sqrt(1 - cos Theta) for Theta in [0, pi/2]."""
    if not 0.0 <= theta <= math.pi / 2 + 1e-12:
        raise ValueError(f"theta must lie in [0, pi/2], got {theta!r}")
    return math.sqrt(max(1.0 - math.cos(theta), 0.0))


def radius_from_fidelity(fidelity):
    """lambda = sqrt(1 - f), the fidelity clamped into [0, 1] and radii below
    RADIUS_RESOLUTION zeroed, for a gate's fidelity or the cos Theta_T of a
    simulated angle; takes arrays, and gives a float for a scalar."""
    lam = np.sqrt(1.0 - np.minimum(np.maximum(fidelity, 0.0), 1.0))
    return _scalar(np.where(lam < RADIUS_RESOLUTION, 0.0, lam))
