"""Lower bounds on evolution time and the reachable radius they define.

Distances from the initial state are measured by the radius

    lambda = sqrt(1 - F_T) = sqrt(1 - cos Theta_T),   0 <= lambda <= 1,

with F_T the fidelity of the final state to the initial one, and the
minimum time needed to reach radius lambda is bounded by

    T >= T* = 2 lambda / A + (2 E / A^2) ln(E / (E + A lambda)),

where the two coefficients are computed from the initial state and the
generators:

    A = sqrt(2) || i [H, rho_0] + sum_k D^dag[M_k] rho_0 ||_F,
    E = sum_k ( ||M_k psi_0||^2 - |<psi_0| M_k |psi_0>|^2 ).

Both are read off one operator, X_0 = L^dag(rho_0), the adjoint generator
applied to rho_0: A = sqrt(2) ||X_0||_F, and E comes from the same M_k psi_0
that form it.  Under a control u(t) with |u(t)| <= u_max the operator is
L_u^dag(rho_0) = X_h + u X_c + X_n, with

    X_h = i[H_drift, rho_0],  X_c = i[H_control, rho_0],
    X_n = sum_k D^dag[M_k] rho_0,

and the triangle inequality gives the controlled variant

    A' = sqrt(2) ( ||X_h||_F + u_max ||X_c||_F + ||X_n||_F ).

``_adjoint_stacks`` is the one place these operators are formed: (X_0,) or
(X_h, X_c, X_n) for every member of a stack, a chunk of members at a time,
with E.  For a pure rho_0 each is formed from state vectors alone, as
a psi_0^dag + psi_0 a^dag + sum_k b_k b_k^dag with a = i H psi_0 - (1/2)
sum_k M_k^dag M_k psi_0 and b_k = M_k^dag psi_0 (H = 0 in X_n, no M_k in
X_h and X_c); ``dynamics.lindblad(..., adjoint=True)`` is the dense
reference they are tested against.

Inverting T*(lambda) at a fixed horizon T yields the largest reachable
radius in closed form (through the Lambert W branch W_{-1}); together with
the comparison bound T_DC = sqrt(2) lambda^2 / A this characterizes which
final states (or target gates) are compatible with a given control setup
and time budget.  ``generic_coefficients`` is the one route from a
``SystemSpec`` to (A or A', E): floats for one system, arrays for a stack.
It and ``qsl_time``, ``del_campo_time`` and ``max_reachable_radius`` work on
whole stacks of systems or coefficients at once.  ``radius_from_fidelity``
is the one map from a fidelity to lambda: a simulated F_T, a gate's
closed-form fidelity or the cos Theta_T of a target angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .dynamics import SystemSpec

#: Coefficients below this are treated as exactly degenerate; the limits of
#: T* are removable there and are substituted analytically.
DEGENERACY_EPS = 1e-14

#: Radii below this are indistinguishable from zero, and ``radius_from_fidelity``
#: reports them as 0: a simulated fidelity carries integrator roundoff and a
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


def _adjoint_stacks(spec: SystemSpec):
    """The operator stacks behind A and A', with E, a chunk of members at a
    time: yields each chunk's slice of the stack, its stacks of shape
    (chunk, d, d) and its E of shape (chunk,).

    Uncontrolled, the one stack is X_0 = L^dag(rho_0); with a control
    Hamiltonian it is the three terms that A' takes apart, (X_h, X_c, X_n):
    i[H_drift, rho_0], i[H_control, rho_0] and sum_k D^dag[M_k] rho_0.
    Each is formed from state vectors: with a = i h psi - (1/2) sum_k
    M_k^dag (M_k psi) (h = 0 for X_n, no M_k for X_h and X_c) and b_k =
    M_k^dag psi it is a psi^dag + psi a^dag + sum_k b_k b_k^dag, so each
    operator costs three mat-vecs instead of d x d products, and its M_k
    psi serves E = sum_k (||M_k psi||^2 - |<psi|M_k|psi>|^2), floored at 0.
    A norm is to be taken of these sums, never of an inner-product expansion
    of them, which would cancel to about sqrt(eps) A near an eigenstate and
    hide A = 0 from DEGENERACY_EPS.

    The stacks of one chunk together stay within ``dynamics.CHUNK_BYTES``:
    stacked fields are sliced and shared ones passed whole.  A member's
    arithmetic does not depend on its chunk, so neither do its bits.
    """
    n, d = math.prod(spec.shape), spec.dim
    psi = np.broadcast_to(spec.psi0, (n, d))
    hams = (spec.h_drift, spec.h_control, None) if spec.has_control else (spec.h_drift,)
    step = max(1, dynamics.CHUNK_BYTES // (16 * d * d * len(hams)))
    for s in (slice(i, i + step) for i in range(0, n, step)):
        p, ops = psi[s], [m if m.ndim == 2 else m[s] for m in spec.lindblad_ops]
        col, e, jumps = p[:, :, None], np.zeros(len(p)), []
        # a of each term; the dissipator's part joins the last one
        vecs = [0 if h is None else 1j * ((h if h.ndim == 2 else h[s]) @ col) for h in hams]
        for m in ops:
            md, mpsi = dynamics._dagger(m), m @ col
            vecs[-1] = vecs[-1] - 0.5 * (md @ mpsi)
            jumps.append(md @ col)
            mpsi = mpsi[:, :, 0]
            e = e + (np.sum(mpsi.conj() * mpsi, axis=-1).real
                     - np.abs(np.sum(p.conj() * mpsi, axis=-1)) ** 2)
        xs = [y + dynamics._dagger(y) for y in (a * p.conj()[:, None, :] for a in vecs)]
        for b in jumps:
            xs[-1] = xs[-1] + b * dynamics._dagger(b)
        yield s, tuple(xs), np.maximum(e, 0.0)


def generic_coefficients(spec: SystemSpec) -> QslCoefficients:
    """A and E straight from the definitions, for one system (floats) or a
    stack (arrays of shape (B,)): A = sqrt(2) ||X_0||_F of the one stack of
    ``_adjoint_stacks``.

    With a control Hamiltonian the speed is the triangle-inequality A' for
    |u(t)| <= u_max, read off the three stacks: (A_h + u_max A_c) + A_n,
    each A_k = sqrt(2) ||X_k||_F.  For a pure state and Hermitian h each
    commutator term is sqrt(2) ||i[h, rho0]||_F = 2 sqrt(<h^2> - <h>^2).
    The stacks come a chunk of members at a time, so beyond the (B,)
    results the working memory does not grow with B.
    """
    n = math.prod(spec.shape)
    a, e = np.empty(n), np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):  # QslCoefficients names the overflow
        for s, xs, e_s in _adjoint_stacks(spec):
            e[s] = e_s
            a_h, *rest = (math.sqrt(2.0) * np.linalg.norm(x, axis=(-2, -1)) for x in xs)
            a[s] = (a_h + np.broadcast_to(spec.u_max, n)[s] * rest[0]) + rest[1] if rest else a_h
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
    E.  Above A ~ 1.34e154, where A^2 overflows a double, the same bound is
    evaluated as (2 / A)(lambda - (E / A) log1p(A lambda / E)), with the
    log1p taken as log A + log lambda - log E where A lambda / E overflows
    too; any finite coefficients give a finite T* and no numpy warning.
    Coefficients and ``lam`` broadcast; all-scalar input gives a float.
    """
    a, e, a_ok, e_ok = _regular(coeffs)
    t = 2.0 * lam / a
    # each limit is evaluated only if some entry needs it: the closed-form
    # gate bounds pass E = 0 throughout, and most stacks have every A > 0
    if e_ok.any():
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            v = a * lam / e
            t = np.where(e_ok, t - (2.0 / (a * a)) * e * np.log1p(v), t)
            big = e_ok & (a * a == np.inf)
            if big.any():  # the same bound without A^2, log1p(v) from logs where v = inf
                log_v = np.where(v < np.inf, np.log1p(v), np.log(a) + np.log(lam) - np.log(e))
                t = np.where(big, 2.0 / a * (lam - e / a * log_v), t)
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
    with np.errstate(over="ignore"):  # an overflow is inf, capped to 1 below
        c = a * a * T / (2.0 * e)
        lam = np.where(e_ok, e / a * _log1p_root(c), a * T / 2.0)
        lam = np.minimum(np.where(a_ok, lam, np.where(e_ok, np.sqrt(e * T), 0.0)), 1.0)
    # The root lands within rounding of T on either side of the evaluated
    # bound; a few ulps down restore qsl_time(lambda) <= T wherever T* is
    # well conditioned, so the radius is never overstated.  Each pass checks
    # the whole grid: an entry that one pass leaves in place passes every
    # later one too, so only the entries still over T move.
    for _ in range(3):
        lam = np.where(qsl_time(coeffs, lam) > T, np.nextafter(lam, 0.0), lam)
    return _scalar(lam)


def radius_from_fidelity(fidelity):
    """lambda = sqrt(1 - f), the fidelity clamped into [0, 1] and radii below
    RADIUS_RESOLUTION zeroed, for a simulated F_T (``check_bound``), a
    closed-form gate fidelity (both gate bounds) or the cos of a target
    angle; the one reader of RADIUS_RESOLUTION.  Takes arrays, and gives a
    float for a scalar."""
    lam = np.sqrt(1.0 - np.minimum(np.maximum(fidelity, 0.0), 1.0))
    return _scalar(np.where(lam < RADIUS_RESOLUTION, 0.0, lam))
