"""Closed-form and per-trial references that the tests check the package
against."""

import math

import numpy as np

from qslreach import linalg, qsl
from qslreach.dynamics import POSITIVITY_TOL, TRACE_TOL, SystemSpec, lindblad
from qslreach.models import QubitParams


def qubit_closed_form_coeffs(p: QubitParams) -> qsl.QslCoefficients:
    """Closed-form coefficients for the driven, decaying qubit:

    A = sqrt(2 g^2 cos^2(2 th) + (4 w^2 + g^2 / 4) sin^2(2 th)),
    E = g cos^4(th).
    """
    g, w, th = p.gamma, p.omega, p.theta
    s2, c2 = math.sin(2 * th), math.cos(2 * th)
    a = math.sqrt(2 * g * g * c2 * c2 + (4 * w * w + g * g / 4) * s2 * s2)
    e = g * math.cos(th) ** 4
    return qsl.QslCoefficients(a, e)


def draw_random_system(seed: int, dim: int, k: int):
    """One trial's random system drawn entry by entry, as ``psi0, H, M``.

    The per-trial construction that ``reachset.draw_random_system`` stacks:
    every norm is ``np.linalg.norm`` of one matrix or vector, and a zero H
    is left unscaled, with no strength drawn for it.
    """
    rng = np.random.default_rng([seed, dim, k])
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (x + x.conj().T) / 2
    nrm = np.linalg.norm(h)
    if nrm > 0:
        h = h / nrm * rng.uniform(0.0, 2.0)
    y = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = y / np.linalg.norm(y) * rng.uniform(0.0, 2.0)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi), h, m


def adjoint_operators(spec: SystemSpec) -> tuple[np.ndarray, ...]:
    """The dense operator stacks (B, d, d) behind A of every member of
    ``spec``, with rho = |psi><psi|: (lindblad(h, ops, rho, adjoint=True),),
    or for a controlled spec the three terms that A' takes apart,
    (i[H_drift, rho], i[H_control, rho],
    lindblad(np.zeros((d, d)), ops, rho, adjoint=True)).
    """
    psi = np.broadcast_to(spec.psi0, (math.prod(spec.shape), spec.dim))
    rho = linalg.outer(psi)
    if not spec.has_control:
        return (lindblad(spec.h_drift, spec.lindblad_ops, rho, adjoint=True),)
    return (1j * (spec.h_drift @ rho - rho @ spec.h_drift),
            1j * (spec.h_control @ rho - rho @ spec.h_control),
            lindblad(np.zeros_like(spec.h_drift), spec.lindblad_ops, rho, adjoint=True))


def adjoint_coefficients(spec: SystemSpec) -> tuple[np.ndarray, np.ndarray]:
    """A (A' for a controlled spec) and E of every member of ``spec``, as
    arrays of shape (B,), through the dense ``adjoint_operators``:

    A = sqrt(2) ||X||_F of the one operator, or for A' the drift, u_max
    times the control and the dissipator terms added;
    E = sum_k (||M_k psi||^2 - |<psi|M_k|psi>|^2) floored at 0, each M_k psi
    formed as one stacked ``m @ psi[:, :, None]``.
    """
    psi = np.broadcast_to(spec.psi0, (math.prod(spec.shape), spec.dim))
    speeds = [math.sqrt(2.0) * np.linalg.norm(x, axis=(-2, -1)) for x in adjoint_operators(spec)]
    a = speeds[0] + spec.u_max * speeds[1] + speeds[2] if spec.has_control else speeds[0]
    e = np.zeros(psi.shape[0])
    for m in spec.lindblad_ops:
        mpsi = (m @ psi[:, :, None])[:, :, 0]
        e = e + (np.sum(mpsi.conj() * mpsi, axis=-1).real
                 - np.abs(np.sum(psi.conj() * mpsi, axis=-1)) ** 2)
    return a, np.maximum(e, 0.0)


def complex_generator(h: np.ndarray, ops) -> np.ndarray:
    """L as a complex (d^2, d^2) matrix on vec(rho) (row-major), from
    ``lindblad`` applied to the d^2 matrix units E_ij."""
    dim = h.shape[-1]
    d2 = dim * dim
    units = np.eye(d2, dtype=complex).reshape(d2, dim, dim)
    return lindblad(h, ops, units).reshape(d2, d2).T


def hermitian_basis(dim: int) -> np.ndarray:
    """The orthonormal Hermitian basis (d^2, d, d), each matrix written out
    entry by entry: E_ii, then for each pair i > j, row by row,
    (E_ij + E_ji) / sqrt(2) and i (E_ij - E_ji) / sqrt(2)."""
    s = 1.0 / math.sqrt(2.0)
    out = []
    for i in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[i, i] = 1.0
        out.append(e)
    for i in range(dim):
        for j in range(i):
            re = np.zeros((dim, dim), dtype=complex)
            re[i, j] = re[j, i] = s
            im = np.zeros((dim, dim), dtype=complex)
            im[i, j], im[j, i] = 1j * s, -1j * s
            out += [re, im]
    return np.array(out)


def real_generator(h: np.ndarray, ops) -> np.ndarray:
    """U^dag L U with L = ``complex_generator`` and U the unitary whose
    column k is vec(B_k) of ``hermitian_basis``: the master equation on the
    real coordinates, as a complex matrix whose imaginary part is roundoff."""
    dim = h.shape[-1]
    u = hermitian_basis(dim).reshape(dim * dim, -1).T
    return u.conj().T @ complex_generator(h, ops) @ u


def health_verdict(times: np.ndarray, x: np.ndarray):
    """The health verdict on a (B, n, d^2) stack of real coordinates, by
    brute force: every state is formed entry by entry, rho_ii = x_i and
    rho_ij = (x_re + i x_im) / sqrt(2) for each pair i > j, and checked
    sample by sample.  None if every state is healthy; else (check, time,
    message) of the first unhealthy system in stack order, at its earliest
    bad sample.  The cheap checks (non-finite, trace) judge every sample,
    positivity (``eigvalsh`` of every state) the samples before the first
    cheap failure; the message gives the check's worst residual over the
    samples it judges."""
    b, n, d2 = x.shape
    dim = math.isqrt(d2)
    s = 1.0 / math.sqrt(2.0)
    states = np.zeros((b, n, dim, dim), dtype=complex)
    for i in range(dim):
        states.real[..., i, i] = x[..., i]
    pairs = [(i, j) for i in range(dim) for j in range(i)]
    for p, (i, j) in enumerate(pairs):
        re, im = x[..., dim + 2 * p] * s, x[..., dim + 2 * p + 1] * s
        states.real[..., i, j] = states.real[..., j, i] = re
        states.imag[..., i, j], states.imag[..., j, i] = im, -im
    for k in range(b):
        finite = np.isfinite(states[k]).all(axis=(-2, -1))
        with np.errstate(invalid="ignore"):  # inf - inf on the diagonal
            trace = np.abs(np.trace(states[k], axis1=-2, axis2=-1).real - 1.0)
        cheap = ~finite | (trace > TRACE_TOL)
        head = int(np.argmax(cheap)) if cheap.any() else n
        resid = -np.linalg.eigvalsh(states[k, :head]).min(axis=1)
        if (resid > POSITIVITY_TOL).any():
            i, check = int(np.argmax(resid > POSITIVITY_TOL)), "positivity"
            worst, tol = resid.max(), POSITIVITY_TOL
        elif head == n:
            continue
        elif not finite[head]:
            i, check, worst, tol = head, "non-finite", math.inf, 0.0
        else:
            i, check = head, "trace"
            worst, tol = trace[trace > TRACE_TOL].max(), TRACE_TOL
        return check, float(times[i]), (
            f"{check} check failed at t = {times[i]:.6g}: worst residual {worst:.3g} "
            f"exceeds tolerance {tol:.3g} (step size too large for this system?)")
    return None
