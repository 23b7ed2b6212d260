"""Closed-form and per-trial references that the tests check the package
against."""

import math

import numpy as np

from qslreach import linalg, qsl
from qslreach.dynamics import SystemSpec, lindblad
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


def adjoint_coefficients(spec: SystemSpec) -> tuple[np.ndarray, np.ndarray]:
    """A (A' for a controlled spec) and E of every member of ``spec``, as
    arrays of shape (B,), through the dense adjoint generator:

    A = sqrt(2) ||lindblad(h, ops, |psi><psi|, adjoint=True)||_F, with the
    drift, u_max times the control and the dissipator taken apart for A';
    E = sum_k (||M_k psi||^2 - |<psi|M_k|psi>|^2) floored at 0, each M_k psi
    formed as one stacked ``m @ psi[:, :, None]``.
    """
    psi = np.broadcast_to(spec.psi0, (math.prod(spec.shape), spec.dim))
    rho = linalg.outer(psi)

    def speed(h, ops=()):
        return math.sqrt(2.0) * np.linalg.norm(lindblad(h, ops, rho, adjoint=True),
                                               axis=(-2, -1))

    if spec.has_control:
        a = (speed(spec.h_drift) + spec.u_max * speed(spec.h_control)
             + speed(np.zeros_like(spec.h_drift), spec.lindblad_ops))
    else:
        a = speed(spec.h_drift, spec.lindblad_ops)
    e = np.zeros(psi.shape[0])
    for m in spec.lindblad_ops:
        mpsi = (m @ psi[:, :, None])[:, :, 0]
        e = e + (np.sum(mpsi.conj() * mpsi, axis=-1).real
                 - np.abs(np.sum(psi.conj() * mpsi, axis=-1)) ** 2)
    return a, np.maximum(e, 0.0)
