"""Closed-form and per-trial references that the tests check the package
against."""

import math

import numpy as np

from qslreach import qsl
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
