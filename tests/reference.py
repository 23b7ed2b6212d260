"""Closed-form references that the tests check the package against."""

import math

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
