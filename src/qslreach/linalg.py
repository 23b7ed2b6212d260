"""The state check and the projector for small dense states: the models use
d <= 4, and ``verify --dims`` draws random systems up to d = 16.

Pure states are unit-norm complex vectors, ``numpy.ndarray`` of complex128,
and may carry leading stack axes, (..., d); ``as_state`` checks a whole
stack at once, and ``outer`` forms the projectors |psi><psi| of a stack.
Neither mutates its argument.  ``SystemSpec`` checks its operators in
``dynamics``.
"""

from __future__ import annotations

import numpy as np

STATE_NORM_TOL = 1e-12


def as_state(psi) -> np.ndarray:
    """Validate and return a unit-norm pure state vector, or a stack of them."""
    v = np.asarray(psi, dtype=complex)
    if v.ndim < 1 or v.shape[-1] < 1:
        raise ValueError(f"expected a state vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("state amplitudes must be finite")
    nrm = np.linalg.norm(v, axis=-1)
    bad = np.abs(nrm - 1.0) > STATE_NORM_TOL
    if bad.any():
        raise ValueError(f"state must have unit norm, got ||psi|| = {nrm[bad].flat[0].item()!r}")
    return v


def outer(psi: np.ndarray) -> np.ndarray:
    """Projector |psi><psi| (Hermitian, idempotent, trace one); (..., d, d)
    for a stack of states (..., d)."""
    v = np.asarray(psi, dtype=complex)
    return v[..., :, None] * v[..., None, :].conj()

