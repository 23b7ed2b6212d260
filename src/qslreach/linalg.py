"""Validation and a few products for small dense operators and states: the
models use d <= 4, and ``verify --dims`` draws random systems up to d = 16.

Matrices are plain ``numpy.ndarray`` of complex128, square and dense; pure
states are unit-norm complex vectors.  Either may carry leading stack axes,
(..., d, d) and (..., d), and every check covers the whole stack at once.
Besides the input checks (``as_matrix``, ``as_state``) this module holds
only what the rest of the package calls: the projector |psi><psi|.  Every
operation returns a fresh array and never mutates its arguments.
``SystemSpec`` checks its Hamiltonians' Hermiticity in ``dynamics``.
"""

from __future__ import annotations

import numpy as np

STATE_NORM_TOL = 1e-12


def as_matrix(m) -> np.ndarray:
    """Validate and return a dense square complex matrix, or a stack of them."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] < 1:
        raise ValueError("matrix dimension must be >= 1")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix entries must be finite")
    return a


def as_state(psi) -> np.ndarray:
    """Validate and return a unit-norm pure state vector, or a stack of them."""
    v = np.asarray(psi, dtype=complex)
    if v.ndim < 1 or v.shape[-1] < 1:
        raise ValueError(f"expected a state vector, got shape {v.shape}")
    if not np.all(np.isfinite(v.view(float))):
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

