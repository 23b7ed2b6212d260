"""Validation and a few products for small (dim <= 4) operators and states.

Matrices are plain ``numpy.ndarray`` of complex128, square and dense; pure
states are unit-norm 1-D complex arrays.  Besides the input checks
(``as_matrix``, ``as_state``, ``is_hermitian``) this module holds only what
the rest of the package calls: the projector |psi><psi|.  Every operation
returns a fresh array and never mutates its arguments.
"""

from __future__ import annotations

import numpy as np

STATE_NORM_TOL = 1e-12


def as_matrix(m) -> np.ndarray:
    """Validate and return a dense square complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix entries must be finite")
    return a


def as_state(psi) -> np.ndarray:
    """Validate and return a unit-norm pure state vector."""
    v = np.asarray(psi, dtype=complex)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-D state vector, got shape {v.shape}")
    if not np.all(np.isfinite(v.view(float))):
        raise ValueError("state amplitudes must be finite")
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"state must have unit norm, got ||psi|| = {nrm!r}")
    return v


def outer(psi: np.ndarray) -> np.ndarray:
    """Projector |psi><psi| (Hermitian, idempotent, trace one)."""
    v = np.asarray(psi, dtype=complex)
    return np.outer(v, v.conj())


def is_hermitian(m: np.ndarray, tol: float = 1e-10) -> bool:
    a = np.asarray(m)
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)
