import numpy as np
import pytest
from numpy.testing import assert_allclose

from qslreach import linalg


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class TestTraceOuterExpectationApply:
    def test_outer_is_projector(self):
        psi = random_state(np.random.default_rng(6), 4)
        proj = linalg.outer(psi)
        assert_allclose(proj, proj.conj().T, atol=1e-12)
        assert_allclose(proj @ proj, proj, atol=1e-10)
        assert_allclose(np.trace(proj), 1.0, atol=1e-12)


class TestValidation:
    def test_as_matrix_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            linalg.as_matrix(np.zeros((2, 3)))

    def test_as_matrix_rejects_nonfinite(self):
        m = np.eye(2, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            linalg.as_matrix(m)

    def test_as_state_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="unit norm"):
            linalg.as_state(np.array([1.0, 1.0]))

    def test_as_state_accepts_unit_vectors(self):
        psi = random_state(np.random.default_rng(7), 3)
        assert_allclose(linalg.as_state(psi), psi)
