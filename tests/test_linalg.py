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
    def test_as_state_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="unit norm"):
            linalg.as_state(np.array([1.0, 1.0]))

    def test_as_state_accepts_unit_vectors(self):
        psi = random_state(np.random.default_rng(7), 3)
        assert_allclose(linalg.as_state(psi), psi)
