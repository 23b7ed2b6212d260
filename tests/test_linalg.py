import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from qslreach import linalg

SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)


def random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class TestFrobeniusNorm:
    def test_zero(self):
        assert linalg.frobenius_norm(np.zeros((3, 3))) == 0.0

    def test_identity(self):
        for n in (1, 2, 3, 4):
            assert_allclose(linalg.frobenius_norm(np.eye(n)), np.sqrt(n))

    def test_matches_trace_route(self):
        # independent route: sqrt(Tr(X^dag X))
        x = random_matrix(np.random.default_rng(4), 4)
        via_trace = np.sqrt(np.trace(x.conj().T @ x).real)
        assert_allclose(linalg.frobenius_norm(x), via_trace, atol=1e-12)

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_invariant_under_dagger(self, seed):
        m = random_matrix(np.random.default_rng(seed), 3)
        assert_allclose(
            linalg.frobenius_norm(m), linalg.frobenius_norm(m.conj().T), atol=1e-12
        )


class TestTraceOuterExpectationApply:
    def test_expectation_excited_state(self):
        sz = np.diag([1.0, -1.0]).astype(complex)
        assert_allclose(linalg.expectation(np.array([1.0, 0.0]), sz), 1.0 + 0j)

    def test_outer_is_projector(self):
        psi = random_state(np.random.default_rng(6), 4)
        proj = linalg.outer(psi)
        assert_allclose(proj, proj.conj().T, atol=1e-12)
        assert_allclose(proj @ proj, proj, atol=1e-10)
        assert_allclose(np.trace(proj), 1.0, atol=1e-12)

    def test_expectation_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            linalg.expectation(np.array([1.0, 0.0]), np.eye(3))


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

    def test_is_hermitian(self):
        assert linalg.is_hermitian(np.diag([1.0, 2.0]))
        assert not linalg.is_hermitian(SIGMA_MINUS)
