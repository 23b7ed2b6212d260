import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import reference

from qslreach import dynamics, linalg, qsl, reachset
from qslreach.dynamics import IntegrationError, SystemSpec, integrate
from qslreach.models import (
    PAULI_Z,
    QUTRIT_PSI0,
    SIGMA_MINUS,
    SPIN1_X,
    SPIN1_Z,
    QubitParams,
    bell_spec,
    qubit_spec,
    qutrit_spec,
)
from qslreach.reachset import draw_random_system

ZERO2 = np.zeros((2, 2), dtype=complex)
KET0 = np.array([1.0, 0.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
EXC = np.diag([1.0, 0.0]).astype(complex)   # |0><0|
GND = np.diag([0.0, 1.0]).astype(complex)   # |1><1|


def random_hermitian(rng, dim):
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (x + x.conj().T) / 2


def random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_density(rng, dim):
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def dissipator(m, rho, adjoint=False):
    """D[M] rho (or D^dag[M] rho): the generator with a zero Hamiltonian."""
    return dynamics.lindblad(np.zeros_like(m), (m,), rho, adjoint=adjoint)


class TestDissipators:
    def test_zero_operator(self):
        rho = random_density(np.random.default_rng(0), 3)
        assert_allclose(dissipator(np.zeros((3, 3)), rho), np.zeros((3, 3)))
        assert_allclose(dissipator(np.zeros((3, 3)), rho, adjoint=True), np.zeros((3, 3)))

    def test_amplitude_damping_on_excited_state(self):
        # hand evaluation: M rho M^dag = g |1><1|, the anticommutator gives g |0><0|
        g = 1.7
        m = math.sqrt(g) * SIGMA_MINUS
        assert_allclose(dissipator(m, EXC), g * (GND - EXC), atol=1e-12)

    def test_adjoint_on_excited_state(self):
        # M^dag rho M vanishes because sigma_+ |0> = 0
        g = 1.7
        m = math.sqrt(g) * SIGMA_MINUS
        assert_allclose(dissipator(m, EXC, adjoint=True), -g * EXC, atol=1e-12)

    def test_dissipator_is_traceless(self):
        rng = np.random.default_rng(1)
        for dim in (2, 3, 4):
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = random_density(rng, dim)
            out = dissipator(m, rho)
            assert abs(np.trace(out)) < 1e-12
            assert_allclose(out, out.conj().T, atol=1e-12)

    def test_bell_collective_decay_norm(self):
        # ||D^dag[M] rho0||_F = sqrt(5/2) for Phi+ with unit-rate collective decay
        from qslreach.models import bell_state, collective_decay

        rho0 = linalg.outer(bell_state("phi-plus"))
        out = dissipator(collective_decay(1.0), rho0, adjoint=True)
        assert_allclose(np.linalg.norm(out), math.sqrt(2.5), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            dissipator(np.eye(2), np.eye(3))


class TestLindblad:
    def test_dual_is_hilbert_schmidt_adjoint(self):
        # tr(X^dag L(Y)) = tr((L^dag X)^dag Y); A and integrate rely on both sides
        rng = np.random.default_rng(12)
        for dim in (2, 3, 4):
            for n_ops in (1, 2, 3):
                h = random_hermitian(rng, dim)
                ops = [random_matrix(rng, dim) for _ in range(n_ops)]
                x, y = random_matrix(rng, dim), random_matrix(rng, dim)
                lhs = np.vdot(x, dynamics.lindblad(h, ops, y))
                rhs = np.vdot(dynamics.lindblad(h, ops, x, adjoint=True), y)
                assert abs(lhs - rhs) < 1e-12

    def test_stacked_operators_match_loop(self):
        # h, the operators and rho stacked along a leading axis (one operator
        # shared by the whole stack) against one call per element
        rng = np.random.default_rng(8)
        n = 5
        for d in (2, 3, 4):
            h = np.stack([random_hermitian(rng, d) for _ in range(n)])
            m1 = np.stack([random_matrix(rng, d) for _ in range(n)])
            m2 = random_matrix(rng, d)
            rho = np.stack([random_density(rng, d) for _ in range(n)])
            for adjoint in (False, True):
                got = dynamics.lindblad(h, (m1, m2), rho, adjoint=adjoint)
                for i in range(n):
                    ref = dynamics.lindblad(h[i], (m1[i], m2), rho[i], adjoint=adjoint)
                    assert_allclose(got[i], ref, rtol=0, atol=1e-14)


def master_rhs(spec, u, rho):
    """L(rho) for the Hamiltonian H_drift + u H_control of ``spec``."""
    h = spec.h_drift if u == 0.0 else spec.h_drift + u * spec.h_control
    return dynamics.lindblad(h, spec.lindblad_ops, rho)


class TestMasterRhs:
    """The master equation's right-hand side, ``lindblad`` of a spec's
    generators, and the control values ``integrate`` admits."""

    def test_free_system(self):
        spec = SystemSpec(psi0=KET0, h_drift=ZERO2)
        assert_allclose(master_rhs(spec, 0.0, EXC), ZERO2)

    def test_hermitian_traceless(self):
        rng = np.random.default_rng(2)
        spec = SystemSpec(
            psi0=KET0,
            h_drift=random_hermitian(rng, 2),
            lindblad_ops=(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),),
        )
        out = master_rhs(spec, 0.0, random_density(rng, 2))
        assert abs(np.trace(out)) < 1e-12
        assert_allclose(out, out.conj().T, atol=1e-12)

    def test_decaying_qubit_from_excited_state(self):
        # H is diagonal so the commutator with |0><0| vanishes
        spec = qubit_spec(QubitParams(theta=0.0, gamma=1.0, omega=1.0))
        assert_allclose(master_rhs(spec, 0.0, EXC), GND - EXC, atol=1e-12)

    def test_control_value_without_control_hamiltonian(self):
        stack = SystemSpec(psi0=KET0, h_drift=np.stack([ZERO2, PAULI_Z]))
        with pytest.raises(ValueError, match="no control"):
            integrate(stack, T=0.1, u=0.5)

    def test_control_value_beyond_bound(self):
        # every system of a stack must admit u: here the second does not
        stack = SystemSpec(psi0=KET0, h_drift=ZERO2, h_control=PAULI_Z,
                           u_max=np.array([1.0, 0.5, 1.0]))
        integrate(stack, T=0.01, u=0.5)
        with pytest.raises(ValueError, match="u_max"):
            integrate(stack, T=0.01, u=-0.7)

    def test_matches_integrator_kernel(self):
        # integrate() steps with the RK4 polynomial of the generator matrix;
        # it must agree with classical RK4 stages of the right-hand side,
        # also with a control value and a shortened last step.
        rng = np.random.default_rng(3)
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        spec = SystemSpec(
            psi0=psi,
            h_drift=random_hermitian(rng, 3),
            lindblad_ops=(0.7 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))),),
        )
        spec_c = SystemSpec(
            psi0=psi,
            h_drift=spec.h_drift,
            h_control=random_hermitian(rng, 3),
            u_max=1.0,
            lindblad_ops=spec.lindblad_ops,
        )
        dt = 1e-3
        for spec, u, steps in ((spec, 0.0, (dt,)), (spec_c, -0.7, (dt, dt, 0.4 * dt))):
            rho = linalg.outer(psi)
            for h in steps:
                k1 = master_rhs(spec, u, rho)
                k2 = master_rhs(spec, u, rho + 0.5 * h * k1)
                k3 = master_rhs(spec, u, rho + 0.5 * h * k2)
                k4 = master_rhs(spec, u, rho + h * k3)
                rho = rho + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            traj = integrate(spec, T=sum(steps), dt=dt, u=u)
            assert len(traj.times) == len(steps) + 1
            assert_allclose(traj.states[-1], rho, atol=1e-14)


class TestSystemSpecValidation:
    def test_rejects_non_hermitian_drift(self):
        with pytest.raises(ValueError, match="Hermitian"):
            SystemSpec(psi0=KET0, h_drift=SIGMA_MINUS)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            SystemSpec(psi0=KET0, h_drift=np.eye(3))
        with pytest.raises(ValueError, match="dimension"):
            SystemSpec(psi0=KET0, h_drift=np.eye(2), lindblad_ops=(np.eye(3),))

    @staticmethod
    def _spec_with(field, m):
        """A qubit spec with ``m`` as its ``field``: h_drift, h_control or
        its one Lindblad operator."""
        fields = {"h_drift": ZERO2, "h_control": PAULI_Z,
                  field: (m,) if field == "lindblad_ops" else m}
        return SystemSpec(psi0=KET0, u_max=1.0, **fields)

    NAMES = {"h_drift": "h_drift", "h_control": "h_control", "lindblad_ops": "Lindblad operator"}

    @pytest.mark.parametrize("shape", [(2, 3), (2,), (3, 2, 1)], ids=["2x3", "vector", "stack"])
    @pytest.mark.parametrize("field", ["h_drift", "h_control", "lindblad_ops"])
    def test_rejects_nonsquare(self, field, shape):
        message = f"{self.NAMES[field]} must be a square matrix, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self._spec_with(field, np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.inf, -np.inf],
                             ids=["nan", "inf", "imaginary-inf", "minus-inf"])
    @pytest.mark.parametrize("field", ["h_drift", "h_control", "lindblad_ops"])
    def test_rejects_nonfinite(self, field, bad):
        m = np.eye(2, dtype=complex)
        m[0, 0] = bad
        with pytest.raises(ValueError, match=f"^{self.NAMES[field]} entries must be finite$"):
            self._spec_with(field, m)
        stack = np.stack([np.eye(2, dtype=complex), m])
        with pytest.raises(ValueError, match=f"^{self.NAMES[field]} entries must be finite$"):
            self._spec_with(field, stack)

    @pytest.mark.parametrize("field", ["h_drift", "h_control", "lindblad_ops"])
    def test_accepts_strided_views(self, field):
        # a transposed operator and a sliced state are views whose last axis
        # is not contiguous; they are checked like any other array
        h = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, -1.0]])
        m = SIGMA_MINUS.T if field == "lindblad_ops" else h.T
        spec, copy = (self._spec_with(field, x) for x in (m, np.ascontiguousarray(m)))
        assert qsl.generic_coefficients(spec) == qsl.generic_coefficients(copy)
        assert_allclose(integrate(spec, T=0.01).fidelities, integrate(copy, T=0.01).fidelities,
                        rtol=0, atol=1e-15)
        psi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)[::2]
        assert_allclose(SystemSpec(psi0=psi, h_drift=h.T).psi0, KET0)

    @pytest.mark.parametrize("field", ["h_drift", "h_control", "lindblad_ops"])
    def test_dimension_error_names_the_field(self, field):
        message = f"^{self.NAMES[field]} dimension does not match psi0$"
        with pytest.raises(ValueError, match=message):
            self._spec_with(field, np.eye(3))

    @pytest.mark.parametrize("field", ["h_drift", "h_control", "lindblad_ops"])
    def test_hermiticity_is_asked_of_hamiltonians_only(self, field):
        if field == "lindblad_ops":
            assert self._spec_with(field, SIGMA_MINUS).lindblad_ops[0].shape == (2, 2)
            return
        with pytest.raises(ValueError, match=f"^{field} must be Hermitian within 1e-10$"):
            self._spec_with(field, SIGMA_MINUS)

    @pytest.mark.parametrize("m,rule", [
        (np.full((2, 3), np.nan), "must be a square matrix"),          # and not finite
        (np.full((3, 3), np.inf), "entries must be finite"),            # and of the wrong dimension
        (np.triu(np.ones((3, 3))), "dimension does not match psi0"),   # and not Hermitian
    ], ids=["square-before-finite", "finite-before-dimension", "dimension-before-hermitian"])
    @pytest.mark.parametrize("field", ["h_drift", "h_control", "lindblad_ops"])
    def test_rules_are_checked_in_order(self, field, m, rule):
        with pytest.raises(ValueError, match=f"^{self.NAMES[field]} {rule}"):
            self._spec_with(field, m)

    def test_rejects_negative_u_max(self):
        with pytest.raises(ValueError, match="u_max"):
            SystemSpec(psi0=KET0, h_drift=ZERO2, h_control=PAULI_Z, u_max=-1.0)

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError, match="unit norm"):
            SystemSpec(psi0=np.array([1.0, 1.0]), h_drift=ZERO2)

    @pytest.mark.parametrize("u_max", [np.nan, np.inf, np.array([1.0, np.nan])])
    def test_rejects_non_finite_u_max(self, u_max):
        with pytest.raises(ValueError, match="u_max must be finite"):
            SystemSpec(psi0=KET0, h_drift=ZERO2, h_control=PAULI_Z, u_max=u_max)

    def test_stack_with_one_non_hermitian_drift(self):
        with pytest.raises(ValueError, match="Hermitian"):
            SystemSpec(psi0=KET0, h_drift=np.stack([ZERO2, SIGMA_MINUS, PAULI_Z]))

    def test_stack_with_one_non_hermitian_control(self):
        with pytest.raises(ValueError, match="Hermitian"):
            SystemSpec(psi0=KET0, h_drift=ZERO2, h_control=np.stack([PAULI_Z, SIGMA_MINUS]),
                       u_max=1.0)

    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
    @pytest.mark.parametrize("field", ["h_drift", "h_control"])
    def test_hermiticity_tolerance(self, field, stacked):
        # |m - m^dag| peaks at the one off-diagonal entry: rejected just
        # above 1e-10, accepted just below it
        def spec(eps):
            m = PAULI_Z + np.array([[0.0, eps], [0.0, 0.0]])
            m = np.stack([PAULI_Z, m]) if stacked else m
            fields = {"h_drift": ZERO2, "h_control": PAULI_Z, field: m}
            return SystemSpec(psi0=KET0, u_max=1.0, **fields)

        with pytest.raises(ValueError, match=f"{field} must be Hermitian within 1e-10"):
            spec(1.1e-10)
        assert spec(0.9e-10).shape == ((2,) if stacked else ())

    @pytest.mark.parametrize("off", [1e308, 1e308j, 0.75e308 + 0.75e308j],
                             ids=["subtract", "imaginary", "absolute"])
    @pytest.mark.parametrize("field", ["h_drift", "h_control"])
    def test_overflowing_residual_fails_without_a_warning(self, field, off):
        # finite entries whose residual m - m^dag, or its modulus, overflows
        # to inf: the Hermiticity error, and no numpy warning before it
        m = np.array([[0.0, off], [-np.conj(off), 0.0]])
        with np.errstate(over="ignore"):
            assert np.max(np.abs(m - m.conj().T)) == np.inf
        fields = {"h_drift": ZERO2, "h_control": PAULI_Z, field: m}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{field} must be Hermitian within 1e-10$"):
                SystemSpec(psi0=KET0, u_max=1.0, **fields)

    def test_stack_with_one_unnormalized_state(self):
        with pytest.raises(ValueError, match="unit norm"):
            SystemSpec(psi0=np.stack([KET0, np.array([1.0, 1.0]), PLUS]), h_drift=ZERO2)

    @pytest.mark.parametrize("fields", [
        dict(psi0=np.stack([KET0, PLUS, KET0]), h_drift=np.stack([ZERO2, PAULI_Z])),
        dict(psi0=KET0, h_drift=ZERO2,
             lindblad_ops=(np.stack([ZERO2] * 2), np.stack([ZERO2] * 3))),
        dict(psi0=np.stack([KET0, PLUS]), h_drift=ZERO2, h_control=PAULI_Z,
             u_max=np.array([1.0, 1.0, 1.0])),
        dict(psi0=np.broadcast_to(KET0, (2, 3, 2)), h_drift=ZERO2),
    ], ids=["psi0-h_drift", "ops", "psi0-u_max", "two-axes"])
    def test_rejects_mismatched_stack_lengths(self, fields):
        with pytest.raises(ValueError, match="one leading axis"):
            SystemSpec(**fields)

    def test_stack_shape_and_shared_fields(self):
        assert SystemSpec(psi0=KET0, h_drift=ZERO2).shape == ()
        stack = SystemSpec(psi0=KET0, h_drift=ZERO2, h_control=PAULI_Z,
                           u_max=np.array([0.5, 1.0]))
        assert stack.shape == (2,) and stack.dim == 2
        assert stack.psi0.shape == (2,) and stack.h_drift.shape == (2, 2)


def unit_system(rng, dim, n_ops):
    """A random system whose H and Lindblad operators have unit Frobenius
    norm."""
    h = random_hermitian(rng, dim)
    ops = [random_matrix(rng, dim) for _ in range(n_ops)]
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return SystemSpec(psi0=psi / np.linalg.norm(psi), h_drift=h / np.linalg.norm(h),
                      lindblad_ops=tuple(m / np.linalg.norm(m) for m in ops))


class TestGenerator:
    """The real generator G of ``_generator``, dx/dt = G x on the
    coordinates of ``_to_coords``, over random unit-norm systems."""

    DIMS = (1, 2, 3, 4, 5, 6, 7, 8, 16)
    TOL = 1e-14

    @pytest.mark.parametrize("dim", DIMS)
    def test_matches_the_complex_basis_generator(self, dim):
        # G = U^dag L U, with L the complex matrix of lindblad on vec(rho)
        rng = np.random.default_rng(dim)
        for n_ops in range(4):
            spec = unit_system(rng, dim, n_ops)
            gen = dynamics._generator(spec)
            assert gen.dtype == np.float64 and gen.shape == (1, dim * dim, dim * dim)
            ref = reference.real_generator(spec.h_drift, spec.lindblad_ops)
            assert np.abs(gen[0] - ref).max() <= self.TOL, n_ops

    @pytest.mark.parametrize("dim", DIMS)
    def test_preserves_the_trace(self, dim):
        # tr rho is the sum of the diagonal coordinates: those rows of G sum to 0
        rng = np.random.default_rng(dim)
        for n_ops in range(4):
            gen = dynamics._generator(unit_system(rng, dim, n_ops))[0]
            assert np.abs(gen[:dim].sum(axis=0)).max() <= self.TOL, n_ops

    @pytest.mark.parametrize("dim", DIMS)
    def test_unitary_evolution_is_antisymmetric(self, dim):
        # with no Lindblad operator, -i[H, .] is antisymmetric in an
        # orthonormal basis: G + G^T = 0
        gen = dynamics._generator(unit_system(np.random.default_rng(dim), dim, 0))[0]
        assert np.abs(gen + gen.T).max() <= self.TOL

    def test_controlled_generator(self):
        # the constant control enters through H_drift + u H_control
        spec = qutrit_spec(1.2, 0.8)
        gen = dynamics._generator(spec, u=-0.5)[0]
        ref = reference.real_generator(spec.h_drift - 0.5 * spec.h_control, spec.lindblad_ops)
        assert np.abs(gen - ref).max() <= self.TOL

    def test_stacked_generator(self):
        stack = draw_random_system(4, 3, range(3))
        gen = dynamics._generator(stack)
        for k in range(3):
            assert np.array_equal(gen[k], dynamics._generator(draw_random_system(4, 3, k))[0])

    @staticmethod
    def _member(spec, k):
        """Member k of a stacked spec, as one system of its own."""
        def pick(x, ndim):
            return x[k] if np.ndim(x) > ndim else x
        return SystemSpec(psi0=pick(spec.psi0, 1), h_drift=pick(spec.h_drift, 2),
                          h_control=None if spec.h_control is None else pick(spec.h_control, 2),
                          u_max=pick(spec.u_max, 0),
                          lindblad_ops=tuple(pick(m, 2) for m in spec.lindblad_ops))

    @pytest.mark.parametrize("stack", ["states", "decay-rates", "hamiltonians", "controlled"])
    def test_members_of_shared_and_stacked_fields(self, stack):
        # the shared fields are formed once and viewed B times; every member
        # must still equal the generator of that system alone, bit for bit
        rng, u = np.random.default_rng(32), 0.0
        if stack == "states":  # shared H and M, stacked psi0: the sweep's shape
            spec = qubit_spec(QubitParams(theta=np.linspace(0.0, math.pi, 5), gamma=0.4))
        elif stack == "decay-rates":  # shared psi0 and H, stacked M: the Bell sweep's shape
            spec = bell_spec("psi-plus", np.array([0.1, 0.5, 2.0, 7.0]))
        elif stack == "hamiltonians":  # stacked H, shared M
            hams = np.stack([random_hermitian(rng, 2) for _ in range(3)])
            spec = SystemSpec(psi0=PLUS, h_drift=hams, lindblad_ops=(0.3 * SIGMA_MINUS,))
        else:  # stacked psi0 and u_max, a shared control and decay, at u = -0.5
            psi = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            spec = SystemSpec(psi0=psi / np.linalg.norm(psi, axis=1, keepdims=True),
                              h_drift=1.2 * SPIN1_X, h_control=SPIN1_Z,
                              u_max=np.array([0.5, 0.8, 1.0]),
                              lindblad_ops=(random_matrix(rng, 3),))
            u = -0.5
        gen = dynamics._generator(spec, u)
        d2 = spec.dim ** 2
        assert gen.shape == (spec.shape[0], d2, d2) and gen.dtype == np.float64
        for k in range(spec.shape[0]):
            single = dynamics._generator(self._member(spec, k), u)
            assert single.shape == (1, d2, d2)
            assert np.array_equal(gen[k], single[0]), k

    def test_overflowing_generator_is_rejected(self):
        # theta = 0 is an eigenstate, so A is finite, but G overflows: one
        # ValueError before any step, and no numpy warning
        spec = SystemSpec(psi0=KET0, h_drift=1e308 * PAULI_Z, lindblad_ops=(SIGMA_MINUS,))
        with pytest.raises(ValueError, match="generator G is not finite"):
            integrate(spec, T=0.004, dt=0.001)

    @pytest.mark.parametrize("dim", [1, 16])
    def test_edge_dimensions_integrate(self, dim):
        # d = 1 has no off-diagonal coordinates; d = 16 has 120 pairs
        spec = unit_system(np.random.default_rng(dim), dim, 1)
        traj = integrate(spec, T=0.05, dt=1e-2)
        assert traj.coords.shape == (6, dim * dim)
        assert traj.trace_errors.max() <= 1e-12
        assert np.abs(traj.states - sequential_states(spec, [1e-2] * 5)).max() <= 1e-12
        if dim == 1:
            # every 1 x 1 generator is 0: the one state stays where it is
            assert not dynamics._generator(spec).any()
            assert (traj.coords == traj.coords[0]).all()


class TestCoordinates:
    """The maps between Hermitian matrices and their real coordinates."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 16])
    def test_coordinates_are_the_basis_inner_products(self, dim):
        # x_k = tr(B_k rho) in the written-out basis; rho = sum_k x_k B_k
        rng = np.random.default_rng(dim)
        rho = np.stack([random_hermitian(rng, dim) for _ in range(3)])
        basis = reference.hermitian_basis(dim)
        x = dynamics._to_coords(rho)
        assert x.dtype == np.float64 and x.shape == (3, dim * dim)
        assert_allclose(x, np.einsum("kij,bji->bk", basis, rho).real, rtol=0, atol=1e-14)
        back = dynamics._from_coords(x)
        assert np.array_equal(back, back.conj().swapaxes(-1, -2))
        assert_allclose(back, rho, rtol=0, atol=1e-14)
        assert np.array_equal(dynamics._from_coords(np.eye(dim * dim)), basis)
        assert np.array_equal(dynamics._basis(dim), basis)
        assert not dynamics._basis(dim).flags.writeable


class TestIntegrate:
    def test_static_system(self):
        spec = SystemSpec(psi0=KET0, h_drift=ZERO2)
        traj = integrate(spec, T=0.5, dt=0.01)
        assert_allclose(traj.states, np.broadcast_to(EXC, traj.states.shape), atol=1e-14)
        assert_allclose(traj.thetas, 0.0, atol=1e-14)

    def test_final_time_exact_with_short_last_step(self):
        spec = SystemSpec(psi0=KET0, h_drift=ZERO2)
        traj = integrate(spec, T=0.35, dt=0.1)
        assert_allclose(traj.times, [0.0, 0.1, 0.2, 0.3, 0.35])

    def test_amplitude_damping_matches_analytic_decay(self):
        spec = qubit_spec(QubitParams(theta=0.0, gamma=1.0))
        traj = integrate(spec, T=1.0, dt=1e-3)
        assert abs(traj.fidelities[-1] - math.exp(-1.0)) < 1e-6
        # the whole curve, not just the endpoint
        assert_allclose(traj.fidelities, np.exp(-traj.times), atol=1e-9)

    def test_closed_qubit_rotation_angle(self):
        # H = omega sigma_z from |+>: fidelity cos^2(omega t)
        spec = SystemSpec(psi0=PLUS, h_drift=PAULI_Z)
        traj = integrate(spec, T=1.2, dt=1e-3)
        assert_allclose(np.cos(traj.thetas), np.cos(traj.times) ** 2, atol=1e-8)

    @pytest.mark.parametrize("spec", [
        SystemSpec(psi0=KET0, h_drift=ZERO2),             # unmoved: F = 1 throughout
        SystemSpec(psi0=PLUS, h_drift=PAULI_Z),           # F = cos^2 t reaches 0
        qubit_spec(QubitParams(theta=0.0, gamma=1.0)),
        draw_random_system(11, 3, range(4)),
    ], ids=["static", "rotation", "decay", "stack"])
    def test_stored_fidelities_and_angles(self, spec):
        # F is 1 exactly at t = 0 and lies in [0, 1]; the angle is its arccos
        traj = integrate(spec, T=math.pi / 2, dt=1e-2)
        assert np.all(traj.fidelities[..., 0] == 1.0)
        assert np.all((traj.fidelities >= 0.0) & (traj.fidelities <= 1.0))
        assert np.array_equal(traj.thetas, np.arccos(traj.fidelities))
        assert np.all(traj.thetas[..., 0] == 0.0)
        assert np.array_equal(traj.columns()["fidelity"], traj.fidelities)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(4)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        spec = SystemSpec(
            psi0=psi,
            h_drift=random_hermitian(rng, 4),
            lindblad_ops=(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),),
        )
        traj = integrate(spec, T=0.5, dt=1e-3)
        assert traj.trace_errors.max() < 1e-9
        herm = np.abs(traj.states - traj.states.conj().transpose(0, 2, 1)).max()
        assert herm < 1e-9

    def test_fourth_order_convergence(self):
        spec = qubit_spec(QubitParams(theta=math.pi / 3, gamma=1.0, omega=1.0))
        ref = integrate(spec, T=1.0, dt=1e-3).states[-1]
        e1 = np.linalg.norm(integrate(spec, T=1.0, dt=2e-2).states[-1] - ref)
        e2 = np.linalg.norm(integrate(spec, T=1.0, dt=1e-2).states[-1] - ref)
        assert e1 / e2 >= 12.0

    def test_unstable_step_reports_failure(self):
        spec = qubit_spec(QubitParams(theta=0.0, gamma=40.0))
        with pytest.raises(IntegrationError) as err:
            integrate(spec, T=2.0, dt=0.5)
        assert err.value.time >= 0.0
        assert err.value.check == "positivity"
        assert "positivity check failed" in str(err.value)

    def test_unstable_run_names_the_earliest_bad_sample(self):
        # the long run overflows; its first indefinite state is still the
        # one the short run reports, and no numpy warning escapes
        spec = qubit_spec(QubitParams(theta=0.0, gamma=40.0))
        errors = []
        for T in (2.0, 60.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(IntegrationError) as err:
                    integrate(spec, T=T, dt=0.5)
            errors.append((err.value.check, err.value.time))
        assert errors == [("positivity", 0.5)] * 2

    @pytest.mark.parametrize("T,dt", [(0.35, 0.1), (0.3, 0.1), (0.5, 1e-3), (1.0, 0.3),
                                      (0.1, 0.1), (3.0 - 1e-13, 1.0)])
    def test_sample_grid(self, T, dt):
        # integrate samples _sample_times' grid: n_full steps of dt, then at
        # most one shorter step that ends on T
        times, n_full = dynamics._sample_times(T, dt)
        traj = integrate(SystemSpec(psi0=PLUS, h_drift=PAULI_Z), T=T, dt=dt)
        assert np.array_equal(traj.times, times)
        assert times[0] == 0.0 and times[-1] == T
        assert np.array_equal(times[:n_full], np.arange(n_full) * dt)
        assert len(times) - 1 - n_full in (0, 1)
        assert 0.0 < times[-1] - times[-2] <= dt * (1 + 1e-9)

    def test_invalid_T_and_dt(self):
        spec = SystemSpec(psi0=KET0, h_drift=ZERO2)
        with pytest.raises(ValueError):
            integrate(spec, T=0.0)
        with pytest.raises(ValueError):
            integrate(spec, T=1.0, dt=2.0)

    def test_control_signal_matches_static_hamiltonian(self):
        # constant u: controlled evolution equals the merged static drift
        p = QubitParams(theta=math.pi / 8, omega=1.0, u_max=1.0)
        spec_c = qubit_spec(p, with_control=True)
        traj_c = integrate(spec_c, T=0.7, dt=1e-3, u=0.6)
        spec_s = SystemSpec(
            psi0=spec_c.psi0, h_drift=spec_c.h_drift + 0.6 * spec_c.h_control
        )
        traj_s = integrate(spec_s, T=0.7, dt=1e-3)
        assert_allclose(traj_c.states[-1], traj_s.states[-1], atol=1e-12)

    def test_control_signal_beyond_bound(self):
        spec = qubit_spec(QubitParams(theta=0.1, u_max=0.5), with_control=True)
        with pytest.raises(ValueError, match="u_max"):
            integrate(spec, T=0.1, dt=1e-3, u=1.0)

    def test_signal_without_control_hamiltonian(self):
        spec = SystemSpec(psi0=KET0, h_drift=ZERO2)
        with pytest.raises(ValueError, match="no control"):
            integrate(spec, T=0.1, dt=1e-3, u=0.5)


#: Step counts around the doubling blocks: one block, exact powers of two,
#: one past them, and a long run.
STEP_COUNTS = (1, 2, 3, 7, 8, 9, 500)


class TestIntegrateMany:
    """``integrate`` of a stack of many systems: every member equals the run
    of that system alone, bit for bit."""

    FIELDS = ("states", "fidelities", "thetas", "fidelity_rates", "trace_errors")

    def assert_members_equal_single_runs(self, stack, singles, T, dt, u=0.0):
        many = integrate(stack, T, dt, u)
        assert many.fidelities.shape == (len(singles), len(many.times))
        for i, spec in enumerate(singles):
            single = integrate(spec, T, dt, u)
            assert np.array_equal(many.times, single.times)
            for name in self.FIELDS:
                assert np.array_equal(getattr(many, name)[i], getattr(single, name)), name

    @staticmethod
    def draws(seed, dim, n):
        """A stacked draw of trials 0..n-1 and the n single draws."""
        return (draw_random_system(seed, dim, range(n)),
                [draw_random_system(seed, dim, k) for k in range(n)])

    def test_members_equal_single_runs(self):
        for dim in (2, 3, 4):
            self.assert_members_equal_single_runs(*self.draws(3, dim, 4), T=0.2, dt=1e-3)

    @pytest.mark.parametrize("n", STEP_COUNTS)
    def test_members_equal_single_runs_at_every_step_count(self, n):
        for dim in (2, 3, 4):
            self.assert_members_equal_single_runs(*self.draws(29, dim, 3), T=n * 1e-2, dt=1e-2)

    def test_controlled_stack(self):
        # psi0 and the control Hamiltonian are shared by the stack
        omegas, u_maxes = (1.2, 0.7, 1.0), (0.8, 1.0, 0.7)
        stack = SystemSpec(psi0=QUTRIT_PSI0, h_drift=np.stack([w * SPIN1_X for w in omegas]),
                           h_control=SPIN1_Z, u_max=np.array(u_maxes))
        singles = [qutrit_spec(w, m) for w, m in zip(omegas, u_maxes)]
        self.assert_members_equal_single_runs(stack, singles, T=0.3, dt=1e-3, u=-0.7)

    def test_shortened_last_step(self):
        dt = 1e-2
        stack, singles = self.draws(8, 3, 3)
        traj = integrate(stack, T=2.4 * dt, dt=dt)
        assert traj.times[-1] == 2.4 * dt and traj.states.shape == (3, 4, 3, 3)
        self.assert_members_equal_single_runs(stack, singles, T=2.4 * dt, dt=dt)

    def test_differing_operator_counts(self):
        # a stack has one operator count: zero operators pad the shorter lists
        rng = np.random.default_rng(12)
        singles = [SystemSpec(psi0=PLUS, h_drift=random_hermitian(rng, 2),
                              lindblad_ops=tuple(0.5 * random_matrix(rng, 2) for _ in range(k)))
                   for k in (0, 2, 1)]
        padded = [s.lindblad_ops + (ZERO2,) * (2 - len(s.lindblad_ops)) for s in singles]
        stack = SystemSpec(psi0=PLUS, h_drift=np.stack([s.h_drift for s in singles]),
                           lindblad_ops=tuple(np.stack(ms) for ms in zip(*padded)))
        self.assert_members_equal_single_runs(stack, singles, T=0.1, dt=1e-3)

    def test_trace_errors_are_those_of_the_states(self):
        # the stored column is |tr rho - 1| of the returned states, bit for bit
        stack, singles = self.draws(5, 3, 3)
        for traj in (integrate(stack, 0.2, 1e-3), integrate(singles[0], 0.2, 1e-3)):
            assert traj.trace_errors.shape == traj.fidelities.shape
            ref = np.abs(np.einsum("...ii->...", traj.states) - 1.0)
            assert np.array_equal(traj.trace_errors, ref)

    def test_rejects_empty_and_mixed_stacks(self):
        with pytest.raises(ValueError, match="at least one"):
            SystemSpec(psi0=np.zeros((0, 2)), h_drift=ZERO2)
        with pytest.raises(ValueError, match="dimension"):
            SystemSpec(psi0=np.stack([KET0, PLUS]), h_drift=np.stack([np.eye(3)] * 2))

    def test_first_failing_member_is_reported(self):
        gammas = np.array([0.1, 40.0, 0.1])
        stack = SystemSpec(psi0=KET0, h_drift=PAULI_Z,
                           lindblad_ops=(np.sqrt(gammas)[:, None, None] * SIGMA_MINUS,))
        unstable = qubit_spec(QubitParams(theta=0.0, gamma=40.0))
        with pytest.raises(IntegrationError) as many:
            integrate(stack, T=2.0, dt=0.5)
        with pytest.raises(IntegrationError) as single:
            integrate(unstable, T=2.0, dt=0.5)
        assert str(many.value) == str(single.value)
        assert (many.value.time, many.value.check) == (single.value.time, single.value.check)

    @pytest.mark.parametrize("entries", [1, 3 * 201 * (4 + 8)])
    def test_verify_blocks_do_not_change_columns(self, monkeypatch, entries):
        # 1 entry gives blocks of one trial; 3 * samples * (d^2 + 8) at d = 2
        # gives blocks of three, two and one trials at d = 2, 3 and 4
        args = dict(seed=17, n_trials=5, dims=(2, 3, 4), T=0.2, dt=1e-3)
        whole = reachset.verify_bound(**args)
        monkeypatch.setattr(reachset, "STACK_ENTRIES", entries)
        blocked = reachset.verify_bound(**args)
        assert list(blocked) == list(whole)
        for name in whole:
            assert np.array_equal(blocked[name], whole[name]), name


def sequential_states(spec, steps):
    """Reference states: vec(rho) stepped by one RK4 propagator product
    P @ v per step, P = sum_{k<=4} (h G)^k / k! built from the complex
    generator matrix G of ``reference.complex_generator``."""
    dim = spec.dim
    d2 = dim * dim
    gen = reference.complex_generator(spec.h_drift, spec.lindblad_ops)
    v = np.outer(spec.psi0, spec.psi0.conj()).reshape(d2)
    out = [v]
    for h in steps:
        hg = h * gen
        p = np.eye(d2) + hg + hg @ hg / 2 + hg @ hg @ hg / 6 + hg @ hg @ hg @ hg / 24
        v = p @ v
        out.append(v)
    return np.array(out).reshape(-1, dim, dim)


class TestDoublingPropagation:
    """integrate fills the samples by doubling, vecs[:, m:2m] =
    vecs[:, :m] (P^m)^T; it must agree with stepping one sample at a time."""

    DT = 1e-2
    TOL = 1e-12  # roundoff of the doubling products against the steps

    def assert_matches_sequential_steps(self, dim, steps):
        traj = integrate(draw_random_system(29, dim, range(3)), T=sum(steps), dt=self.DT)
        assert traj.states.shape == (3, len(steps) + 1, dim, dim)
        for k, states in enumerate(traj.states):
            ref = sequential_states(draw_random_system(29, dim, k), steps)
            assert np.abs(states - ref).max() <= self.TOL

    @pytest.mark.parametrize("n", STEP_COUNTS)
    def test_matches_sequential_steps(self, n):
        for dim in (2, 3, 4):
            self.assert_matches_sequential_steps(dim, [self.DT] * n)

    def test_shortened_last_step_matches_sequential_steps(self):
        for dim in (2, 3, 4):
            self.assert_matches_sequential_steps(dim, [self.DT, self.DT, 0.4 * self.DT])

    def test_long_trajectory(self):
        spec = qubit_spec(QubitParams(theta=0.7, phi=0.3, gamma=0.4))
        traj = integrate(spec, T=15.0, dt=1e-3)
        assert traj.states.shape == (15001, 2, 2) and traj.thetas.shape == (15001,)
        assert traj.times[-1] == 15.0
        ref = sequential_states(spec, [1e-3] * 15000)
        assert np.abs(traj.states - ref).max() <= self.TOL

    def test_last_screen_pass_of_one_state(self):
        # 4097 samples: the health screen's last pass holds one state, and
        # its stored coordinates are left as they were propagated
        spec = qubit_spec(QubitParams(theta=0.7, phi=0.3, gamma=0.4))
        traj = integrate(spec, T=4.096, dt=1e-3)
        ref = sequential_states(spec, [1e-3] * 4096)
        assert np.abs(traj.states - ref).max() <= self.TOL


def hermitian_stack(rng, eigenvalues, n):
    """n unit-trace Hermitian matrices with the given spectrum, each in a
    random basis."""
    out = []
    for _ in range(n):
        q, _ = np.linalg.qr(random_matrix(rng, len(eigenvalues)))
        rho = q @ np.diag(eigenvalues) @ q.conj().T
        out.append((rho + rho.conj().T) / 2)
    return np.array(out)


class TestPositivityScreen:
    TOL = dynamics.POSITIVITY_TOL
    #: lambda_min / POSITIVITY_TOL on both sides of the screen's shift (-0.5)
    #: and of the tolerance itself (-1)
    FACTORS = (-2.0, -1.1, -1.01, -0.99, -0.6, -0.5, -0.4, 0.0, 0.5)

    def spied_check(self, monkeypatch, states, times=None):
        """Run _check_states on the coordinates of a (B, n, d, d) stack, or
        of one system's (n, d, d) samples as a stack of one, recording each
        eigenvalue solve."""
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def spy(*args, **kwargs):
            calls.append("eigvalsh")
            return eigvalsh(*args, **kwargs)

        if states.ndim == 3:
            states = states[None]
        if times is None:
            times = np.arange(states.shape[1]) * 0.1
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigvalsh", spy)
            dynamics._check_states(times, dynamics._to_coords(states))
        return calls

    def states(self, factor, dim=3, n=6, seed=None):
        rng = np.random.default_rng(dim if seed is None else seed)
        lam = factor * self.TOL
        return hermitian_stack(rng, [lam] + [(1.0 - lam) / (dim - 1)] * (dim - 1), n)

    def test_screen_passes_slightly_negative_states(self, monkeypatch):
        for dim in (2, 3, 4):
            states = self.states(-0.4, dim)
            assert np.linalg.eigvalsh(states).min() < -0.39 * self.TOL
            assert self.spied_check(monkeypatch, states) == []

    def test_eigenvalues_decide_when_screen_fails(self, monkeypatch):
        for dim in (2, 3, 4):
            states = self.states(-0.9, dim)
            assert self.spied_check(monkeypatch, states) == ["eigvalsh"]

    def test_negative_eigenvalue_beyond_tolerance_fails(self, monkeypatch):
        states = self.states(-1.1)
        with pytest.raises(IntegrationError) as err:
            self.spied_check(monkeypatch, states)
        assert err.value.check == "positivity"
        assert err.value.time == 0.0
        assert "worst residual 1.1e-08 exceeds tolerance 1e-08" in str(err.value)

    def test_failure_names_the_bad_sample(self, monkeypatch):
        states = self.states(0.0, n=8)
        states[5] = self.states(-1.1, n=1)[0]
        times = np.linspace(0.0, 0.7, 8)
        with pytest.raises(IntegrationError) as err:
            self.spied_check(monkeypatch, states, times)
        assert err.value.check == "positivity"
        assert err.value.time == times[5]
        assert "positivity check failed at t = 0.5:" in str(err.value)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_verdict_is_the_eigenvalue_check(self, monkeypatch, dim):
        # raises exactly when some lambda_min < -tol; where the screen alone
        # passes (no eigenvalue solve), it has proved lambda_min >= -tol/2
        for factor in self.FACTORS:
            states = np.stack([self.states(factor, dim, n=3, seed=seed) for seed in (1, 2)])
            lam_min = np.linalg.eigvalsh(states).min()
            try:
                calls = self.spied_check(monkeypatch, states)
            except IntegrationError as err:
                assert lam_min < -self.TOL, factor
                assert err.check == "positivity"
                continue
            assert lam_min >= -self.TOL, factor
            if not calls:
                assert lam_min >= -self.TOL / 2 - 1e-14, factor


class TestStackFailureNaming:
    """A failing stack names its first unhealthy system, in stack order, and
    in it the earliest bad sample, whatever coordinate the fault sits in.
    Faults are written into the real coordinates of ``_to_coords``."""

    TIMES = np.arange(6) * 0.1

    @pytest.fixture(autouse=True, params=[dynamics._SCREEN_MATRICES, 4],
                    ids=["one-pass", "passes-of-4"])
    def screen_size(self, request, monkeypatch):
        # 3 systems x 6 samples: in passes of 4 a fault can sit in any pass
        monkeypatch.setattr(dynamics, "_SCREEN_MATRICES", request.param)

    def healthy(self):
        """(3, 6, 9): coordinates of three systems of six qutrit states."""
        return dynamics._to_coords(np.stack([
            hermitian_stack(np.random.default_rng(seed), [0.5, 0.3, 0.2], 6)
            for seed in range(3)]))

    @staticmethod
    def indefinite():
        """Coordinates of a unit-trace qutrit state with lambda_min = -2e-8."""
        return dynamics._to_coords(
            hermitian_stack(np.random.default_rng(5), [-2e-8, 0.6, 0.4 + 2e-8], 1)[0])

    def check(self, x):
        with pytest.raises(IntegrationError) as err:
            dynamics._check_states(self.TIMES, x)
        return err.value

    def test_healthy_stack_passes_the_screen_alone(self, monkeypatch):
        def unexpected(x):
            raise AssertionError("the screen failed a healthy stack")

        monkeypatch.setattr(dynamics, "_from_coords", unexpected)
        dynamics._check_states(self.TIMES, self.healthy())

    def test_only_suspect_samples_are_solved(self, monkeypatch):
        # a false alarm of the pivots (lambda_min = -0.9 tol, inside the
        # tolerance) sends its sample alone to the eigenvalue check, which
        # passes it
        tol = dynamics.POSITIVITY_TOL
        x = self.healthy()
        x[1, 3] = dynamics._to_coords(hermitian_stack(np.random.default_rng(5),
                                                      [-0.9 * tol, 0.6, 0.4 + 0.9 * tol], 1)[0])
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a):
            solved.append(a)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        dynamics._check_states(self.TIMES, x)
        assert len(solved) == 1
        assert np.array_equal(solved[0], dynamics._from_coords(x[1, [3]]))

    @pytest.mark.parametrize("b,n", [(1, 1), (1, 5), (3, 3)])
    def test_screen_leaves_the_coordinates_unchanged(self, b, n):
        # a chunk of one state (all of these stacks in one pass, the last of
        # passes of 4) is still copied before its off-diagonals are scaled
        x = self.healthy()[:b, :n].copy()
        before = x.copy()
        dynamics._check_states(self.TIMES[:n], x)
        assert np.array_equal(x, before)

    def test_first_system_in_stack_order_is_named(self):
        x = self.healthy()
        x[1, 4, 6] = np.inf                              # Im rho_20 only
        x[2, 2] = self.indefinite()
        err = self.check(x)
        assert (err.check, err.time) == ("non-finite", self.TIMES[4])
        assert str(err).startswith("non-finite check failed at t = 0.4: worst residual inf")

    # a qutrit's coordinates: rho_00, rho_11, rho_22, then the Re and Im
    # parts of rho_10, rho_20 and rho_21
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("coord", [1, 3, 4, 7, 8],
                             ids=["diag", "re-10", "im-10", "re-21", "im-21"])
    def test_one_non_finite_coordinate_is_named(self, coord, value):
        # an off-diagonal Re or Im part alone leaves the trace finite: the
        # finiteness screen names it at its sample, before a later fault
        x = self.healthy()
        x[0, 3, coord] = value
        x[0, 5] = self.indefinite()
        err = self.check(x)
        assert (err.check, err.time) == ("non-finite", self.TIMES[3])
        assert str(err).startswith("non-finite check failed at t = 0.3: worst residual inf")

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_every_non_finite_coordinate_fails_the_screen(self, dim):
        # finiteness is taken only of a system that fails the trace or pivot
        # screen, so a non-finite coordinate must fail one of them: one such
        # coordinate anywhere, or two of them, is named, never passed
        rng = np.random.default_rng(dim)
        state = dynamics._to_coords(hermitian_stack(rng, np.arange(1.0, dim + 1) * 2 / (dim * dim + dim), 1))
        values = (np.inf, -np.inf, np.nan)
        faults = [((c,), (v,)) for c in range(dim * dim) for v in values]
        faults += [((c, c2), (v, v2)) for c in range(dim * dim) for c2 in range(c + 1, dim * dim)
                   for v in values for v2 in values]
        for coords, vals in faults:
            x = np.repeat(state[None], 2, axis=1)
            x[0, 1, list(coords)] = vals
            # integrate screens under this errstate: inf - inf is a NaN trace
            with pytest.raises(IntegrationError) as err, np.errstate(invalid="ignore"):
                dynamics._check_states(self.TIMES[:2], x)
            assert (err.value.check, err.value.time) == ("non-finite", self.TIMES[1]), (coords, vals)

    def test_later_system_is_named_when_earlier_ones_are_healthy(self):
        x = self.healthy()
        x[2, 2] = self.indefinite()
        err = self.check(x)
        assert (err.check, err.time) == ("positivity", self.TIMES[2])

    def test_trace_violation(self):
        x = self.healthy()
        x[2, 1] *= 1.0 + 1e-6                            # Hermitian and positive
        err = self.check(x)
        assert (err.check, err.time) == ("trace", self.TIMES[1])

    def test_states_are_hermitian_by_construction(self):
        # no coordinate can make a state non-Hermitian: the formed states
        # are exactly Hermitian
        traj = integrate(draw_random_system(3, 4, range(3)), T=0.05, dt=1e-3)
        s = traj.states
        assert np.array_equal(s, s.conj().swapaxes(-1, -2))


_FAULTS = st.lists(st.tuples(
    st.sampled_from(["inf", "-inf", "nan", "trace-up", "trace-down", "indefinite",
                     "false-alarm"]),
    st.integers(0, 2), st.integers(0, 5), st.integers(0, 15)), max_size=4)


class TestHealthVerdict:
    """``_check_states`` gives the verdict of the brute-force reference,
    which forms and solves every state, on stacks with faults injected at
    random (system, sample, coordinate) positions."""

    TOL = dynamics.POSITIVITY_TOL
    #: the state a fault puts in place: lambda_min = -2 tol fails, -0.9 tol
    #: is a false alarm of the pivots that must pass
    LAMBDA_MIN = {"indefinite": -2.0, "false-alarm": -0.9}

    def faulty_stack(self, seed, dim, b, n, faults):
        rng = np.random.default_rng(seed)

        def state(lam):
            return dynamics._to_coords(
                hermitian_stack(rng, [lam] + [(1.0 - lam) / (dim - 1)] * (dim - 1), 1)[0])

        x = np.stack([[state(0.1 / dim) for _ in range(n)] for _ in range(b)])
        for kind, k, i, coord in faults:
            k, i = k % b, i % n
            if kind in self.LAMBDA_MIN:
                x[k, i] = state(self.LAMBDA_MIN[kind] * self.TOL)
            elif kind.startswith("trace"):
                x[k, i] *= 1.0 + (1e-6 if kind == "trace-up" else -1e-6)
            else:
                x[k, i, coord % dim ** 2] = float(kind)
        return x

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 4), b=st.integers(1, 3),
           n=st.integers(1, 6), faults=_FAULTS)
    def test_matches_reference(self, seed, dim, b, n, faults):
        x = self.faulty_stack(seed, dim, b, n, faults)
        times = np.arange(n) * 0.1
        expected = reference.health_verdict(times, x)
        # a stack of up to 18 states: in passes of 4 a fault can sit in any
        # pass; the errstate is the one integrate calls the screen under
        for screen in (dynamics._SCREEN_MATRICES, 4):
            with pytest.MonkeyPatch.context() as mp, \
                    np.errstate(over="ignore", invalid="ignore"):
                mp.setattr(dynamics, "_SCREEN_MATRICES", screen)
                if expected is None:
                    dynamics._check_states(times, x)
                    continue
                with pytest.raises(IntegrationError) as err:
                    dynamics._check_states(times, x)
            assert (err.value.check, err.value.time, str(err.value)) == expected


class TestFidelityRates:
    def test_amplitude_damping_matches_analytic_rate(self):
        # F(t) = exp(-gamma t) from the excited state, so dF/dt = -gamma exp(-gamma t)
        for gamma in (1.0, 0.3):
            spec = qubit_spec(QubitParams(theta=0.0, gamma=gamma))
            traj = integrate(spec, T=1.0, dt=1e-3)
            assert_allclose(traj.fidelity_rates, -gamma * np.exp(-gamma * traj.times),
                            rtol=0, atol=1e-12)

    def test_equals_generator_on_states(self):
        # <psi0| L(rho_t) |psi0>, evaluated directly with the right-hand side
        rng = np.random.default_rng(9)
        spec = draw_random_system(5, 3, 0)
        traj = integrate(spec, T=0.05, dt=1e-3)
        for i in rng.choice(len(traj.times), 5, replace=False):
            rate = np.vdot(spec.psi0, master_rhs(spec, 0.0, traj.states[i]) @ spec.psi0)
            assert abs(traj.fidelity_rates[i] - rate.real) < 1e-13


class TestThetaRateCheck:
    def test_static_trajectory_has_no_excess(self):
        spec = SystemSpec(psi0=KET0, h_drift=ZERO2)
        traj = integrate(spec, T=0.1, dt=1e-3)
        excess = dynamics.theta_rate_check(traj, qsl.generic_coefficients(spec))
        assert excess.shape == traj.times.shape
        assert (excess <= 0.0).all()

    def test_amplitude_damping_respects_bound(self):
        spec = qubit_spec(QubitParams(theta=0.0, gamma=1.0))
        traj = integrate(spec, T=1.0, dt=1e-3)
        excess = dynamics.theta_rate_check(traj, qsl.generic_coefficients(spec))
        assert excess.size == len(traj.times)
        assert excess.max() <= 1e-12
        # saturated at t = 0: -dF/dt = E and lambda = 0
        assert abs(excess[0]) <= 1e-12

    def test_closed_qubit_respects_bound(self):
        spec = SystemSpec(psi0=PLUS, h_drift=PAULI_Z)
        traj = integrate(spec, T=1.0, dt=1e-3)
        excess = dynamics.theta_rate_check(traj, qsl.generic_coefficients(spec))
        assert excess.size == len(traj.times)
        assert excess.max() <= 1e-12

    def test_two_sample_trajectory_is_checked(self):
        spec = qubit_spec(QubitParams(theta=0.3, gamma=1.0))
        traj = integrate(spec, T=0.1, dt=0.1)
        excess = dynamics.theta_rate_check(traj, qsl.generic_coefficients(spec))
        assert excess.shape == (2,)
        assert excess.max() <= 1e-12

    def test_several_lindblad_operators(self):
        rng = np.random.default_rng(10)
        for dim in (2, 3, 4):
            psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            spec = SystemSpec(
                psi0=psi / np.linalg.norm(psi),
                h_drift=random_hermitian(rng, dim),
                lindblad_ops=tuple(0.5 * random_matrix(rng, dim) for _ in range(3)),
            )
            traj = integrate(spec, T=0.5, dt=1e-3)
            excess = dynamics.theta_rate_check(traj, qsl.generic_coefficients(spec))
            assert excess.max() <= 1e-12

    def test_controlled_runs_respect_primed_bound(self):
        # a constant admissible control is checked against A', which covers
        # every |u| <= u_max
        cases = (
            (qutrit_spec(1.2, 0.8), -0.5),
            (qubit_spec(QubitParams(theta=0.4, omega=1.0, u_max=0.7),
                        with_control=True), 0.7),
        )
        for spec, u in cases:
            traj = integrate(spec, T=1.0, dt=1e-3, u=u)
            coeffs = qsl.generic_coefficients(spec)
            assert dynamics.theta_rate_check(traj, coeffs).max() <= 1e-12

    def test_stack_is_checked_against_its_own_coefficients(self):
        stack = draw_random_system(6, 3, range(4))
        traj = integrate(stack, T=0.2, dt=1e-3)
        excess = dynamics.theta_rate_check(traj, qsl.generic_coefficients(stack))
        assert excess.shape == (4, len(traj.times))
        for k in range(4):
            spec = draw_random_system(6, 3, k)
            single = dynamics.theta_rate_check(integrate(spec, T=0.2, dt=1e-3),
                                               qsl.generic_coefficients(spec))
            assert np.array_equal(excess[k], single)


class TestTrajectoryCsv:
    def test_columns_and_formatting(self, tmp_path):
        spec = qubit_spec(QubitParams(theta=0.0, gamma=1.0))
        traj = integrate(spec, T=0.01, dt=1e-3)
        path = tmp_path / "traj.csv"
        reachset.write_rows(traj.columns(), path, "csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "t,theta,fidelity,trace_err"
        assert len(lines) == len(traj.times) + 1
        t, theta, fid, terr = lines[-1].split(",")
        assert float(t) == 0.01
        assert abs(float(fid) - traj.fidelities[-1]) < 1e-8
        # nine significant digits
        assert len(theta.replace(".", "").replace("-", "").lstrip("0")) <= 9
