import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qslreach import dynamics, linalg, qsl, reachset
from qslreach.dynamics import IntegrationError, SystemSpec, integrate
from qslreach.models import PAULI_Z, SIGMA_MINUS, QubitParams, qubit_spec

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


class TestDissipators:
    def test_zero_operator(self):
        rho = random_density(np.random.default_rng(0), 3)
        assert_allclose(dynamics.dissipator(np.zeros((3, 3)), rho), np.zeros((3, 3)))
        assert_allclose(dynamics.adjoint_dissipator(np.zeros((3, 3)), rho), np.zeros((3, 3)))

    def test_amplitude_damping_on_excited_state(self):
        # hand evaluation: M rho M^dag = g |1><1|, the anticommutator gives g |0><0|
        g = 1.7
        m = math.sqrt(g) * SIGMA_MINUS
        assert_allclose(dynamics.dissipator(m, EXC), g * (GND - EXC), atol=1e-12)

    def test_adjoint_on_excited_state(self):
        # M^dag rho M vanishes because sigma_+ |0> = 0
        g = 1.7
        m = math.sqrt(g) * SIGMA_MINUS
        assert_allclose(dynamics.adjoint_dissipator(m, EXC), -g * EXC, atol=1e-12)

    def test_dissipator_is_traceless(self):
        rng = np.random.default_rng(1)
        for dim in (2, 3, 4):
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = random_density(rng, dim)
            out = dynamics.dissipator(m, rho)
            assert abs(np.trace(out)) < 1e-12
            assert_allclose(out, out.conj().T, atol=1e-12)

    def test_bell_collective_decay_norm(self):
        # ||D^dag[M] rho0||_F = sqrt(5/2) for Phi+ with unit-rate collective decay
        from qslreach.models import bell_state, collective_decay

        rho0 = linalg.outer(bell_state("phi-plus").vector)
        out = dynamics.adjoint_dissipator(collective_decay(1.0), rho0)
        assert_allclose(np.linalg.norm(out), math.sqrt(2.5), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            dynamics.dissipator(np.eye(2), np.eye(3))


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


class TestMasterRhs:
    def test_free_system(self):
        spec = SystemSpec(psi0=KET0, h_drift=ZERO2)
        assert_allclose(dynamics.master_rhs(spec, 0.0, EXC), ZERO2)

    def test_hermitian_traceless(self):
        rng = np.random.default_rng(2)
        spec = SystemSpec(
            psi0=KET0,
            h_drift=random_hermitian(rng, 2),
            lindblad_ops=(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),),
        )
        out = dynamics.master_rhs(spec, 0.0, random_density(rng, 2))
        assert abs(np.trace(out)) < 1e-12
        assert_allclose(out, out.conj().T, atol=1e-12)

    def test_decaying_qubit_from_excited_state(self):
        # H is diagonal so the commutator with |0><0| vanishes
        spec = qubit_spec(QubitParams(theta=0.0, gamma=1.0, omega=1.0))
        assert_allclose(dynamics.master_rhs(spec, 0.0, EXC), GND - EXC, atol=1e-12)

    def test_control_value_without_control_hamiltonian(self):
        spec = SystemSpec(psi0=KET0, h_drift=ZERO2)
        with pytest.raises(ValueError, match="no control"):
            dynamics.master_rhs(spec, 0.5, EXC)

    def test_control_value_beyond_bound(self):
        spec = SystemSpec(psi0=KET0, h_drift=ZERO2, h_control=PAULI_Z, u_max=1.0)
        with pytest.raises(ValueError, match="u_max"):
            dynamics.master_rhs(spec, 1.5, EXC)

    def test_matches_integrator_kernel(self):
        # integrate() steps with the RK4 polynomial of the generator matrix;
        # it must agree with classical RK4 stages of master_rhs, also with a
        # control value and a shortened last step.
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
                k1 = dynamics.master_rhs(spec, u, rho)
                k2 = dynamics.master_rhs(spec, u, rho + 0.5 * h * k1)
                k3 = dynamics.master_rhs(spec, u, rho + 0.5 * h * k2)
                k4 = dynamics.master_rhs(spec, u, rho + h * k3)
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

    def test_rejects_negative_u_max(self):
        with pytest.raises(ValueError, match="u_max"):
            SystemSpec(psi0=KET0, h_drift=ZERO2, h_control=PAULI_Z, u_max=-1.0)

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError, match="unit norm"):
            SystemSpec(psi0=np.array([1.0, 1.0]), h_drift=ZERO2)


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


class TestRelativePurity:
    def test_same_state(self):
        assert dynamics.relative_purity(KET0, EXC) == 0.0

    def test_orthogonal_state(self):
        assert_allclose(dynamics.relative_purity(KET0, GND), math.pi / 2)

    def test_partial_overlap(self):
        rho = 0.75 * EXC + 0.25 * GND
        assert_allclose(dynamics.relative_purity(KET0, rho), math.acos(0.75), atol=1e-12)

    def test_clamps_roundoff(self):
        rho = EXC * (1 + 5e-16)
        assert dynamics.relative_purity(KET0, rho) == 0.0


class TestThetaRateCheck:
    def test_static_trajectory_has_no_retained_samples(self):
        spec = SystemSpec(psi0=KET0, h_drift=ZERO2)
        traj = integrate(spec, T=0.1, dt=1e-3)
        coeffs = qsl.generic_coefficients(spec)
        assert dynamics.theta_rate_check(traj, coeffs) == []

    def test_amplitude_damping_respects_bound(self):
        spec = qubit_spec(QubitParams(theta=0.0, gamma=1.0))
        traj = integrate(spec, T=1.0, dt=1e-3)
        samples = dynamics.theta_rate_check(traj, qsl.generic_coefficients(spec))
        assert samples, "expected retained samples"
        assert max(lhs - rhs for _, lhs, rhs in samples) <= 1e-4

    def test_closed_qubit_respects_bound(self):
        spec = SystemSpec(psi0=PLUS, h_drift=PAULI_Z)
        traj = integrate(spec, T=1.0, dt=1e-3)
        samples = dynamics.theta_rate_check(traj, qsl.generic_coefficients(spec))
        assert samples, "expected retained samples"
        assert max(lhs - rhs for _, lhs, rhs in samples) <= 1e-4

    def test_requires_three_samples(self):
        spec = SystemSpec(psi0=KET0, h_drift=ZERO2)
        traj = integrate(spec, T=0.1, dt=0.1)
        with pytest.raises(ValueError, match="3 samples"):
            dynamics.theta_rate_check(traj, qsl.generic_coefficients(spec))


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
