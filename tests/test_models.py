import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qslreach import models, qsl
from qslreach.dynamics import integrate
from qslreach.models import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SPIN1_X,
    SPIN1_Y,
    SPIN1_Z,
    GateParams,
    QubitParams,
    bell_spec,
    bell_state,
    collective_decay,
    gate_fidelity,
    qubit_gate_fidelity,
    qubit_gate_time_bound,
    qubit_spec,
    qubit_state,
    qutrit_gate_fidelity,
    qutrit_gate_time_bound,
    qutrit_spec,
    so3_gate,
    su2_gate,
)

from reference import qubit_closed_form_coeffs

KET0 = np.array([1.0, 0.0], dtype=complex)


def _random_gates(rng, n: int) -> GateParams:
    return GateParams(alpha=rng.uniform(0, 2 * math.pi, n), beta=rng.uniform(0, math.pi, n))


def _each_gate(g: GateParams):
    for a, b in zip(g.alpha, g.beta):
        yield GateParams(float(a), float(b))


class TestOperators:
    def test_pauli_z_on_excited_state(self):
        assert_allclose(PAULI_Z @ KET0, KET0)

    def test_pauli_algebra(self):
        assert_allclose(PAULI_X @ PAULI_Y - PAULI_Y @ PAULI_X, 2j * PAULI_Z, atol=1e-12)

    def test_spin1_su2_algebra(self):
        assert_allclose(SPIN1_X @ SPIN1_Y - SPIN1_Y @ SPIN1_X, 1j * SPIN1_Z, atol=1e-12)

    def test_spin1_z_eigenvalues(self):
        assert_allclose(np.diag(SPIN1_Z).real, [1.0, 0.0, -1.0])


class TestQubitState:
    def test_poles(self):
        assert_allclose(qubit_state(QubitParams(theta=0.0)), KET0)
        assert_allclose(
            qubit_state(QubitParams(theta=math.pi / 2)), [0.0, 1.0], atol=1e-12
        )

    def test_equator_superposition(self):
        assert_allclose(
            qubit_state(QubitParams(theta=math.pi / 4)),
            np.array([1.0, 1.0]) / math.sqrt(2),
            atol=1e-12,
        )

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = QubitParams(theta=rng.uniform(0, math.pi), phi=rng.uniform(0, math.pi))
            assert_allclose(np.linalg.norm(qubit_state(p)), 1.0, atol=1e-12)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\]"):
            QubitParams(theta=4.0)
        with pytest.raises(ValueError, match=r"phi must lie in \[0, pi\]"):
            QubitParams(theta=0.1, phi=-0.1)
        with pytest.raises(ValueError, match="omega"):
            QubitParams(theta=0.1, omega=0.0)
        with pytest.raises(ValueError, match="gamma"):
            QubitParams(theta=0.1, gamma=-1.0)
        with pytest.raises(ValueError, match="u_max"):
            QubitParams(theta=0.1, u_max=-0.5)

    @pytest.mark.parametrize("angles,got", [
        ([0.1, 3.2, 4.0, 3.5], "4.0"),
        ([-1.0, 3.15, 0.5], "-1.0"),
        ([-1e-20, math.pi + 5e-10, 0.2], "-1e-20"),
        ([3.2, math.nan, -9.0], "nan"),
    ])
    def test_angle_error_gives_the_entry_farthest_outside(self, angles, got):
        with pytest.raises(ValueError, match=rf"theta must lie in \[0, pi\], got {got}$"):
            QubitParams(theta=np.array(angles))

    @pytest.mark.parametrize("name", ["omega", "gamma", "u_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rates_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            QubitParams(theta=0.1, **{name: value})


class TestQubitSpec:
    def test_decay_model(self):
        spec = qubit_spec(QubitParams(theta=0.3, gamma=2.0, omega=1.5))
        assert_allclose(spec.h_drift, 1.5 * models.PAULI_Z)
        assert len(spec.lindblad_ops) == 1
        assert_allclose(spec.lindblad_ops[0], math.sqrt(2.0) * models.SIGMA_MINUS)

    def test_zero_gamma_is_closed(self):
        assert qubit_spec(QubitParams(theta=0.3)).lindblad_ops == ()

    def test_angle_array_gives_a_stack(self):
        thetas = np.array([0.0, 0.4, 1.1])
        stack = qubit_spec(QubitParams(theta=thetas, gamma=0.5))
        assert stack.shape == (3,) and stack.psi0.shape == (3, 2)
        assert stack.h_drift.shape == (2, 2)
        for k, theta in enumerate(thetas):
            assert np.array_equal(stack.psi0[k], qubit_spec(QubitParams(theta=theta)).psi0)

    @pytest.mark.parametrize("with_control", [False, True])
    @pytest.mark.parametrize("theta", [0.3, np.array([0.3, 0.9, 0.0, 1.2])])
    def test_rate_array_gives_a_stack(self, theta, with_control):
        # each member equals the spec of its scalar rate, gamma = 0 (no
        # decay operator) included, in its coefficients and final angle
        gammas = np.array([0.0, 0.1, 0.2, 1.5])
        thetas = np.broadcast_to(theta, gammas.shape)
        stack = qubit_spec(QubitParams(theta=theta, gamma=gammas, u_max=0.7), with_control)
        assert stack.shape == (4,) and stack.lindblad_ops[0].shape == (4, 2, 2)
        coeffs = qsl.generic_coefficients(stack)
        final = integrate(stack, 0.3, 1e-3).thetas[:, -1]
        for k in range(4):
            one = qubit_spec(QubitParams(theta=thetas[k], gamma=gammas[k], u_max=0.7),
                             with_control)
            c = qsl.generic_coefficients(one)
            assert np.array_equal(coeffs.speed[k], c.speed)
            assert np.array_equal(coeffs.noise[k], c.noise)
            assert np.array_equal(final[k], integrate(one, 0.3, 1e-3).thetas[-1])

    def test_control_model(self):
        spec = qubit_spec(QubitParams(theta=0.3, omega=2.0, u_max=0.7), with_control=True)
        assert_allclose(spec.h_drift, 2.0 * models.PAULI_X)
        assert_allclose(spec.h_control, models.PAULI_Z)
        assert spec.u_max == 0.7
        assert spec.lindblad_ops == ()

    def test_control_model_keeps_its_decay(self):
        p = QubitParams(theta=0.3, u_max=1.0, gamma=0.5)
        spec = qubit_spec(p, with_control=True)
        assert spec.h_control is not None and len(spec.lindblad_ops) == 1
        assert_allclose(spec.lindblad_ops[0], math.sqrt(0.5) * models.SIGMA_MINUS)
        assert qsl.generic_coefficients(spec).noise > 0.0


class TestQubitClosedForm:
    def test_reference_point(self):
        c = qubit_closed_form_coeffs(QubitParams(theta=0.0, gamma=1.0, omega=1.0))
        assert_allclose(c.speed, math.sqrt(2), atol=1e-12)
        assert_allclose(c.noise, 1.0, atol=1e-12)

    def test_gamma_zero_recovers_rotation_rate(self):
        for theta in np.linspace(0.0, math.pi, 9):
            c = qubit_closed_form_coeffs(QubitParams(theta=float(theta), omega=1.3))
            assert_allclose(c.speed, 2 * 1.3 * abs(math.sin(2 * theta)), atol=1e-12)
            assert c.noise == 0.0

    def test_matches_generic_pipeline(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            p = QubitParams(
                theta=rng.uniform(0, math.pi),
                gamma=rng.uniform(0, 3),
                omega=rng.uniform(0.1, 3),
            )
            spec = qubit_spec(p)
            closed = qubit_closed_form_coeffs(p)
            generic = qsl.generic_coefficients(spec)
            assert abs(closed.speed - generic.speed) <= 1e-10
            assert abs(closed.noise - generic.noise) <= 1e-10

    def test_phase_does_not_change_coefficients(self):
        base = qubit_spec(QubitParams(theta=0.7, gamma=0.9, omega=1.1))
        phased = qubit_spec(QubitParams(theta=0.7, phi=2.1, gamma=0.9, omega=1.1))
        assert_allclose(
            qsl.generic_coefficients(base).speed, qsl.generic_coefficients(phased).speed,
            atol=1e-12,
        )


class TestSu2Gate:
    def test_identity(self):
        assert_allclose(su2_gate(GateParams(0.0, 0.0)), np.eye(2), atol=1e-15)

    def test_unitarity(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            g = GateParams(alpha=rng.uniform(0, 2 * math.pi), beta=rng.uniform(0, math.pi))
            u = su2_gate(g)
            assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_z_rotation_by_pi(self):
        # equals sigma_z up to the global phase -i fixed by the half-angle form
        assert_allclose(su2_gate(GateParams(math.pi, 0.0)), -1j * models.PAULI_Z, atol=1e-12)

    def test_beta_pi_third_matrix(self):
        a = 0.7
        u = su2_gate(GateParams(a, math.pi / 3))
        expected = 0.5 * np.array(
            [
                [math.sqrt(3) * np.exp(-0.5j * a), -np.exp(-0.5j * a)],
                [np.exp(0.5j * a), math.sqrt(3) * np.exp(0.5j * a)],
            ]
        )
        assert_allclose(u, expected, atol=1e-12)

    def test_stack_members_equal_single_gates(self):
        g = _random_gates(np.random.default_rng(6), 40)
        stack = su2_gate(g)
        assert stack.shape == (40, 2, 2)
        for i, single in enumerate(_each_gate(g)):
            assert np.array_equal(stack[i], su2_gate(single))
        # scalar angles broadcast against an array of angles
        mixed = su2_gate(GateParams(alpha=0.3, beta=g.beta))
        assert np.array_equal(mixed[7], su2_gate(GateParams(0.3, float(g.beta[7]))))

    def test_angle_ranges(self):
        with pytest.raises(ValueError, match="alpha"):
            GateParams(alpha=-0.1, beta=0.0)
        with pytest.raises(ValueError, match="beta"):
            GateParams(alpha=0.0, beta=3.5)
        # the boundary gates used in the worked examples stay valid
        GateParams(alpha=2 * math.pi, beta=math.pi)


class TestGateFidelity:
    def test_identity_gate(self):
        assert gate_fidelity(KET0, np.eye(2)) == 1.0

    def test_reference_three_quarters(self):
        for a in (0.0, 1.1, 2 * math.pi):
            f = gate_fidelity(KET0, su2_gate(GateParams(a, math.pi / 3)))
            assert_allclose(f, 0.75, atol=1e-12)

    def test_qutrit_orthogonal_rotation(self):
        psi0 = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
        f = gate_fidelity(psi0, so3_gate(GateParams(0.0, math.pi / 2)))
        assert f < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            gate_fidelity(KET0, np.eye(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            gate_fidelity(np.stack([KET0, KET0]), np.stack([np.eye(3)] * 2))

    def test_scalar_call_gives_float(self):
        f = gate_fidelity(KET0, su2_gate(GateParams(0.4, 1.1)))
        assert type(f) is float

    def test_stack_equals_single_calls(self):
        rng = np.random.default_rng(7)
        g = _random_gates(rng, 30)
        for dim, gates in ((2, su2_gate(g)), (3, so3_gate(g))):
            psi = rng.standard_normal((30, dim)) + 1j * rng.standard_normal((30, dim))
            psi /= np.linalg.norm(psi, axis=1, keepdims=True)
            both = gate_fidelity(psi, gates)
            one_state = gate_fidelity(psi[0], gates)
            one_gate = gate_fidelity(psi, gates[0])
            assert both.shape == one_state.shape == one_gate.shape == (30,)
            for i in range(30):
                assert both[i] == gate_fidelity(psi[i], gates[i])
                assert one_state[i] == gate_fidelity(psi[0], gates[i])
                assert one_gate[i] == gate_fidelity(psi[i], gates[0])


class TestQubitGateBound:
    def test_rejects_decay(self):
        # the closed form is the closed system's: a decay rate would be dropped
        with pytest.raises(ValueError, match="gamma = 0"):
            qubit_gate_time_bound(QubitParams(theta=0.3, u_max=1.0, gamma=0.5),
                                  GateParams(0.0, 1.0))

    def test_excited_state_formula(self):
        # T* = |sin(beta/2)| / omega at theta = 0
        for beta in np.linspace(0.0, math.pi, 7):
            p = QubitParams(theta=0.0, omega=1.6, u_max=0.9)
            got = qubit_gate_time_bound(p, GateParams(1.1, float(beta)))
            assert_allclose(got, abs(math.sin(beta / 2)) / 1.6, atol=1e-12)

    def test_saturating_gate_at_half_time_unit(self):
        p = QubitParams(theta=0.0, omega=1.0, u_max=1.0)
        assert_allclose(
            qubit_gate_time_bound(p, GateParams(0.0, math.pi / 3)), 0.5, atol=1e-9
        )

    def test_equator_hardest_gates(self):
        for u_max in (1.0, 2.0):
            p = QubitParams(theta=math.pi / 4, omega=1.0, u_max=u_max)
            for alpha, beta in ((0.0, math.pi), (math.pi, 0.0), (2 * math.pi, math.pi)):
                got = qubit_gate_time_bound(p, GateParams(alpha, beta))
                assert_allclose(got, 1.0 / u_max, atol=1e-9)

    def test_radius_matches_fidelity_route(self):
        # the radius of the closed-form fidelity equals sqrt(1 - |<psi0|G|psi0>|^2);
        # the cell-centered grid keeps both routes away from the
        # cancellation-dominated zeros
        alphas = (np.arange(20) + 0.5) * (2 * math.pi / 20)
        betas = (np.arange(20) + 0.5) * (math.pi / 20)
        thetas = (np.arange(5) + 0.5) * (math.pi / 5)
        g = GateParams(np.repeat(alphas, betas.size), np.tile(betas, alphas.size))
        # one row per theta, one column per gate
        psi0 = qubit_state(QubitParams(theta=thetas))[:, None, :]
        lam = qsl.radius_from_fidelity(gate_fidelity(psi0, su2_gate(g)))
        assert lam.shape == (5, 400)
        closed = qsl.radius_from_fidelity(qubit_gate_fidelity(thetas[:, None], g))
        assert np.abs(closed - lam).max() <= 1e-10

    def test_matches_generic_pipeline(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = QubitParams(
                theta=rng.uniform(0.05, math.pi / 2 - 0.05),
                omega=rng.uniform(0.2, 2),
                u_max=rng.uniform(0.0, 2),
            )
            g = GateParams(rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi))
            coeffs = qsl.generic_coefficients(qubit_spec(p, with_control=True))
            lam = qsl.radius_from_fidelity(
                gate_fidelity(qubit_state(p), su2_gate(g))
            )
            assert abs(qubit_gate_time_bound(p, g) - qsl.qsl_time(coeffs, lam)) <= 1e-10

    def test_preconditions(self):
        with pytest.raises(ValueError, match="phi"):
            qubit_gate_time_bound(
                QubitParams(theta=0.1, phi=0.5), GateParams(0.0, 0.1)
            )

    @pytest.mark.parametrize("name", ["phi", "gamma"])
    def test_preconditions_on_arrays(self, name):
        g = GateParams(0.0, 0.1)
        with pytest.raises(ValueError, match=f"assumes {name} = 0"):
            qubit_gate_time_bound(QubitParams(theta=0.1, **{name: np.array([0.0, 0.5])}), g)
        zeros = QubitParams(theta=0.1, u_max=1.0, **{name: np.zeros(2)})
        assert qubit_gate_time_bound(zeros, g) == qubit_gate_time_bound(
            QubitParams(theta=0.1, u_max=1.0), g)

    def test_vanishing_drive_follows_qsl_time_convention(self):
        # at theta = pi/4 with u_max = 0 neither drive term moves the state
        # (A' = 0): T* = inf, or 0 for gates of radius below RADIUS_RESOLUTION
        p = QubitParams(theta=math.pi / 4, u_max=0.0)
        coeffs = qsl.generic_coefficients(qubit_spec(p, with_control=True))
        assert coeffs.speed < qsl.DEGENERACY_EPS
        g = GateParams(0.0, 0.1)
        assert qubit_gate_time_bound(p, g) == math.inf
        lam = qsl.radius_from_fidelity(gate_fidelity(qubit_state(p), su2_gate(g)))
        assert qsl.qsl_time(coeffs, lam) == math.inf
        assert qubit_gate_time_bound(p, GateParams(0.0, 0.0)) == 0.0
        # G(2pi, 0) = -I: a radius of pure roundoff
        assert qubit_gate_time_bound(p, GateParams(2 * math.pi, 0.0)) == 0.0
        stacked = GateParams(alpha=np.array([0.0, 2 * math.pi, 0.0]),
                             beta=np.array([0.0, 0.0, 0.1]))
        assert list(qubit_gate_time_bound(p, stacked)) == [0.0, 0.0, math.inf]

    @pytest.mark.parametrize("u_max", [0.0, 0.7])
    def test_array_theta_equals_scalar_calls(self, u_max):
        # theta = pi/4 with u_max = 0 is the degenerate drive: its row takes
        # the inf/0 rule while the other rows divide, elementwise
        thetas = np.array([0.0, 0.3, math.pi / 4, 1.2, math.pi / 2])
        g = GateParams(alpha=np.array([0.0, 2 * math.pi, 0.0, 1.1]),
                       beta=np.array([0.0, 0.0, 0.1, 2.0]))
        stacked = qubit_gate_time_bound(QubitParams(thetas[:, None], u_max=u_max), g)
        assert stacked.shape == (5, 4)
        for row, theta in zip(stacked, thetas):
            single = qubit_gate_time_bound(QubitParams(float(theta), u_max=u_max), g)
            assert np.array_equal(row, single)
        if u_max == 0.0:
            assert list(stacked[2]) == [0.0, 0.0, math.inf, math.inf]


class TestBellStates:
    def test_orthonormal_family(self):
        vecs = [bell_state(lbl) for lbl in models.BELL_LABELS]
        gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
        assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_maximal_entanglement(self):
        # purity of the reduced single-qubit state is 1/2
        for lbl in models.BELL_LABELS:
            v = bell_state(lbl).reshape(2, 2)
            reduced = v @ v.conj().T
            assert_allclose(np.trace(reduced @ reduced).real, 0.5, atol=1e-12)

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="label"):
            bell_state("omega-plus")

    def test_collective_decay_dark_state(self):
        m = collective_decay(1.3)
        assert np.linalg.norm(m @ bell_state("psi-minus")) < 1e-12

    def test_collective_decay_maps_phi_to_psi(self):
        g = 1.3
        m = collective_decay(g)
        out = m @ bell_state("phi-plus")
        assert_allclose(np.vdot(out, out).real, g, atol=1e-12)
        overlap = abs(np.vdot(bell_state("psi-plus"), out))
        assert_allclose(overlap, math.sqrt(g), atol=1e-12)

    def test_negative_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            collective_decay(-1.0)

    def test_non_finite_gamma(self):
        for gamma in (math.nan, math.inf, np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match="gamma must be finite"):
                collective_decay(gamma)


class TestBellBounds:
    def test_coefficients_at_unit_rate(self):
        expected = {
            "phi-plus": (math.sqrt(5), 1.0),
            "phi-minus": (math.sqrt(5), 1.0),
            "psi-plus": (4.0, 2.0),
            "psi-minus": (0.0, 0.0),
        }
        for lbl, (a, e) in expected.items():
            c = qsl.generic_coefficients(bell_spec(lbl, 1.0))
            assert_allclose(c.speed, a, atol=1e-10)
            assert_allclose(c.noise, e, atol=1e-10)

    def test_dark_state_unreachable(self):
        for g, lam in ((1.0, 0.5), (3.0, 0.9)):
            assert qsl.qsl_time(qsl.generic_coefficients(bell_spec("psi-minus", g)), lam) == math.inf

    def test_psi_plus_closed_form(self):
        # lambda/(2g) - ln(1 + 2 lambda)/(4g): generic pipeline and the
        # printed form agree exactly for this state
        for g, lam in ((1.0, 0.5), (2.0, 0.8)):
            expected = lam / (2 * g) - math.log1p(2 * lam) / (4 * g)
            c = qsl.generic_coefficients(bell_spec("psi-plus", g))
            assert_allclose(qsl.qsl_time(c, lam), expected, atol=1e-12)

    def test_phi_generic_value_and_log_argument_discrepancy(self):
        # generic coefficients (A, E) = (sqrt(5) g, g) give a log argument of
        # 1 + sqrt(5) lambda; a variant with log(1 + lambda) disagrees and is
        # reported for comparison only.
        g, lam = 1.0, 0.5
        generic = 2 * lam / (math.sqrt(5) * g) - (2 / (5 * g)) * math.log1p(math.sqrt(5) * lam)
        for label in ("phi-plus", "phi-minus"):
            c = qsl.generic_coefficients(bell_spec(label, g))
            assert_allclose(qsl.qsl_time(c, lam), generic, atol=1e-12)
        variant = 2 * lam / (math.sqrt(5) * g) - (2 / (5 * g)) * math.log1p(lam)
        assert abs(variant - generic) > 0.1  # the two forms are materially different

    def test_scaling_in_gamma(self):
        t1, t2 = (qsl.qsl_time(qsl.generic_coefficients(bell_spec("psi-plus", g)), 0.5)
                  for g in (1.0, 2.0))
        assert_allclose(t2, t1 / 2.0, atol=1e-12)


class TestQutrit:
    def test_worked_initial_state(self):
        # [sin(th/2) cos(ph/2), cos(th/2), sin(th/2) sin(ph/2)] at (pi, pi/2)
        th, ph = math.pi, math.pi / 2
        psi = [math.sin(th / 2) * math.cos(ph / 2), math.cos(th / 2),
               math.sin(th / 2) * math.sin(ph / 2)]
        assert_allclose(models.QUTRIT_PSI0, psi, atol=1e-12)
        assert_allclose(models.QUTRIT_PSI0, np.array([1.0, 0.0, 1.0]) / math.sqrt(2), atol=1e-15)

    def test_spec_operators(self):
        spec = qutrit_spec(1.4, 0.6)
        assert_allclose(spec.h_drift, 1.4 * models.SPIN1_X)
        assert_allclose(spec.h_control, models.SPIN1_Z)
        assert spec.u_max == 0.6

    def test_spec_ranges(self):
        with pytest.raises(ValueError, match="omega"):
            qutrit_spec(0.0, 1.0)
        with pytest.raises(ValueError, match="u_max"):
            qutrit_spec(1.0, -1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="omega must be finite"):
                qutrit_spec(bad, 1.0)
            with pytest.raises(ValueError, match="u_max must be finite"):
                qutrit_spec(1.0, bad)
            with pytest.raises(ValueError, match="omega must be finite"):
                qutrit_gate_time_bound(bad, 1.0, GateParams(0.1, 0.1))
            with pytest.raises(ValueError, match="u_max must be finite"):
                qutrit_gate_time_bound(1.0, bad, GateParams(0.1, 0.1))

    def test_so3_identity(self):
        assert_allclose(so3_gate(GateParams(0.0, 0.0)), np.eye(3), atol=1e-15)

    def test_so3_displayed_special_gates(self):
        assert_allclose(
            so3_gate(GateParams(math.pi, 0.0)), np.diag([-1.0, -1.0, 1.0]), atol=1e-12
        )
        assert_allclose(
            so3_gate(GateParams(0.0, math.pi / 2)),
            np.array([[0, 0, 1], [0, 1, 0], [-1, 0, 0]], dtype=float),
            atol=1e-12,
        )
        assert_allclose(
            so3_gate(GateParams(math.pi, math.pi)), np.diag([1.0, -1.0, -1.0]), atol=1e-12
        )

    def test_so3_stack_members_equal_single_gates(self):
        g = _random_gates(np.random.default_rng(8), 40)
        stack = so3_gate(g)
        assert stack.shape == (40, 3, 3)
        for i, single in enumerate(_each_gate(g)):
            assert np.array_equal(stack[i], so3_gate(single))

    def test_so3_orthogonality(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            g = GateParams(rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi))
            u = so3_gate(g)
            assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-12)

    def test_closed_form_fidelity_matches_gate_route(self):
        psi0 = models.QUTRIT_PSI0
        alphas = (np.arange(30) + 0.5) * (2 * math.pi / 30)
        betas = (np.arange(30) + 0.5) * (math.pi / 30)
        g = GateParams(np.repeat(alphas, betas.size), np.tile(betas, alphas.size))
        direct = gate_fidelity(psi0, so3_gate(g))
        assert direct.shape == (900,)
        assert np.abs(qutrit_gate_fidelity(g) - direct).max() <= 1e-10

    def test_gate_bound_values(self):
        assert qutrit_gate_time_bound(1.0, 1.0, GateParams(0.0, 0.0)) == 0.0
        assert_allclose(
            qutrit_gate_time_bound(1.0, 1.0, GateParams(0.0, math.pi / 2)), 0.5,
            atol=1e-12,
        )
        assert_allclose(
            qutrit_gate_time_bound(1.0, 1.0, GateParams(0.0, math.pi / 4)),
            math.sqrt(0.5) / 2,
            atol=1e-12,
        )

    def test_spin_up_transformation(self):
        # G(0, pi/4) sends [1, 0, 1]/sqrt(2) to the top level
        out = so3_gate(GateParams(0.0, math.pi / 4)) @ models.QUTRIT_PSI0
        assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-12)

    def test_gate_bound_matches_generic_pipeline(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            omega, u_max = rng.uniform(0.2, 2), rng.uniform(0.0, 2)
            g = GateParams(rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi))
            coeffs = qsl.generic_coefficients(qutrit_spec(omega, u_max))
            lam = qsl.radius_from_fidelity(
                gate_fidelity(models.QUTRIT_PSI0, so3_gate(g))
            )
            got = qutrit_gate_time_bound(omega, u_max, g)
            assert abs(got - qsl.qsl_time(coeffs, lam)) <= 1e-10
