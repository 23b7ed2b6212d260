import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from qslreach import qsl
from qslreach.dynamics import SystemSpec, integrate
from qslreach.models import (
    PAULI_X,
    PAULI_Z,
    QubitParams,
    bell_state,
    collective_decay,
    qubit_spec,
    qutrit_spec,
)
from qslreach.reachset import draw_random_system

KET0 = np.array([1.0, 0.0], dtype=complex)
ZERO2 = np.zeros((2, 2), dtype=complex)


def coeffs(a, e):
    return qsl.QslCoefficients(a, e)


def speed(spec):
    return qsl.generic_coefficients(spec).speed


def noise(psi0, ops):
    """E of ``psi0`` under the Lindblad operators ``ops`` (H plays no part)."""
    return qsl.generic_coefficients(
        SystemSpec(psi0=psi0, h_drift=np.zeros((psi0.shape[-1],) * 2), lindblad_ops=ops)).noise


class TestCoefficientTypes:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            coeffs(-1.0, 0.0)
        with pytest.raises(ValueError):
            coeffs(0.0, -1.0)
        with pytest.raises(ValueError):
            coeffs(np.array([1.0, np.nan]), 0.0)

    @pytest.mark.parametrize("a,e,name", [(math.inf, 1.0, "A"), (1.0, math.inf, "E"),
                                          (np.array([1.0, math.nan]), 0.0, "A"),
                                          (0.0, np.array([0.5, -math.inf]), "E")])
    def test_rejects_non_finite_and_names_it(self, a, e, name):
        with pytest.raises(ValueError, match=f"coefficient {name} is not finite"):
            coeffs(a, e)

    @pytest.mark.parametrize("spec", [
        qubit_spec(QubitParams(theta=0.3, gamma=1e160)),
        qubit_spec(QubitParams(theta=0.3, omega=1e200)),
        SystemSpec(psi0=bell_state("phi-plus"), h_drift=np.zeros((4, 4)),
                   lindblad_ops=(collective_decay(np.array([0.5, 1e308])),)),
    ], ids=["decay", "drive", "bell-stack"])
    def test_overflowing_rates_raise_without_warnings(self, spec):
        # np.linalg.norm overflows A once a rate is above about 1e154; the
        # pipeline runs with RuntimeWarnings as errors, so none may escape
        with pytest.raises(ValueError, match="coefficient A is not finite"):
            qsl.generic_coefficients(spec)


class TestSpeedCoefficient:
    def test_free_system(self):
        assert speed(SystemSpec(psi0=KET0, h_drift=ZERO2)) == 0.0

    def test_decaying_qubit_from_excited_state(self):
        spec = qubit_spec(QubitParams(theta=0.0, gamma=1.0, omega=1.0))
        assert_allclose(speed(spec), math.sqrt(2), atol=1e-12)

    def test_bell_collective_decay(self):
        spec = SystemSpec(
            psi0=bell_state("phi-plus"),
            h_drift=np.zeros((4, 4)),
            lindblad_ops=(collective_decay(1.0),),
        )
        assert_allclose(speed(spec), math.sqrt(5), atol=1e-12)


class TestControlledSpeedCoefficient:
    def test_qubit_closed_form(self):
        # 2 (omega |cos 2th| + u_max |sin 2th|) at phi = 0
        for theta in np.linspace(0.0, math.pi, 17):
            p = QubitParams(theta=float(theta), omega=1.3, u_max=0.7)
            spec = qubit_spec(p, with_control=True)
            expected = 2 * (1.3 * abs(math.cos(2 * theta)) + 0.7 * abs(math.sin(2 * theta)))
            assert_allclose(speed(spec), expected, atol=1e-10)

    def test_qutrit(self):
        assert_allclose(
            speed(qutrit_spec(1.2, 0.8)), 2 * (1.2 + 0.8),
            atol=1e-12,
        )

    def test_u_max_zero_reduces_to_drift_route(self):
        p = QubitParams(theta=0.4, omega=1.1, u_max=0.0)
        spec = qubit_spec(p, with_control=True)
        drift_only = SystemSpec(psi0=spec.psi0, h_drift=spec.h_drift)
        assert_allclose(speed(spec), speed(drift_only), atol=1e-12)

    def test_variance_identity(self):
        # sqrt(2) ||i[h, rho0]||_F = 2 sqrt(<h^2> - <h>^2) for pure states
        rng = np.random.default_rng(11)
        for _ in range(20):
            psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            psi /= np.linalg.norm(psi)
            x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            h = (x + x.conj().T) / 2
            rho0 = np.outer(psi, psi.conj())
            lhs = math.sqrt(2) * np.linalg.norm(1j * (h @ rho0 - rho0 @ h))
            var = (np.vdot(psi, h @ h @ psi) - np.vdot(psi, h @ psi) ** 2).real
            assert_allclose(lhs, 2 * math.sqrt(max(var, 0.0)), atol=1e-10)


class TestNoiseCoefficient:
    def test_empty_list(self):
        assert noise(KET0, ()) == 0.0

    def test_decaying_qubit_closed_form(self):
        for theta in np.linspace(0.0, math.pi, 13):
            p = QubitParams(theta=float(theta), gamma=0.8)
            spec = qubit_spec(p)
            assert_allclose(
                qsl.generic_coefficients(spec).noise,
                0.8 * math.cos(theta) ** 4,
                atol=1e-12,
            )

    def test_bell_psi_plus(self):
        assert_allclose(
            noise(bell_state("psi-plus"), (collective_decay(1.0),)),
            2.0,
            atol=1e-12,
        )

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert noise(psi, (m,)) >= 0.0


class TestQslTime:
    def test_reference_value(self):
        c = coeffs(math.sqrt(2), 1.0)
        assert_allclose(qsl.qsl_time(c, 1.0), math.sqrt(2) - math.log(1 + math.sqrt(2)),
                        atol=1e-12)

    def test_zero_radius(self):
        assert qsl.qsl_time(coeffs(3.0, 2.0), 0.0) == 0.0

    def test_frozen_system_unreachable(self):
        assert qsl.qsl_time(coeffs(0.0, 0.0), 0.5) == math.inf

    def test_noise_free_limit(self):
        assert_allclose(qsl.qsl_time(coeffs(2.0, 0.0), 0.6), 0.6)

    def test_speed_free_limit(self):
        assert_allclose(qsl.qsl_time(coeffs(0.0, 2.0), 0.6), 0.18)

    def test_limits_are_continuous(self):
        c_small = coeffs(1.5, 1e-13)
        c_zero = coeffs(1.5, 0.0)
        assert abs(qsl.qsl_time(c_small, 0.7) - qsl.qsl_time(c_zero, 0.7)) < 1e-10

    @settings(deadline=None)
    @given(
        st.floats(1e-6, 10.0), st.floats(0.0, 10.0),
        st.floats(1e-6, 1.0), st.floats(0.01, 0.99),
    )
    def test_range_and_monotonicity(self, a, e, lam, frac):
        c = coeffs(a, e)
        t = qsl.qsl_time(c, lam)
        assert 0.0 <= t <= 2 * lam / a + 1e-12           # log term is <= 0
        assert qsl.qsl_time(c, lam * frac) < t + 1e-15   # strictly increasing


class TestDelCampoComparison:
    # T_DC = sqrt(2) lambda^2 / A: Cauchy-Schwarz on dF/dt = tr(L^dag(rho_0) rho_t)
    # with ||rho_t||_F <= 1 gives 1 - F_T = lambda^2 <= T A / sqrt(2)
    def test_values(self):
        assert qsl.del_campo_time(coeffs(1.0, 0.0), 0.0) == 0.0
        assert_allclose(qsl.del_campo_time(coeffs(math.sqrt(2), 1.0), 1.0), 1.0)
        assert_allclose(qsl.del_campo_time(coeffs(math.sqrt(2), 1.0), 0.5), 0.25)
        assert qsl.del_campo_time(coeffs(0.0, 1.0), 0.5) == math.inf

    def test_arrays(self):
        t = qsl.del_campo_time(coeffs(2.0, 0.0), np.array([0.0, 0.5, 1.0]))
        assert_allclose(t, [0.0, math.sqrt(2) / 8, math.sqrt(2) / 2])

    def test_both_orderings_occur(self):
        c = coeffs(math.sqrt(2), 1.0)
        assert qsl.qsl_time(c, 1.0) < qsl.del_campo_time(c, 1.0)
        c2 = coeffs(20.0, 0.1)  # T* = 0.1 - 5e-4 ln 201 = 0.0973 > sqrt(2) / 20
        assert qsl.qsl_time(c2, 1.0) > qsl.del_campo_time(c2, 1.0)

    def test_ordering_is_not_fixed_by_x(self):
        # x = A lambda / E = 2 in both: T* = 2 lambda (1 - ln(3) / 2) / A
        c, lam = coeffs(1.0, 0.25), 0.5
        assert_allclose(qsl.qsl_time(c, lam), 1.0 - 0.5 * math.log(3.0))      # 0.4507
        assert_allclose(qsl.del_campo_time(c, lam), math.sqrt(2) / 4)          # 0.3536
        c, lam = coeffs(1.0, 0.45), 0.9
        assert_allclose(qsl.qsl_time(c, lam), 1.8 - 0.9 * math.log(3.0))       # 0.8112
        assert_allclose(qsl.del_campo_time(c, lam), math.sqrt(2) * 0.81)       # 1.1455

    def test_ordering_criterion(self):
        # T* - T_DC = (2 lambda / A) (1 - ln(1 + x) / x - lambda / sqrt(2))
        rng = np.random.default_rng(12)
        for _ in range(200):
            a = rng.uniform(0.1, 5.0)
            e = rng.uniform(0.01, 5.0)
            lam = rng.uniform(0.01, 1.0)
            x = a * lam / e
            gap = 1.0 - math.log1p(x) / x - lam / math.sqrt(2)
            if abs(gap) < 1e-9:
                continue
            c = coeffs(a, e)
            diff = qsl.qsl_time(c, lam) - qsl.del_campo_time(c, lam)
            assert (diff > 0) == (gap > 0)

    def test_simulation_respects_the_bound(self):
        # every sample of seeded random trajectories: T_DC(lambda_t) <= t
        for dim in (2, 3, 4):
            stack = draw_random_system(42, dim, range(40))
            traj = integrate(stack, T=0.5)
            c = qsl.generic_coefficients(stack)
            lam = qsl.radius_from_fidelity(traj.fidelities)
            t_dc = qsl.del_campo_time(coeffs(c.speed[:, None], c.noise[:, None]), lam)
            assert t_dc.shape == (40, len(traj.times))
            assert (t_dc <= traj.times * (1 + 1e-9) + 1e-12).all()


class TestMaxReachableRadius:
    def test_zero_horizon(self):
        assert qsl.max_reachable_radius(coeffs(1.0, 1.0), 0.0) == 0.0

    def test_frozen_system(self):
        assert qsl.max_reachable_radius(coeffs(0.0, 0.0), 5.0) == 0.0

    def test_caps_at_one(self):
        assert qsl.max_reachable_radius(coeffs(2.0, 1.0), 100.0) == 1.0

    def test_inverts_reference_example(self):
        c = coeffs(math.sqrt(2), 1.0)
        lam = qsl.max_reachable_radius(c, 0.532839)
        assert abs(lam - 1.0) < 2e-6
        assert qsl.qsl_time(c, lam) <= 0.532839
        assert qsl.qsl_time(c, lam + 1e-6) > 0.532839

    def test_round_trip(self):
        c = coeffs(1.7, 0.4)
        t = qsl.qsl_time(c, 0.7)
        assert_allclose(qsl.max_reachable_radius(c, t), 0.7, atol=1e-9)

    def test_matches_dense_scan(self):
        c = coeffs(math.sqrt(2), 1.0)
        lams = np.arange(0.0, 1.0001, 1e-4)
        feasible = [l for l in lams if qsl.qsl_time(c, float(l)) <= 0.3]
        assert abs(qsl.max_reachable_radius(c, 0.3) - max(feasible)) <= 1e-4

    def test_supremum_property(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            c = coeffs(rng.uniform(0.05, 5.0), rng.uniform(0.0, 5.0))
            t = rng.uniform(0.0, 2.0)
            lam = qsl.max_reachable_radius(c, t)
            assert qsl.qsl_time(c, lam) <= t + 1e-8
            if lam < 1.0:
                assert qsl.qsl_time(c, lam + 1e-6) > t

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValueError):
            qsl.max_reachable_radius(coeffs(1.0, 1.0), -0.1)

    @pytest.mark.parametrize("T", [math.inf, math.nan, np.array([0.5, math.inf])])
    def test_rejects_non_finite_horizon(self, T):
        # the inversion of an infinite horizon used to return NaN, not 1
        with pytest.raises(ValueError, match="finite"):
            qsl.max_reachable_radius(coeffs(1.0, 0.5), T)


class TestClosedFormInversion:
    """The Lambert-W inversion of T*(lambda), on seeded arrays."""

    @staticmethod
    def _draw(n=4000, seed=29):
        rng = np.random.default_rng(seed)
        a = 10.0 ** rng.uniform(-3, 1, n)
        e = 10.0 ** rng.uniform(-3, 1, n)
        T = 10.0 ** rng.uniform(-4, 1, n)
        return a, e, T

    def test_matches_scipy_lambert_w(self):
        from scipy.special import lambertw

        a, e, T = self._draw()
        c = a * a * T / (2 * e)
        # scipy's W_{-1} is wrong near the branch point (it returns -1, an
        # error of up to 100% in v, for c below about 1e-8), and
        # exp(-1 - c) underflows beyond c ~ 745
        keep = (c >= 1e-6) & (c <= 700.0)
        assert keep.sum() > 2000
        ref = np.minimum(e / a * (-lambertw(-np.exp(-1 - c), -1).real - 1), 1.0)
        lam = qsl.max_reachable_radius(qsl.QslCoefficients(a, e), T)
        assert_allclose(lam[keep], ref[keep], rtol=0, atol=1e-10)

    def test_round_trip(self):
        a, e, T = self._draw()
        c = qsl.QslCoefficients(a, e)
        lam = qsl.max_reachable_radius(c, T)
        keep = (a * lam / e >= 1e-3) & (lam < 1.0)
        assert keep.sum() > 1000
        assert_allclose(qsl.qsl_time(c, lam)[keep], T[keep], rtol=1e-10)

    def test_degenerate_limits(self):
        T = np.array([0.0, 0.02, 0.3, 500.0])
        for e in (0.0, 1e-15):  # E -> 0: A T / 2
            lam = qsl.max_reachable_radius(coeffs(1.5, e), T)
            assert_allclose(lam, np.minimum(1.5 * T / 2, 1.0), rtol=1e-15)
        for a in (0.0, 1e-15):  # A -> 0: sqrt(E T)
            lam = qsl.max_reachable_radius(coeffs(a, 0.8), T)
            assert_allclose(lam, np.minimum(np.sqrt(0.8 * T), 1.0), rtol=1e-15)
        assert list(qsl.max_reachable_radius(coeffs(0.0, 0.0), T)) == [0.0] * 4
        zero = qsl.max_reachable_radius(qsl.QslCoefficients(*self._draw()[:2]), 0.0)
        assert not zero.any()
        assert qsl.max_reachable_radius(coeffs(0.3, 2.0), 1e6) == 1.0

    def test_continuous_at_degeneracy_thresholds(self):
        # just above DEGENERACY_EPS the generic branch meets the limits
        assert abs(qsl.max_reachable_radius(coeffs(1.5, 1e-13), 0.4) - 0.3) < 1e-10
        assert abs(qsl.max_reachable_radius(coeffs(1e-13, 0.8), 0.4)
                   - math.sqrt(0.32)) < 1e-10

    def test_scalar_and_array_calls_agree(self):
        a, e, T = (x[:300] for x in self._draw(seed=31))
        a[::7], e[::5] = 0.0, 0.0
        c = qsl.QslCoefficients(a, e)
        lam = qsl.max_reachable_radius(c, T)
        t = qsl.qsl_time(c, T / 3)
        for i in range(a.size):
            ci = coeffs(float(a[i]), float(e[i]))
            assert qsl.max_reachable_radius(ci, float(T[i])) == lam[i]
            assert qsl.qsl_time(ci, float(T[i] / 3)) == t[i]
        assert isinstance(qsl.max_reachable_radius(coeffs(1.0, 1.0), 0.3), float)
        assert isinstance(qsl.qsl_time(coeffs(1.0, 1.0), 0.3), float)

    def test_broadcasts_over_horizons(self):
        c = qsl.QslCoefficients(np.array([[1.0], [2.0]]), np.array([[0.5], [0.1]]))
        lam = qsl.max_reachable_radius(c, np.array([0.1, 0.2, 0.3]))
        assert lam.shape == (2, 3)
        assert lam[1, 2] == qsl.max_reachable_radius(coeffs(2.0, 0.1), 0.3)


class TestStackedCoefficients:
    def test_matches_per_system_loop(self):
        # one SystemSpec stacking states, Hamiltonians and one of two Lindblad
        # operators against one SystemSpec per system
        rng = np.random.default_rng(17)
        n = 6
        for d in (2, 3, 4):
            psi = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
            psi /= np.linalg.norm(psi, axis=1, keepdims=True)
            x = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
            h = (x + np.swapaxes(x.conj(), -1, -2)) / 2
            m1 = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
            m2 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            stack = qsl.generic_coefficients(
                SystemSpec(psi0=psi, h_drift=h, lindblad_ops=(m1, m2)))
            a, e = stack.speed, stack.noise
            for i in range(n):
                c = qsl.generic_coefficients(
                    SystemSpec(psi0=psi[i], h_drift=h[i], lindblad_ops=(m1[i], m2)))
                assert_allclose(a[i], c.speed, rtol=0, atol=1e-14)
                assert_allclose(e[i], c.noise, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("control", [False, True], ids=["uncontrolled", "controlled"])
    def test_generic_coefficients_of_a_stack_equal_single_systems(self, control):
        # one stacked spec against one spec per member, bit for bit
        rng = np.random.default_rng(23)
        n = 5
        for d in (2, 3, 4):
            psi = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
            psi /= np.linalg.norm(psi, axis=1, keepdims=True)
            x = rng.standard_normal((2, n, d, d)) + 1j * rng.standard_normal((2, n, d, d))
            h, hc = (x + np.swapaxes(x.conj(), -1, -2)) / 2
            m1 = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
            m2 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            u_max = rng.uniform(0.0, 2.0, n)

            def spec(i):
                ctrl = dict(h_control=hc[i], u_max=u_max[i]) if control else {}
                return SystemSpec(psi0=psi[i], h_drift=h[i],
                                  lindblad_ops=(m1[i], m2), **ctrl)

            stack = qsl.generic_coefficients(spec(slice(None)))
            assert stack.speed.shape == stack.noise.shape == (n,)
            for i in range(n):
                single = qsl.generic_coefficients(spec(i))
                assert isinstance(single.speed, float)
                assert stack.speed[i] == single.speed
                assert stack.noise[i] == single.noise


class TestClosedSystemRadiusBound:
    """Purely Hamiltonian evolution: E = 0 and A = 2 sqrt(Var h), so the
    largest reachable radius is min(1, sqrt(<h^2> - <h>^2) T)."""

    @staticmethod
    def radius(psi, h, T):
        c = qsl.generic_coefficients(SystemSpec(psi0=psi, h_drift=h))
        return qsl.max_reachable_radius(c, T)

    def test_eigenstate_cannot_move(self):
        assert self.radius(KET0, PAULI_Z, 3.0) == 0.0

    def test_qubit_closed_form(self):
        # the standard deviation of omega sigma_z in the Bloch state is omega |sin 2th|
        for theta in np.linspace(0.0, math.pi, 9):
            psi = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
            got = self.radius(psi, 1.4 * PAULI_Z, 0.6)
            assert_allclose(got, 1.4 * abs(math.sin(2 * theta)) * 0.6, atol=1e-10)

    def test_consistent_with_radius_inversion(self):
        psi = np.array([math.cos(0.3), math.sin(0.3)], dtype=complex)
        h = 0.9 * PAULI_X + 0.4 * PAULI_Z
        T = 0.45
        var = (np.vdot(psi, h @ h @ psi) - np.vdot(psi, h @ psi) ** 2).real
        assert math.sqrt(var) * T < 1.0
        assert_allclose(self.radius(psi, h, T), math.sqrt(var) * T, atol=1e-8)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            self.radius(KET0, np.array([[0, 1], [0, 0]]), 1.0)


class TestRadiusAngleMaps:
    def test_endpoints(self):
        assert qsl.radius_from_angle(0.0) == 0.0
        assert_allclose(qsl.radius_from_angle(math.pi / 2), 1.0)

    def test_round_trip(self):
        # Theta = arccos(1 - lambda^2) inverts lambda = sqrt(1 - cos Theta)
        for theta in np.linspace(0.0, math.pi / 2, 100):
            back = math.acos(1.0 - qsl.radius_from_angle(float(theta)) ** 2)
            assert abs(back - theta) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            qsl.radius_from_angle(2.0)
        with pytest.raises(ValueError):
            qsl.radius_from_angle(math.nan)

    def test_radius_from_fidelity_clamps(self):
        assert qsl.radius_from_fidelity(1.0 + 1e-15) == 0.0
        assert qsl.radius_from_fidelity(-1e-15) == 1.0
        assert_allclose(qsl.radius_from_fidelity(0.75), 0.5)


class TestGenericCoefficients:
    def test_controlled_spec_gives_primed_speed(self):
        # A' = A_drift + u_max A_control >= A of any admissible constant drive
        spec = qubit_spec(QubitParams(theta=0.2, u_max=1.0), with_control=True)
        a_drift = speed(SystemSpec(psi0=spec.psi0, h_drift=spec.h_drift))
        a_ctrl = speed(SystemSpec(psi0=spec.psi0, h_drift=spec.h_control))
        assert speed(spec) == a_drift + a_ctrl
        for u in (-1.0, 0.3, 1.0):
            assert speed(SystemSpec(psi0=spec.psi0, h_drift=spec.h_drift + u * spec.h_control)) \
                <= speed(spec) + 1e-12

    def test_noise_vanishes_without_lindblad_operators(self):
        spec = SystemSpec(psi0=KET0, h_drift=PAULI_X)
        assert qsl.generic_coefficients(spec).noise == 0.0
