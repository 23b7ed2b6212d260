import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from qslreach import cli, dynamics, qsl
from qslreach.dynamics import SystemSpec, integrate
from qslreach.models import (
    PAULI_X,
    PAULI_Z,
    QubitParams,
    bell_spec,
    bell_state,
    collective_decay,
    qubit_spec,
    qutrit_spec,
)
from qslreach.reachset import draw_random_system
from reference import adjoint_coefficients, adjoint_operators

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

    def test_adds_its_terms_in_one_order(self):
        # A' = (A_h + u_max A_c) + A_n bit for bit, each term the A of an
        # uncontrolled spec: the drift alone, the control alone, and the
        # Lindblad operators under H = 0
        rng = np.random.default_rng(31)
        n, d = 200, 3
        psi = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        x = rng.standard_normal((2, n, d, d)) + 1j * rng.standard_normal((2, n, d, d))
        h, hc = (x + np.swapaxes(x.conj(), -1, -2)) / 2
        ops = (rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)),
               rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        u_max = rng.uniform(0.0, 2.0, n)
        a_h, a_c, a_n = (speed(SystemSpec(psi0=psi, h_drift=g, lindblad_ops=m))
                         for g, m in ((h, ()), (hc, ()), (np.zeros((d, d)), ops)))
        got = speed(SystemSpec(psi0=psi, h_drift=h, h_control=hc, u_max=u_max, lindblad_ops=ops))
        assert np.array_equal(got, (a_h + u_max * a_c) + a_n)

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

    @pytest.mark.parametrize("a,e,ref", [
        (1e300, 1e-13, 9.999999999999999475e-301),   # A lambda / E overflows too
        (2e154, 3.0, 4.9999999999999998153e-155),
        (2e154, 1e150, 4.9953947798165115576e-155),  # the log term counts
    ])
    def test_overflowing_a_squared(self, a, e, ref):
        # above A ~ 1.34e154, A^2 overflows; T* at lambda = 1/2 must still
        # match its mpmath value (50 digits), scalar or array, with no warning
        assert_allclose(qsl.qsl_time(coeffs(a, e), 0.5), ref, rtol=1e-12)
        t = qsl.qsl_time(coeffs(np.array([a, 1.0]), np.array([e, 1.0])), np.array([0.5, 0.0]))
        assert_allclose(t, [ref, 0.0], rtol=1e-12)

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

    @pytest.mark.parametrize("a,e,T", [
        (2e154, 3.0, 1e-160),    # c ~ 7e147: the log term is below an ulp
        (1.7e154, 3.0, 1e-160),
        (1e300, 1e-13, 1e-301),  # c overflows even without A^2
        (1e200, 1.0, 0.0),       # A^2 T was inf * 0 = nan
    ])
    def test_overflowing_a_squared(self, a, e, T):
        # above A ~ 1.34e154, A^2 overflows; the radius is then A T / 2 to
        # 1e-15 relative (0 at T = 0), scalar or array, with no numpy warning
        lam = qsl.max_reachable_radius(coeffs(a, e), T)
        assert lam == pytest.approx(a * T / 2.0, rel=1e-15, abs=0.0)
        assert qsl.qsl_time(coeffs(a, e), lam) <= T
        c = coeffs(np.array([a, 1.0]), np.array([e, 1.0]))
        lam = qsl.max_reachable_radius(c, np.array([T, 0.3]))
        assert lam[0] == pytest.approx(a * T / 2.0, rel=1e-15, abs=0.0)
        assert lam[1] == qsl.max_reachable_radius(coeffs(1.0, 1.0), 0.3)
        assert (qsl.qsl_time(c, lam) <= [T, 0.3]).all()

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

    @pytest.mark.parametrize("grid", ["flat", "horizons"])
    def test_ulp_passes_match_a_per_entry_reference(self, monkeypatch, grid):
        # the closed-form root is stepped one ulp down while T* of it is over
        # T, at most three times; the result must equal that rule applied to
        # each entry on its own, with scalar qsl_time and math.nextafter, bit
        # for bit, through the inf/0 limits
        a, e, T = self._draw(n=3000, seed=37)
        a[::7], e[::5], T[::11], e[::13], T[::17] = 0.0, 0.0, 0.0, 1e-15, 1e308
        if grid == "horizons":
            a, e, T = a[:1000, None], e[:1000, None], np.array([0.0, 0.3, 2.0])
        seen, qsl_time = [], qsl.qsl_time
        monkeypatch.setattr(qsl, "qsl_time", lambda c, lam: seen.append(lam) or qsl_time(c, lam))
        lam = qsl.max_reachable_radius(qsl.QslCoefficients(a, e), T)
        monkeypatch.undo()
        ref, steps = [], []
        entries = (y.ravel().tolist() for y in np.broadcast_arrays(a, e, T, seen[0]))
        for ai, ei, ti, x in zip(*entries):
            c, k = coeffs(ai, ei), 0
            while k < 3 and qsl.qsl_time(c, x) > ti:
                x, k = math.nextafter(x, 0.0), k + 1
            ref.append(x)
            steps.append(k)
        assert lam.shape == seen[0].shape
        assert np.array_equal(lam.ravel().view(np.int64), np.array(ref).view(np.int64))
        # some roots are stepped, one of them by all three passes
        assert sum(steps) > 0 and max(steps) == 3

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
        for d in (1, 2, 3, 4, 8, 16):
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


def _stacks(spec):
    """The operator stacks of ``qsl._adjoint_stacks(spec)``, each joined
    over the chunks into one (B, d, d) array."""
    return [np.concatenate(x) for x in zip(*(xs for _, xs, _ in qsl._adjoint_stacks(spec)))]


def _in_chunks(spec, members):
    """``generic_coefficients(spec)`` in chunks of ``members`` members; None
    keeps the default chunks.  A controlled spec has three (d, d) stacks
    per member, an uncontrolled one a single stack."""
    with pytest.MonkeyPatch.context() as mp:
        if members is not None:
            stacks = 3 if spec.has_control else 1
            mp.setattr(dynamics, "CHUNK_BYTES", members * 16 * spec.dim ** 2 * stacks)
        return qsl.generic_coefficients(spec)


class TestCoefficientChunks:
    """``_adjoint_stacks`` takes a stack a chunk of members at a time; the
    chunk size moves no bit."""

    @staticmethod
    def _assert_chunks_keep_bits(spec, speed, noise):
        for members in (1, 7, None):
            c = _in_chunks(spec, members)
            assert np.array_equal(c.speed, speed) and np.array_equal(c.noise, noise)

    def _assert_matches_one_chunk(self, spec):
        whole = _in_chunks(spec, math.prod(spec.shape))
        self._assert_chunks_keep_bits(spec, whole.speed, whole.noise)

    def test_sweep_stack(self):
        # shared h and M over 5000 states: five chunks by default
        self._assert_matches_one_chunk(qubit_spec(QubitParams(
            theta=np.linspace(0.0, math.pi / 2, 5000), omega=1.0, gamma=0.4)))

    def test_bell_stack(self):
        # one shared state, a stacked collective decay over 2000 rates
        self._assert_matches_one_chunk(bell_spec("psi-plus", np.linspace(0.01, 2.0, 2000)))

    def test_controlled_qubit(self):
        # three operator stacks per member: drift, control and dissipator
        theta, p = np.linspace(0.0, math.pi, 3000), dict(gamma=0.3, u_max=0.7)
        spec = qubit_spec(QubitParams(theta=theta, **p), with_control=True)
        self._assert_matches_one_chunk(spec)
        c = _in_chunks(spec, 7)
        for i in (0, 1234, 2999):
            single = qsl.generic_coefficients(
                qubit_spec(QubitParams(theta=theta[i], **p), with_control=True))
            assert c.speed[i] == single.speed and c.noise[i] == single.noise

    def test_random_stack_of_every_field(self):
        # stacked and shared h, control, u_max and operators
        rng = np.random.default_rng(29)
        n, d = 300, 3
        psi = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        x = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
        hc = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        spec = SystemSpec(psi0=psi, h_drift=(x + np.swapaxes(x.conj(), -1, -2)) / 2,
                          h_control=(hc + hc.conj().T) / 2, u_max=rng.uniform(0.0, 2.0, n),
                          lindblad_ops=(rng.standard_normal((n, d, d)) + 0j, hc))
        self._assert_matches_one_chunk(spec)

    @pytest.mark.parametrize("d", [2, 4])
    def test_verify_block(self, d):
        # a random draw against its trials drawn one at a time
        spec = draw_random_system(7, d, range(40))
        singles = [qsl.generic_coefficients(draw_random_system(7, d, k)) for k in range(40)]
        self._assert_chunks_keep_bits(spec, np.array([c.speed for c in singles]),
                                      np.array([c.noise for c in singles]))

    def test_verify_block_is_one_pass(self, monkeypatch):
        # verify's largest block, 87 trials, is one chunk at d = 2 and at d = 4,
        # and so is a controlled stack of 87 qubits with its three stacks
        chunks = []
        real = qsl._adjoint_stacks

        def counted(spec):
            for chunk in real(spec):
                chunks.append(chunk[0])
                yield chunk

        monkeypatch.setattr(qsl, "_adjoint_stacks", counted)
        qsl.generic_coefficients(draw_random_system(42, 2, range(87)))
        qsl.generic_coefficients(draw_random_system(42, 4, range(87)))
        qsl.generic_coefficients(qubit_spec(QubitParams(
            theta=np.linspace(0.0, math.pi, 87), gamma=0.3, u_max=0.7), with_control=True))
        assert [s.indices(87) for s in chunks] == [(0, 87, 1)] * 3

    @staticmethod
    def _peak(spec):
        """The tracemalloc peak of ``generic_coefficients(spec)``."""
        tracemalloc.start()
        try:
            qsl.generic_coefficients(spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sweep_stack_peaks_below_twice_its_states(self):
        # beyond the (n,) results, the working memory is one chunk's
        spec = qubit_spec(QubitParams(theta=np.linspace(0.0, math.pi / 2, 50_000),
                                      omega=1.0, gamma=0.4))
        assert self._peak(spec) < 2 * spec.psi0.nbytes

    def test_controlled_stack_peaks_below_its_states(self):
        # three operator stacks per member in one chunk loop: the two (n,)
        # results are half the states' bytes, and the working memory beyond
        # them is one chunk's
        spec = qubit_spec(QubitParams(theta=np.linspace(0.0, math.pi / 2, 50_000),
                                      gamma=0.4, u_max=0.7), with_control=True)
        assert self._peak(spec) < spec.psi0.nbytes


class TestStateVectorRoute:
    """``generic_coefficients`` forms the adjoint generator from state
    vectors; ``lindblad(..., adjoint=True)`` on |psi><psi| is its reference."""

    @staticmethod
    def _matrices(rng, shape, d, hermitian=False):
        x = rng.standard_normal((*shape, d, d)) + 1j * rng.standard_normal((*shape, d, d))
        return (x + np.swapaxes(x.conj(), -1, -2)) / 2 if hermitian else x

    @pytest.mark.parametrize("control", [False, True], ids=["uncontrolled", "controlled"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16])
    def test_matches_the_adjoint_generator(self, d, control):
        # every mix of shared (d, d) and stacked (n, d, d) generators, with
        # 0 to 3 Lindblad operators: each operator stack and A to 1e-14
        # relative, E bit for bit; a 1-level system cannot move, and its
        # operators and both of its A are roundoff below the degeneracy
        # threshold
        rng = np.random.default_rng([29, d, control])
        n = 3
        psi = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        for n_ops in range(4):
            for h_shape, op_shape in [((), ()), ((n,), ()), ((), (n,)), ((n,), (n,))]:
                ctrl = dict(h_control=self._matrices(rng, h_shape, d, hermitian=True),
                            u_max=rng.uniform(0.0, 2.0, n)) if control else {}
                spec = SystemSpec(
                    psi0=psi, h_drift=self._matrices(rng, h_shape, d, hermitian=True),
                    lindblad_ops=tuple(self._matrices(rng, op_shape, d) for _ in range(n_ops)),
                    **ctrl)
                got = qsl.generic_coefficients(spec)
                a, e = adjoint_coefficients(spec)
                stacks, refs = _stacks(spec), adjoint_operators(spec)
                assert [x.shape for x in stacks] == [x.shape for x in refs] == \
                    [(n, d, d)] * (3 if control else 1)
                for x, ref in zip(stacks, refs):
                    err, size = (np.linalg.norm(y, axis=(-2, -1)) for y in (x - ref, ref))
                    if d == 1:
                        assert max(np.abs(x).max(), size.max()) < qsl.DEGENERACY_EPS
                    else:
                        assert (err <= 1e-14 * size).all()
                if d == 1:
                    assert max(got.speed.max(), a.max()) < qsl.DEGENERACY_EPS
                else:
                    assert_allclose(got.speed, a, rtol=1e-14, atol=0)
                assert np.array_equal(got.noise, e)

    @pytest.mark.parametrize("spec", [
        bell_spec("psi-minus", np.linspace(0.01, 4.0, 1250)),
        draw_random_system(5, 1, range(200)),
    ], ids=["dark-bell-stack", "one-level"])
    def test_degenerate_stacks_stay_below_the_threshold(self, spec):
        # the dark Bell state and every 1-level system cannot move: A and E
        # read 0 within roundoff, here and in the reference
        got = qsl.generic_coefficients(spec)
        a, e = adjoint_coefficients(spec)
        for x in (got.speed, got.noise, a, e):
            assert x.max() < qsl.DEGENERACY_EPS


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


def target_report(capsys, theta: str) -> dict:
    """The JSON report of ``bound --target-theta theta`` for a decaying qubit."""
    assert cli.main(["bound", "--model", "qubit", "--theta", "0.3", "--gamma", "0.5",
                     "--target-theta", theta, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def target_radius(capsys, theta: str) -> float:
    return target_report(capsys, theta)["lambda"]


class TestRadiusAngleMaps:
    """lambda(Theta) = radius_from_fidelity(cos Theta), which is also the route of
    ``bound --target-theta``."""

    def test_endpoints(self, capsys):
        assert qsl.radius_from_fidelity(math.cos(0.0)) == 0.0
        assert_allclose(qsl.radius_from_fidelity(math.cos(math.pi / 2)), 1.0)
        assert target_radius(capsys, "0") == 0.0
        assert_allclose(target_radius(capsys, "0.5pi"), 1.0)

    def test_round_trip(self):
        # Theta = arccos(1 - lambda^2) inverts lambda = sqrt(1 - cos Theta)
        for theta in np.linspace(0.0, math.pi / 2, 100):
            back = math.acos(1.0 - qsl.radius_from_fidelity(math.cos(theta)) ** 2)
            assert abs(back - theta) < 1e-12

    def test_target_theta_takes_the_route(self, capsys):
        for theta in (1e-3, 0.3, 1.2, math.pi / 2):
            assert target_radius(capsys, repr(theta)) == qsl.radius_from_fidelity(math.cos(theta))

    def test_out_of_range(self, capsys):
        for theta in ("2.0", "-1e-9", "nan", "0.5000001pi"):
            assert cli.main(["bound", "--model", "qubit", f"--target-theta={theta}"]) == 2
            assert capsys.readouterr().err == (
                f"error: --target-theta must lie in [0, pi/2], got {cli.parse_angle(theta)!r}\n")

    def test_floor_below_the_resolution(self, capsys):
        # 1 - cos(Theta) ~ Theta^2 / 2 < RADIUS_RESOLUTION^2 below Theta ~ 1.414e-6
        assert target_radius(capsys, "1.4e-6") == 0.0
        report = target_report(capsys, "1e-7")
        assert (report["lambda"], report["T_star"], report["T_dc"]) == (0.0, 0.0, 0.0)
        assert report["larger"] == "equal"
        assert_allclose(target_radius(capsys, "1.5e-6"), 1.5e-6 / math.sqrt(2), rtol=1e-3)

    def test_clamp_within_the_slack_above_half_pi(self, capsys):
        # cos goes negative past pi/2; the fidelity is clamped at 0, so lambda = 1
        theta = math.pi / 2 + 5e-13
        assert math.cos(theta) < 0.0
        assert target_radius(capsys, repr(theta)) == 1.0

    def test_radius_from_fidelity_clamps(self):
        assert qsl.radius_from_fidelity(1.0 + 1e-15) == 0.0
        assert qsl.radius_from_fidelity(-1e-15) == 1.0
        assert_allclose(qsl.radius_from_fidelity(0.75), 0.5)

    def test_radius_from_fidelity_floors_roundoff_noise(self):
        # a frozen state comes back with an angle of pure float noise; that
        # must not register as a nonzero displacement
        assert qsl.radius_from_fidelity(np.cos(2.6e-8)) == 0.0
        assert qsl.radius_from_fidelity(1.0 - 1e-13) == 0.0
        assert qsl.radius_from_fidelity(np.cos(0.0)) == 0.0
        assert qsl.radius_from_fidelity(np.cos(0.5)) == math.sqrt(1.0 - math.cos(0.5))
        lam = qsl.radius_from_fidelity(np.array([1.0 - 1e-13, 1.0 - 4e-12, 0.75]))
        assert lam[0] == 0.0 and lam[1] == math.sqrt(1.0 - (1.0 - 4e-12)) and lam[2] == 0.5


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
