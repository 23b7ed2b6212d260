import contextlib
import io
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

import reference

from qslreach import dynamics, qsl, reachset
from qslreach.dynamics import integrate
from qslreach.models import BELL_LABELS, QubitParams, bell_spec, qubit_spec
from qslreach.reachset import (
    MARGIN_TOL,
    GridAxis,
    bell_sweep,
    check_bound,
    draw_random_system,
    gate_reach_map,
    sweep_reachable_radius,
    verify_bound,
)


class TestGrids:
    def test_axis_validation(self):
        with pytest.raises(ValueError, match="count"):
            GridAxis(0.0, 1.0, 1)
        with pytest.raises(ValueError, match="start"):
            GridAxis(1.0, 0.0, 10)
        for start, stop in ((0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)):
            with pytest.raises(ValueError, match="finite"):
                GridAxis(start, stop, 3)

    def test_horizon_validation(self):
        axis = GridAxis(0.0, 1.0, 5)
        for sweep in (lambda hs: sweep_reachable_radius(axis, hs, gamma=0.0),
                      lambda hs: gate_reach_map("qubit", axis, axis, hs)):
            with pytest.raises(ValueError, match="increasing"):
                sweep((0.5, 0.3))
            with pytest.raises(ValueError, match="positive"):
                sweep((0.0, 0.3))
            with pytest.raises(ValueError, match="horizon"):
                sweep(())
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match="finite"):
                    sweep((0.3, bad))

    def test_axis_values(self):
        assert_allclose(GridAxis(0.0, 1.0, 5).values(), [0, 0.25, 0.5, 0.75, 1.0])


class TestRadiusSweep:
    def test_closed_system_matches_rotation_formula(self):
        theta = GridAxis(0.0, math.pi / 2, 101)
        cols = sweep_reachable_radius(theta, (0.3, 0.5, 0.8), gamma=0.0, omega=1.0)
        for theta, T, lam in zip(cols["theta"], cols["T"], cols["lambda_max"]):
            expected = min(1.0, abs(math.sin(2 * theta)) * T)
            assert abs(lam - expected) <= 1e-8

    def test_poles_cannot_move_under_rotation(self):
        theta = GridAxis(0.0, math.pi / 2, 3)
        lams = sweep_reachable_radius(theta, (0.5,), gamma=0.0)["lambda_max"]
        assert lams[0] == 0.0   # theta = 0
        assert lams[-1] <= 1e-8  # theta = pi/2

    def test_superposition_at_half_time(self):
        theta = GridAxis(0.0, math.pi / 2, 3)
        lams = sweep_reachable_radius(theta, (0.5,), gamma=0.0)["lambda_max"]
        assert_allclose(lams[1], 0.5, atol=1e-8)  # theta = pi/4

    def test_decaying_case_matches_dense_scan(self):
        theta = GridAxis(0.0, math.pi / 2, 2)
        lam = sweep_reachable_radius(theta, (0.3,), gamma=1.0)["lambda_max"][0]  # theta = 0
        c = qsl.QslCoefficients(math.sqrt(2), 1.0)
        scan = max(
            l for l in np.arange(0.0, 1.0001, 1e-4) if qsl.qsl_time(c, float(l)) <= 0.3
        )
        assert abs(lam - scan) <= 1e-4

    def test_radius_monotone_in_horizon(self):
        theta = GridAxis(0.0, math.pi / 2, 25)
        lams = sweep_reachable_radius(theta, (0.3, 0.5, 0.8), gamma=1.0)["lambda_max"]
        lams = lams.reshape(-1, 3)
        for lam in lams:  # one row per theta, one column per horizon
            assert lam[0] <= lam[1] <= lam[2]

    def test_radius_monotone_in_decay_rate(self):
        # amplitude damping from the excited state: a stronger noise can only
        # enlarge the reachable ball at fixed T
        theta = GridAxis(0.0, 0.1, 2)
        lams = [
            sweep_reachable_radius(theta, (0.5,), gamma=g)["lambda_max"][0]
            for g in (0.2, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(lams, lams[1:]))


    def test_huge_horizon_caps_without_overflow(self):
        # A T / 2 and E T overflow to inf at T = 1e308: capped to 1, while the
        # unmoving pole (A = E = 0) stays at 0; warnings are errors here
        theta = GridAxis(0.0, math.pi / 4, 2)
        assert list(sweep_reachable_radius(theta, (1e308,), gamma=0.0)["lambda_max"]) == [0, 1]
        assert list(sweep_reachable_radius(theta, (1e308,), gamma=0.5)["lambda_max"]) == [1, 1]


class TestGateReachMap:
    def _grid(self, n=21):
        """The alpha axis, beta axis and horizons of an n x n gate map."""
        return GridAxis(0.0, 2 * math.pi, n), GridAxis(0.0, math.pi, n), (0.3, 0.5, 0.8)

    def test_excited_state_boundary(self):
        # at theta = 0 reachability within T depends on beta alone, with the
        # frontier at |sin(beta/2)| = omega T
        cols = gate_reach_map("qubit", *self._grid(), theta=0.0, omega=1.0, u_max=1.0)
        for beta, reach in zip(cols["beta"], cols["reach_T2"]):
            expected = abs(math.sin(beta / 2)) <= 0.5
            assert reach == expected

    def test_equator_hard_gates_unreachable(self):
        cols = gate_reach_map("qubit", *self._grid(5), theta=math.pi / 4)
        hard = {(0.0, math.pi), (2 * math.pi, math.pi), (math.pi, 0.0)}
        seen = 0
        for alpha, beta, reach in zip(cols["alpha"], cols["beta"], cols["reach_T3"]):
            key = (alpha, beta)
            if any(abs(key[0] - a) < 1e-12 and abs(key[1] - b) < 1e-12 for a, b in hard):
                seen += 1
                assert not reach  # not even within T = 0.8
        assert seen == len(hard)

    def test_identity_gate_always_reachable(self):
        for model in ("qubit", "qutrit"):
            cols = gate_reach_map(model, *self._grid(5))
            # row 0 is alpha = beta = 0
            assert cols["t_star"][0] == 0.0
            assert all(cols[f"reach_T{i}"][0] for i in (1, 2, 3))

    def test_reachability_monotone_in_horizon(self):
        for model in ("qubit", "qutrit"):
            cols = gate_reach_map(model, *self._grid(9), theta=0.1)
            for flags in zip(cols["reach_T1"], cols["reach_T2"], cols["reach_T3"]):
                assert all(flags[i] <= flags[i + 1] for i in range(len(flags) - 1))

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="model"):
            gate_reach_map("qudit", *self._grid(3))


def _owned_bytes(cols) -> int:
    """The bytes a column dict owns: each base buffer once, a zero-stride
    view (a constant column) as 0."""
    bases = {}
    for col in cols.values():
        if col.strides != (0,):
            while isinstance(col.base, np.ndarray):
                col = col.base
            bases[id(col)] = col.nbytes
    return sum(bases.values())


#: Each grid table function on a small grid, with its constant columns and their value.
_GRID_TABLES = {
    "sweep": (lambda: sweep_reachable_radius(GridAxis(0.0, 1.0, 4), (0.3, 0.5),
                                             gamma=0.4, omega=1.2),
              {"gamma": 0.4, "omega": 1.2}),
    "gate-qubit": (lambda: gate_reach_map("qubit", GridAxis(0.0, 1.0, 4),
                                          GridAxis(0.0, 1.0, 3), (0.3, 0.5), theta=0.2),
                   {"model": "qubit", "theta": 0.2}),
    "gate-qutrit": (lambda: gate_reach_map("qutrit", GridAxis(0.0, 1.0, 4),
                                           GridAxis(0.0, 1.0, 3), (0.3, 0.5)),
                    {"model": "qutrit", "theta": math.pi}),
    "bell": (lambda: bell_sweep(GridAxis(0.1, 1.0, 3), T=0.5), {"T": 0.5}),
    "verify": (lambda: verify_bound(seed=7, n_trials=2, dims=(2, 3), T=0.05, dt=1e-2),
               {"seed": 7, "T": 0.05}),
}


class TestColumnForms:
    """Each grid column is built at its final width: a constant column is a
    read-only zero-stride view of its one value, a reach flag is one byte per
    row, and no other column is a zero-stride view."""

    @pytest.mark.parametrize("name", list(_GRID_TABLES))
    def test_constant_columns_are_read_only_zero_stride_views(self, name):
        build, constants = _GRID_TABLES[name]
        cols = build()
        assert {k for k, col in cols.items() if col.strides == (0,)} == set(constants)
        for k, value in constants.items():
            assert not cols[k].flags.writeable, k
            assert cols[k].tolist() == [value] * len(cols[k]), k

    @pytest.mark.parametrize("model,theta,points", [
        ("qubit", 0.0, 4), ("qubit", 0.0, 100), ("qubit", 0.7, 9), ("qutrit", 0.0, 9),
    ])
    def test_reach_flags_are_bytes_of_t_star_le_T(self, model, theta, points):
        # at theta = 0 and T = 0.5 the beta = pi/3 column is a tie: T* lies
        # within two ulps of 0.5, on either side as alpha and the axis'
        # rounding of pi/3 vary (4 points hold pi/3 exactly, the default 100
        # hold it one ulp high), and the flag is the comparison on that float
        horizons = (0.3, 0.5, 0.8)
        cols = gate_reach_map(model, GridAxis(0.0, 2 * math.pi, points),
                              GridAxis(0.0, math.pi, points), horizons, theta=theta)
        t_star = cols["t_star"]
        for i, T in enumerate(horizons, start=1):
            flags = cols[f"reach_T{i}"]
            assert flags.dtype == np.uint8
            assert set(flags.tolist()) <= {0, 1}
            assert np.array_equal(flags.view(bool), t_star <= T)
        if model == "qubit" and theta == 0.0:
            ties = np.abs(t_star - 0.5) <= 2 * np.spacing(0.5)
            assert np.unique(cols["beta"][ties]).tolist() == [cols["beta"][points // 3]]
            assert ties.sum() == points

    @pytest.mark.parametrize("model", ["qubit", "qutrit"])
    def test_150_gate_map_columns_own_under_650_kb(self, model):
        # alpha, beta and t_star own 8 bytes a row and the three flags one
        # each: 22,500 x 27 bytes = 0.61 MB (1.80 MB with full-width copies)
        cols = gate_reach_map(model, GridAxis(0.0, 2 * math.pi, 150),
                              GridAxis(0.0, math.pi, 150), (0.3, 0.5, 0.8))
        assert _owned_bytes(cols) == 150 * 150 * (3 * 8 + 3) <= 650_000


class TestBellSweep:
    def test_dark_state_stays_at_origin(self):
        cols = bell_sweep(GridAxis(0.1, 2.0, 9), T=0.5)
        for state, lam in zip(cols["state"], cols["lambda_max"]):
            if state == "psi-minus":
                assert lam == 0.0

    def test_psi_plus_spreads_fastest(self):
        cols = bell_sweep(GridAxis(0.1, 2.0, 9), T=0.5)
        by_state = {}
        for state, lam in zip(cols["state"], cols["lambda_max"]):
            by_state.setdefault(state, []).append(lam)
        for psi, phi in zip(by_state["psi-plus"], by_state["phi-plus"]):
            assert psi >= phi - 1e-12
        assert_allclose(by_state["phi-plus"], by_state["phi-minus"], atol=1e-12)

    def test_weak_noise_limit(self):
        # lambda_max shrinks like sqrt(gamma T) as the noise switches off
        cols = bell_sweep(GridAxis(1e-6, 2e-6, 2), T=0.5)
        for state, gamma, lam in zip(cols["state"], cols["gamma"], cols["lambda_max"]):
            if state == "psi-minus":
                assert lam == 0.0
            else:
                assert lam <= 2 * math.sqrt(gamma * 0.5)

    def test_invalid_horizon(self):
        for T in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="T must be"):
                bell_sweep(GridAxis(0.1, 1.0, 3), T=T)

    def test_huge_horizon_caps_without_overflow(self):
        # the dark psi-minus state stays at 0, every other state reaches 1
        cols = bell_sweep(GridAxis(0.1, 2.0, 3), T=1e308)
        dark = cols["state"] == "psi-minus"
        assert (cols["lambda_max"][dark] == 0.0).all()
        assert (cols["lambda_max"][~dark] == 1.0).all()

    def test_rows_equal_single_bell_bounds(self):
        # each row is max_reachable_radius of that state's own coefficients
        cols = bell_sweep(GridAxis(0.05, 3.0, 25), T=0.7)
        for state, gamma, lam in zip(cols["state"], cols["gamma"], cols["lambda_max"]):
            coeffs = qsl.generic_coefficients(bell_spec(str(state), float(gamma)))
            assert lam == qsl.max_reachable_radius(coeffs, 0.7)


class TestVerifyBound:
    def test_frozen_system_has_full_margin(self):
        # the degenerate trial: nothing moves, so lambda = 0 and t_star = 0
        spec = qubit_spec(QubitParams(theta=0.0, omega=1.0))  # |0> eigenstate, no decay
        traj = integrate(spec, T=0.4, dt=1e-3)
        lam = qsl.radius_from_fidelity(traj.fidelities[-1])
        assert lam == 0.0
        assert qsl.qsl_time(qsl.generic_coefficients(spec), lam) == 0.0

    def test_amplitude_damping_trial_matches_analytic_fidelity(self):
        spec = qubit_spec(QubitParams(theta=0.0, gamma=1.0))
        traj = integrate(spec, T=1.0, dt=1e-3)
        theta_t = float(traj.thetas[-1])
        assert_allclose(theta_t, math.acos(math.exp(-1.0)), atol=1e-6)
        lam = qsl.radius_from_fidelity(traj.fidelities[-1])
        assert_allclose(lam, math.sqrt(1 - math.exp(-1.0)), atol=1e-6)
        t_star = qsl.qsl_time(qsl.generic_coefficients(spec), lam)
        assert t_star <= 1.0

    def test_draw_is_deterministic_and_normalized(self):
        a = draw_random_system(42, 3, 7)
        b = draw_random_system(42, 3, 7)
        assert_allclose(a.h_drift, b.h_drift)
        assert_allclose(a.lindblad_ops[0], b.lindblad_ops[0])
        assert_allclose(np.linalg.norm(a.psi0), 1.0, atol=1e-12)
        assert np.linalg.norm(a.h_drift) <= 2.0 + 1e-12
        assert np.linalg.norm(a.lindblad_ops[0]) <= 2.0 + 1e-12
        c = draw_random_system(43, 3, 7)
        assert np.linalg.norm(a.h_drift - c.h_drift) > 1e-6

    def test_draw_of_a_trial_range_stacks_the_single_draws(self):
        for dim in (2, 3, 4):
            stack = draw_random_system(42, dim, range(2, 7))
            assert stack.shape == (5,)
            for i, k in enumerate(range(2, 7)):
                single = draw_random_system(42, dim, k)
                assert single.shape == ()
                assert np.array_equal(stack.psi0[i], single.psi0)
                assert np.array_equal(stack.h_drift[i], single.h_drift)
                assert np.array_equal(stack.lindblad_ops[0][i], single.lindblad_ops[0])

    def test_small_batch_has_no_violations(self):
        cols = verify_bound(seed=42, n_trials=10, dims=(2, 3, 4), T=0.5, dt=1e-3)
        assert list(cols) == ["trial", "seed", "dim", "T", "theta_T", "lambda",
                              "t_star", "margin", "rate_excess"]
        assert all(len(c) == 30 for c in cols.values())
        assert not (cols["margin"] < -reachset.MARGIN_TOL).any()
        assert (cols["margin"] >= -reachset.MARGIN_TOL).all()
        assert (cols["rate_excess"] <= 1e-4).all()

    def test_violated_is_the_one_verdict(self):
        edge = -MARGIN_TOL
        assert reachset.violated(np.nextafter(edge, -1.0)) is True
        for margin in (edge, 0.0, 1.0, math.inf):
            assert reachset.violated(margin) is False
        assert reachset.violated(math.nan) is True
        assert reachset.violated(np.float64(-1.0)) is True
        margins = np.array([edge, np.nextafter(edge, -1.0), math.nan, -math.inf, 2.0])
        verdict = reachset.violated(margins)
        assert verdict.dtype == bool
        assert verdict.tolist() == [False, True, True, True, False]

    def test_records_are_reproducible(self):
        a = verify_bound(seed=7, n_trials=3, dims=(2,), T=0.3, dt=1e-3)
        b = verify_bound(seed=7, n_trials=3, dims=(2,), T=0.3, dt=1e-3)
        assert list(a) == list(b)
        assert all(np.array_equal(a[name], b[name]) for name in a)

    def test_columns_match_per_trial_route(self):
        # stacked check_bound blocks give the per-trial numbers bit for bit
        cols = verify_bound(seed=3, n_trials=4, dims=(2, 4), T=0.3, dt=1e-3)
        for i, (k, dim) in enumerate(zip(cols["trial"], cols["dim"])):
            spec = draw_random_system(3, int(dim), int(k))
            traj = integrate(spec, T=0.3, dt=1e-3)
            coeffs = qsl.generic_coefficients(spec)
            lam = qsl.radius_from_fidelity(traj.fidelities[-1])
            t_star = qsl.qsl_time(coeffs, lam)
            assert cols["theta_T"][i] == traj.thetas[-1]
            assert cols["lambda"][i] == lam
            assert cols["t_star"][i] == t_star
            assert cols["margin"][i] == 0.3 - t_star
            assert cols["rate_excess"][i] == dynamics.theta_rate_check(traj, coeffs).max()
        assert list(cols["trial"]) == [0, 1, 2, 3] * 2
        assert list(cols["dim"]) == [2] * 4 + [4] * 4

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
            verify_bound(seed=1, n_trials=0)
        with pytest.raises(ValueError, match="dim"):
            verify_bound(seed=1, n_trials=1, dims=())

    def test_rejects_dims_below_one(self):
        for dims in ((0,), (-1,), (2, 0)):
            with pytest.raises(ValueError, match="dims must be >= 1"):
                verify_bound(seed=1, n_trials=1, dims=dims)

    def test_rejects_repeated_dims(self):
        for dims in ((2, 2), (2, 3, 2)):
            with pytest.raises(ValueError, match="dims must be distinct"):
                verify_bound(seed=1, n_trials=1, dims=dims)


def _same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


class _LeadingZeros:
    """A Generator whose first ``count`` standard normals read -0.0."""

    def __init__(self, rng, count):
        self._rng, self._count = rng, count

    def standard_normal(self, size, out=None):
        z = self._rng.standard_normal(size)
        zeroed = min(self._count, z.size)
        z.reshape(-1)[:zeroed] = -0.0  # a zero with a sign to keep
        self._count -= zeroed
        if out is None:
            return z
        out[...] = z
        return out

    def uniform(self, low, high):
        return self._rng.uniform(low, high)

    def random(self):
        return self._rng.random()


class TestStackedDraw:
    """The stacked draw against the per-trial draw of ``reference``."""

    @pytest.mark.parametrize("seed", [0, 42, 901])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8, 16])
    def test_members_equal_the_per_trial_draw_bit_for_bit(self, seed, dim):
        for trials in (range(40), [7, 3, 11], 5):
            spec = draw_random_system(seed, dim, trials)
            fields = [spec.psi0, spec.h_drift, spec.lindblad_ops[0]]
            if np.ndim(trials) == 0:
                fields, trials = [a[None] for a in fields], [trials]
            for i, k in enumerate(trials):
                for got, want in zip(fields, reference.draw_random_system(seed, dim, k)):
                    assert _same_bits(got[i], want), (trials, k)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_zero_h_draws_no_strength(self, monkeypatch, dim):
        # trial k's rng hands out zeros[k] zero normals first: trial 1's X
        # is 0, trial 2 has x_00 = 0 only (H = 0 for d = 1, where the
        # imaginary part cancels), trial 3 has a zero real part
        zeros = [0, 2 * dim * dim, 1, dim * dim]
        rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda s: _LeadingZeros(rng(s), zeros[s[2]]))
        spec = draw_random_system(4, dim, range(4))
        for k in range(4):
            want = reference.draw_random_system(4, dim, k)
            assert _same_bits(spec.psi0[k], want[0])
            assert _same_bits(spec.h_drift[k], want[1])
            assert _same_bits(spec.lindblad_ops[0][k], want[2])
        zero = [not h.any() for h in spec.h_drift]
        assert zero == [False, True, dim == 1, dim == 1]

    def test_empty_trial_sequence_is_rejected(self):
        for trials in (range(0), []):
            with pytest.raises(ValueError, match="a draw needs at least one trial"):
                draw_random_system(42, 2, trials)


class TestCheckBound:
    def test_one_system_gives_floats(self):
        traj, rec = check_bound(qubit_spec(QubitParams(theta=0.0, gamma=1.0)), T=1.0)
        assert list(rec) == ["theta_T", "lambda", "t_star", "margin", "rate_excess"]
        assert all(type(v) is float for v in rec.values())
        assert rec["theta_T"] == traj.thetas[-1]
        assert rec["lambda"] == qsl.radius_from_fidelity(traj.fidelities[-1])
        assert_allclose(rec["lambda"], math.sqrt(1 - math.exp(-1.0)), atol=1e-6)
        assert rec["margin"] == 1.0 - rec["t_star"] >= -MARGIN_TOL
        assert rec["rate_excess"] <= 1e-12

    def test_stack_rows_equal_single_checks(self):
        thetas = np.array([0.0, 0.4, 1.1])
        _, stacked = check_bound(qubit_spec(QubitParams(theta=thetas, gamma=0.5)), T=0.3)
        for i, theta in enumerate(thetas):
            _, single = check_bound(qubit_spec(QubitParams(theta=float(theta), gamma=0.5)), T=0.3)
            for name, value in single.items():
                assert stacked[name].shape == (3,)
                assert stacked[name][i] == value, name

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0, 3.0])
    def test_sweep_lambda_rows_are_reachable_by_simulation(self, gamma):
        # each (theta, T) row of sweep-lambda, simulated: the bound holds and
        # the simulated radius stays within the row's lambda_max
        axis, hs = GridAxis(0.0, math.pi / 2, 60), (0.3, 0.5, 0.8)
        lam_max = sweep_reachable_radius(axis, hs, gamma=gamma)["lambda_max"].reshape(60, 3)
        spec = qubit_spec(QubitParams(theta=axis.values(), gamma=gamma))
        for j, T in enumerate(hs):
            _, rec = check_bound(spec, T)
            assert (rec["margin"] >= -MARGIN_TOL).all()
            assert (rec["lambda"] <= lam_max[:, j] + 1e-9).all()

    def test_bell_sweep_rows_are_reachable_by_simulation(self):
        gammas = GridAxis(0.01, 2.0, 50)
        lam_max = bell_sweep(gammas, 0.5)["lambda_max"].reshape(len(BELL_LABELS), 50)
        for label, row in zip(BELL_LABELS, lam_max):
            _, rec = check_bound(bell_spec(label, gammas.values()), 0.5)
            assert (rec["margin"] >= -MARGIN_TOL).all(), label
            assert (rec["lambda"] <= row + 1e-9).all(), label


class TestCsvOutput:
    def test_lambda_sweep_columns(self, tmp_path):
        cols = sweep_reachable_radius(GridAxis(0.0, 1.0, 3), (0.3, 0.5), gamma=1.0)
        path = tmp_path / "sweep.csv"
        reachset.write_rows(cols, path, "csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "theta,gamma,omega,T,lambda_max"
        assert len(lines) == 1 + 3 * 2

    def test_gate_map_columns(self, tmp_path):
        axis = GridAxis(0.0, 1.0, 2)
        cols = gate_reach_map("qutrit", axis, axis, (0.3, 0.5, 0.8))
        path = tmp_path / "gates.csv"
        reachset.write_rows(cols, path, "csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "model,theta,alpha,beta,t_star,reach_T1,reach_T2,reach_T3"
        assert len(lines) == 1 + 4
        assert lines[1].startswith("qutrit,")

    def test_bell_sweep_columns(self, tmp_path):
        cols = bell_sweep(GridAxis(0.5, 1.0, 2), T=0.5)
        path = tmp_path / "bell.csv"
        reachset.write_rows(cols, path, "csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "state,gamma,T,lambda_max"
        assert lines[1].split(",")[0] == "phi-plus"

    def test_verify_columns(self, tmp_path):
        cols = verify_bound(seed=1, n_trials=2, dims=(2,), T=0.2, dt=1e-3)
        cols.pop("rate_excess")
        path = tmp_path / "verify.csv"
        reachset.write_rows(cols, path, "csv", comment=reachset.VERIFY_CSV_COMMENT)
        lines = path.read_text().splitlines()
        # the sampling distribution is recorded ahead of the column header
        assert lines[0].startswith("# random systems:")
        assert lines[1] == "trial,seed,dim,T,theta_T,lambda,t_star,margin"
        assert len(lines) == 4

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "digits.csv"
        reachset.write_rows({"x": [1.0 / 3.0], "n": [7]}, path, "csv")
        assert path.read_text().splitlines()[1] == "0.333333333,7"

    def test_infinity_serializes_as_inf(self, tmp_path):
        path = tmp_path / "inf.csv"
        reachset.write_rows({"t_star": [math.inf]}, path, "csv")
        assert path.read_text().splitlines()[1] == "inf"

    def test_byte_identical_reruns(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (p1, p2):
            cols = verify_bound(seed=5, n_trials=3, dims=(2, 3), T=0.3, dt=1e-3)
            cols.pop("rate_excess")
            reachset.write_rows(cols, p, "csv", comment=reachset.VERIFY_CSV_COMMENT)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="no rows"):
            reachset.write_rows({}, "unused.csv", "csv")

    @pytest.mark.parametrize("table", [{"x": [1.0, 2.0], "c": [5]},
                                       {"x": [1.0, 2.0], "n": [1, 2, 3]}], ids=["short", "long"])
    def test_unequal_columns_rejected(self, tmp_path, table):
        # a one-cell column would otherwise be written as a constant, and the
        # extra cells of a longer column dropped; no file is created
        for fmt in ("csv", "json"):
            with pytest.raises(ValueError, match="same length"):
                reachset.write_rows(table, tmp_path / f"t.{fmt}", fmt)
        assert not list(tmp_path.iterdir())


# names and strings carry the characters that %-templates, str.format, JSON
# and CSV treat specially, and the NUL that numpy's unicode dtype strips
_TEXT = st.text(alphabet='ab %{}",\\\'\u00e9\x00', max_size=5)
_CELLS = (st.floats(), st.integers(-2 ** 63, 2 ** 63 - 1), st.booleans(), _TEXT)


@st.composite
def _tables(draw):
    """A column dict of 1-40 rows and 1-5 columns, each column of one type;
    floats include inf, -inf, nan and -0.0.  A column draws every cell
    afresh or repeats a pool of 1-3 values, so the writer formats some
    columns in place and renders the distinct cells of others once."""
    n = draw(st.integers(1, 40))
    names = draw(st.lists(_TEXT, min_size=1, max_size=5, unique=True))

    def column():
        cells = draw(st.sampled_from(_CELLS))
        if draw(st.booleans()):
            cells = st.sampled_from(draw(st.lists(cells, min_size=1, max_size=3)))
        return draw(st.lists(cells, min_size=n, max_size=n))

    return {name: column() for name in names}


_REPEATING_FLOATS = st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 0.1, -2.5, 1e300])


@st.composite
def _fused_tables(draw):
    """A column dict of 1-80 rows whose 1-7 columns take, in random order,
    the forms that runs of looked-up columns are made of: constants (lists
    and zero-stride views), small-range integers, one-byte flags, floats
    repeating -0.0, NaN and +-inf, lists of strings with "%" and trailing
    NULs from a pool, floats 50-90% distinct, and mostly-distinct floats."""
    n = draw(st.integers(1, 80))

    def pool(cells, size=3):
        return draw(st.lists(st.sampled_from(draw(st.lists(cells, min_size=1, max_size=size))),
                             min_size=n, max_size=n))

    def column(kind):
        if kind == "constant":
            value = draw(draw(st.sampled_from(_CELLS)))
            return [value] * n if draw(st.booleans()) else np.broadcast_to(value, n)
        if kind == "integers":
            low = draw(st.integers(-2 ** 63, 2 ** 63 - 300))
            return np.array(pool(st.integers(low, low + 299), 5), dtype=np.int64)
        if kind == "flags":
            return np.array(pool(st.integers(0, 1), 2), dtype=np.uint8)
        if kind == "floats":
            return np.array(pool(_REPEATING_FLOATS, 4))
        if kind == "strings":
            return pool(_TEXT)
        if kind == "share":
            # 50-90% of the rows distinct by bit pattern: either side of the
            # lookup shares of both formats (CSV 50%, JSON 80%)
            k = max(1, round(n * draw(st.floats(0.5, 0.9))))
            levels = draw(st.lists(st.floats(), min_size=k, max_size=k,
                                   unique_by=lambda v: struct.pack("<d", v)))
            rows = levels + draw(st.lists(st.sampled_from(levels), min_size=n - k, max_size=n - k))
            return np.array(draw(st.permutations(rows)))
        return np.array(draw(st.lists(st.floats(), min_size=n, max_size=n)))

    kinds = draw(st.lists(st.sampled_from(["constant", "integers", "flags", "floats", "strings",
                                           "share", "distinct"]), min_size=1, max_size=7))
    names = draw(st.lists(_TEXT, min_size=len(kinds), max_size=len(kinds), unique=True))
    return {name: column(kind) for name, kind in zip(names, kinds)}


def _float_of_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# NaNs of either sign with any payload, and the other floats whose text the
# writer must keep apart by bit pattern
_KEYED_FLOATS = st.one_of(
    st.floats(), st.sampled_from([-0.0, 0.0, math.inf, -math.inf]),
    st.builds(lambda sign, payload: _float_of_bits(sign << 63 | 0x7FF << 52 | payload),
              st.integers(0, 1), st.integers(1, 2 ** 52 - 1)))


@st.composite
def _looked_up_columns(draw):
    """A column whose distinct values are at most half its rows, so that
    ``_cells`` looks it up, with the keys it sorts: floats (by bit pattern),
    integers spanning at least 256 values, numpy strings, or a list of
    strings holding NUL and "%" (as an object array).  It has 1-300 levels,
    each at least once, in shuffled rows."""
    kind = draw(st.sampled_from(["floats", "integers", "numpy strings", "string list"]))
    if kind == "floats":
        levels = draw(st.lists(_KEYED_FLOATS, min_size=1, max_size=300,
                               unique_by=lambda v: struct.pack("<d", v)))
    elif kind == "integers":
        low = draw(st.integers(-2 ** 63, 2 ** 62))
        levels = [low, low + 300] + draw(st.lists(st.integers(low, low + 2 ** 62 - 1), max_size=298))
    else:
        levels = draw(st.lists(_TEXT, min_size=1, max_size=300, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    picks = rng.permutation(np.concatenate([np.arange(len(levels)),
                                            rng.integers(0, len(levels), len(levels))]))
    rows = [levels[k] for k in picks]
    if kind == "string list":
        return rows, np.array(rows, dtype=object)
    column = np.array(rows)
    return column, column.view(np.int64) if kind == "floats" else column


def _reference_cell(value, fmt):
    """One cell as the writer renders it, from its Python value."""
    if isinstance(value, float):
        if fmt == "csv":
            return f"{value:.9g}"
        return repr(value) if math.isfinite(value) else f'"{value}"'
    return str(value) if fmt == "csv" else json.dumps(value)


def _template_cells(columns, fmt):
    """The number of cells substituted per row of ``format_rows``' template."""
    rows = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reachset, "_block_rows", lambda row, width: rows.append(row) or 1)
        next(reachset.format_rows(columns, fmt))
    return rows[0].replace("%%", "").count("%")


@contextlib.contextmanager
def _blocks_of(rows):
    """``format_rows`` in blocks of ``rows`` rows; None keeps the default rule."""
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(reachset, "_block_rows", lambda row, width: rows)
        yield


class TestWriteRows:
    TABLE = {
        "label": ["phi-plus", 'a "quoted" one', "x"],
        "x": [1.0 / 3.0, -2.5e-12, math.inf],
        "n": [7, -1, 0],
        "flag": [True, False, True],
        "big": [1e300, 0.1, 123456789.123],
    }

    def _rows(self):
        return [dict(zip(self.TABLE, row)) for row in zip(*self.TABLE.values())]

    def test_json_matches_json_dumps(self, tmp_path):
        payload = [
            {k: "inf" if isinstance(v, float) and math.isinf(v) else v for k, v in row.items()}
            for row in self._rows()
        ]
        path = tmp_path / "t.json"
        reachset.write_rows(self.TABLE, path, "json")
        assert path.read_text() == json.dumps(payload, indent=2) + "\n"

    def test_csv_matches_per_cell_formatting(self, tmp_path):
        expected = ",".join(self.TABLE) + "\n" + "".join(
            ",".join(f"{v:.9g}" if isinstance(v, float) else str(v) for v in row.values()) + "\n"
            for row in self._rows()
        )
        path = tmp_path / "t.csv"
        reachset.write_rows(self.TABLE, path, "csv")
        assert path.read_text() == expected

    def test_numpy_columns_write_like_lists(self):
        arrays = {k: np.array(v) for k, v in self.TABLE.items()}
        for fmt in ("csv", "json"):
            a, b = io.StringIO(), io.StringIO()
            reachset.write_rows(self.TABLE, a, fmt)
            reachset.write_rows(arrays, b, fmt)
            assert a.getvalue() == b.getvalue()

    def test_constant_numpy_columns_write_like_lists(self):
        # constant float (by bit pattern), int, bool and unicode columns, each
        # rendered once into the row template
        table = {"model": np.full(9, "q%"), "nan": np.full(9, np.nan),
                 "zero": np.full(9, -0.0), "n": np.full(9, 3), "b": np.full(9, True)}
        for fmt in ("csv", "json"):
            a, b = io.StringIO(), io.StringIO()
            reachset.write_rows(table, a, fmt)
            reachset.write_rows({k: v.tolist() for k, v in table.items()}, b, fmt)
            assert a.getvalue() == b.getvalue()

    def test_comment_precedes_csv_header_only(self):
        cols = {"x": [0.5]}
        csv_out, json_out = io.StringIO(), io.StringIO()
        reachset.write_rows(cols, csv_out, "csv", comment="# note")
        reachset.write_rows(cols, json_out, "json", comment="# note")
        assert csv_out.getvalue() == "# note\nx\n0.5\n"
        assert json.loads(json_out.getvalue()) == [{"x": 0.5}]

    def test_negative_infinity_keeps_its_sign(self):
        out = io.StringIO()
        reachset.write_rows({"margin": [-math.inf]}, out, "json")
        assert json.loads(out.getvalue()) == [{"margin": "-inf"}]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            reachset.write_rows({"x": [1.0]}, io.StringIO(), "xml")

    def test_trailing_nul_is_kept(self):
        for fmt, expected in (("json", '"s": "a\\u0000"'), ("csv", "s\na\x00\n")):
            out = io.StringIO()
            reachset.write_rows({"s": ["a\x00"]}, out, fmt)
            assert expected in out.getvalue()

    @settings(max_examples=200, deadline=None)
    @given(table=_tables())
    def test_random_tables_match_reference_encoders(self, table):
        # 1-40 rows in blocks of 1, 2 and 3 rows and of the default rule: the
        # row counts fall on, and one either side of, whole blocks of 2 and 3
        for block_rows in (1, 2, 3, None):
            with _blocks_of(block_rows):
                self._assert_matches_reference_encoders(table)

    @staticmethod
    def _assert_matches_reference_encoders(table):
        # the reference encoders take an array column's cells as Python values
        cells = [col.tolist() if isinstance(col, np.ndarray) else col for col in table.values()]
        rows = [dict(zip(table, row)) for row in zip(*cells)]
        csv_out, json_out = io.StringIO(), io.StringIO()
        reachset.write_rows(table, csv_out, "csv")
        reachset.write_rows(table, json_out, "json")
        assert csv_out.getvalue() == ",".join(table) + "\n" + "".join(
            ",".join(f"{v:.9g}" if isinstance(v, float) else str(v) for v in row.values())
            + "\n" for row in rows
        )
        safe = [{k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
                 for k, v in row.items()} for row in rows]
        assert json_out.getvalue() == json.dumps(safe, indent=2) + "\n"
        # nested as simulate nests its trajectory: every line but the first indented
        nested = "".join(reachset.format_rows(table, "json", "  "))
        assert nested == json.dumps(safe, indent=2).replace("\n", "\n  ")

    @staticmethod
    def _mixed_table(n, form):
        # distinct, repeating, constant and 0/1 flag columns, as lists or in
        # the forms the grid functions return: zero-stride views for the
        # constants, and flags of one byte (one varying, one all 1)
        x = np.linspace(-1.0, 1.0, n)
        table = {"x": x, "k": np.arange(n) % 5, "T": np.broadcast_to(0.5, n),
                 "t": np.where(x > 0.9, math.inf, x), "label": np.broadcast_to("a%s", n),
                 "reach": (x <= 0.3).view(np.uint8), "all": (x <= 1.0).view(np.uint8)}
        return {k: col.tolist() for k, col in table.items()} if form == "lists" else table

    @pytest.mark.parametrize("form", ["lists", "arrays"])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("blocks", [1, 2, 8])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_around_default_blocks_match_reference(self, fmt, blocks, extra, form):
        # the row counts fall on, and one either side of, whole blocks of the
        # default rule, which gives this table hundreds of rows per block; 8
        # blocks make a table of many
        first = next(reachset.format_rows(self._mixed_table(5000, form), fmt))
        k = first.count("\n") if fmt == "csv" else first.count('"x": ')
        assert 100 < k < 5000
        self._assert_matches_reference_encoders(self._mixed_table(blocks * k + extra, form))

    @pytest.mark.parametrize("form", ["list", "zero-stride"])
    @pytest.mark.parametrize("value", ["a%\x00b%", "%s\x00", "%%", math.nan, -0.0, 0.0,
                                       math.inf, -math.inf, 7, -2 ** 63, True, False], ids=repr)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_constant_columns_match_reference(self, value, n, form):
        # a constant column sits in the row template as literal text; so does
        # every column of the second table.  "zero-stride": the read-only
        # np.broadcast_to view the grid functions return (numpy's unicode
        # dtype drops a trailing NUL, and the reference sees the same cells)
        def column(v):
            return [v] * n if form == "list" else np.broadcast_to(v, n)

        for block_rows in (1, 2, 3, None):
            with _blocks_of(block_rows):
                self._assert_matches_reference_encoders(
                    {"c": column(value), "y": [0.25 * i for i in range(n)]})
                self._assert_matches_reference_encoders(
                    {"c%": column(value), "s%d": column("%d"), "e": column(1.5)})

    @staticmethod
    def _write_peak(cols, path, fmt):
        """The traced peak of writing ``cols`` to ``path``, in bytes."""
        tracemalloc.start()
        try:
            reachset.write_rows(cols, path, fmt)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_json_gate_map_peaks_below_its_file_size(self, tmp_path):
        # the rows are formatted and written a block at a time, each block's
        # text under the mmap threshold, and each column is sorted once, its
        # lookup codes narrowed to a byte per row: no whole-table text,
        # template or cell list, and no permutation or inverse of np.unique,
        # is held, so the 22,500-row map is written in less than its columns
        # own
        cols = reachset.gate_reach_map("qubit", GridAxis(0.0, 2 * math.pi, 150),
                                       GridAxis(0.0, math.pi, 150), (0.3, 0.5, 0.8))
        path = tmp_path / "map.json"
        peak = self._write_peak(cols, path, "json")
        assert peak < path.stat().st_size
        # alpha, beta and t_star (8 bytes a row) and the three one-byte reach
        # flags own 0.608 MB; model and theta own none
        assert peak < _owned_bytes(cols)

    def test_qutrit_csv_gate_map_peaks_below_its_columns(self, tmp_path):
        cols = reachset.gate_reach_map("qutrit", GridAxis(0.0, 2 * math.pi, 150),
                                       GridAxis(0.0, math.pi, 150), (0.3, 0.5, 0.8))
        assert self._write_peak(cols, tmp_path / "map.csv", "csv") < _owned_bytes(cols)

    def test_json_map_of_distinct_t_star_peaks_under_2_5_mb(self, tmp_path):
        # t_star here is about 58% distinct, so its JSON cells are looked up:
        # the peak holds its ~13,000 level strings (about 2 MB), not a
        # whole-table text
        cols = reachset.gate_reach_map("qubit", GridAxis(0.0, 2 * math.pi, 150),
                                       GridAxis(0.0, math.pi, 150), (0.3, 0.5, 0.8),
                                       theta=0.3, u_max=0.9)
        assert isinstance(reachset._cells(cols["t_star"], "json")[0], list)
        assert self._write_peak(cols, tmp_path / "map.json", "json") < 2.5e6

    @pytest.mark.parametrize("fmt, distinct, looked_up", [
        ("json", 600, True), ("csv", 600, False), ("json", 850, False),
        ("json", 800, True), ("json", 801, False), ("csv", 500, True), ("csv", 501, False)])
    @pytest.mark.parametrize("order", ["shuffled", "repeated"])
    def test_float_lookup_share_is_set_by_the_format(self, fmt, distinct, looked_up, order):
        # 1000 rows: a JSON float column is looked up when at most 80% of its
        # rows are distinct, a CSV one at most half.  "repeated": each level's
        # rows adjacent, so its runs are its levels
        levels = np.linspace(-1.0, 1.0, distinct)
        col = np.concatenate([levels, levels[:1000 - distinct]])
        col = np.random.default_rng(distinct).permutation(col) if order == "shuffled" else np.sort(col)
        cell, per_row = reachset._cells(col, fmt)
        assert isinstance(cell, list) == looked_up
        if looked_up:
            text = [repr(v) if fmt == "json" else f"{v:.9g}" for v in col.tolist()]
            assert len(cell) == distinct and [cell[k] for k in per_row] == text

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("kind", ["integers", "strings"])
    def test_non_float_columns_are_looked_up_at_half(self, fmt, kind):
        # integers spanning more than 256 values, and numpy strings, keep the
        # rule of half whatever the format: 600 of 1000 rows distinct are
        # formatted in place, 500 looked up
        levels = np.arange(600) * 1000 if kind == "integers" else np.array([f"s{i}" for i in range(600)])
        assert isinstance(reachset._cells(np.concatenate([levels, levels[:400]]), fmt)[0], str)
        assert isinstance(reachset._cells(np.concatenate([levels[:500]] * 2), fmt)[0], list)

    @pytest.mark.parametrize("column", [
        np.repeat(np.linspace(0.0, 1.0, 5000), 3),  # a sweep's theta: each value 3 times
        np.repeat(np.linspace(0.0, 1.0, 150), 150),  # a gate map's alpha
        np.tile(np.linspace(0.0, 1.0, 150), 150),  # its beta
        np.linspace(0.0, 1.0, 15000)],  # distinct: formatted in place
        ids=["sweep_theta", "map_alpha", "map_beta", "distinct"])
    def test_each_column_is_sorted_once(self, monkeypatch, column):
        # the one sort both counts the distinct values and gives the levels
        # that np.searchsorted codes against; np.unique is never called
        calls, sort = [], np.sort
        monkeypatch.setattr(np, "sort", lambda a, *args, **kw: calls.append(a.size) or sort(a, *args, **kw))
        monkeypatch.setattr(np, "unique", lambda *args, **kw: pytest.fail("np.unique was called"))
        for fmt in ("csv", "json"):
            reachset._cells(column, fmt)
            assert calls == [column.size]
            calls.clear()

    @settings(max_examples=200, deadline=None)
    @given(case=_looked_up_columns())
    @example(case=(np.repeat(np.arange(300) * 1000, 2),) * 2)  # 300 levels: 16-bit codes
    def test_looked_up_levels_and_codes_are_np_unique(self, case):
        # the distinct sorted keys and each row's index among them, as
        # np.unique gives them, whatever the order of the rows
        column, keys = case
        levels, inverse = np.unique(keys, return_inverse=True)
        cells = levels.view(getattr(column, "dtype", object))  # floats: keyed by their bits
        for fmt in ("csv", "json"):
            strings, codes = reachset._cells(column, fmt)
            assert isinstance(strings, list)
            assert strings == [_reference_cell(v, fmt) for v in cells.tolist()]
            assert codes.dtype == np.min_scalar_type(len(levels) - 1)
            assert np.array_equal(codes, inverse)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("column", [np.zeros((3, 2)), [[0.0, 1.0]] * 3, np.zeros((3, 1), int)],
                             ids=["array", "list", "column_vector"])
    def test_columns_that_are_not_1d_are_rejected(self, tmp_path, fmt, column):
        # a (3, 2) column would write [0.0, 0.0] as one JSON cell, and fail
        # in CSV with a TypeError; no file is created
        with pytest.raises(ValueError, match=r"column 'x' must be 1-D, got shape \(3, [12]\)"):
            reachset.write_rows({"n": [1, 2, 3], "x": column}, tmp_path / f"t.{fmt}", fmt)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("column", [
        ["a", 1, "a"], ("a", None, "b"), [1.5, "a", "a"], [None] * 3, [None, 1.0, 2.0],
        [1j, 2.0, 1j], np.array([b"a", b"b", b"a"]), np.array([1 + 2j, 0j, 1 + 2j]),
        np.array(["x", 1, "x"], dtype=object), np.array([None, 1.0, 2.0], dtype=object)],
        ids=repr)
    def test_lists_of_mixed_or_unordered_cells_are_rejected(self, tmp_path, fmt, column):
        # the sort that finds a column's levels would raise its own TypeError
        # for the mixed ones, lists and object arrays alike, and ["a", 1, "a"]
        # failed on the cell width in CSV and wrote the raw tokens in JSON;
        # bytes and complex cells were written as b'a' and (1+2j) in CSV and
        # raised a bare TypeError from json.dumps
        with pytest.raises(ValueError, match="column 's' must hold only strings or only real numbers"):
            reachset.write_rows({"s": column}, tmp_path / f"t.{fmt}", fmt)
        assert not list(tmp_path.iterdir())

    def test_signed_zeros_keep_their_sign(self):
        column = {"x": [-0.0, 0.0, 0.0, -0.0] * 5}
        csv_out, json_out = io.StringIO(), io.StringIO()
        reachset.write_rows(column, csv_out, "csv")
        reachset.write_rows(column, json_out, "json")
        assert csv_out.getvalue() == "x\n" + "-0\n0\n0\n-0\n" * 5
        assert json_out.getvalue().count('"x": -0.0') == 10
        assert json_out.getvalue().count('"x": 0.0') == 10

    def test_repeated_non_finite_json_cells_are_quoted(self):
        out = io.StringIO()
        reachset.write_rows({"t_star": [math.nan, math.inf, -math.inf] * 4}, out, "json")
        assert json.loads(out.getvalue()) == [{"t_star": s} for s in ["nan", "inf", "-inf"] * 4]

    def test_one_value_repeated_matches_reference(self):
        self._assert_matches_reference_encoders(
            {"theta": [0.3] * 10 ** 4, "n": [7] * 10 ** 4, "label": ["x"] * 10 ** 4})

    @settings(max_examples=200, deadline=None)
    @given(table=_fused_tables())
    def test_fused_runs_match_reference_encoders(self, table):
        # adjacent looked-up columns share one template cell, whose strings
        # hold the commas, keys and indentation between them
        for block_rows in (1, 2, 3, None):
            with _blocks_of(block_rows):
                self._assert_matches_reference_encoders(table)

    @pytest.mark.parametrize("n, levels, cells", [
        (24, (3, 4), 1), (22, (3, 4), 2),  # product 12 at and one past n // 2
        (600, (2, 128), 1), (600, (2, 129), 2),  # product 256 and 258 under a cap of 256
        (600, (1, 2, 128, 1), 1), (600, (2, 2, 2, 2, 2, 2, 2, 2, 2), 2)])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_runs_grow_up_to_their_level_cap(self, fmt, n, levels, cells):
        # alternating float and integer columns with the given level counts,
        # then one mostly-distinct column formatted in place
        i = np.arange(n)
        table = {}
        for k, count in enumerate(levels):
            code = i // math.prod(levels[k + 1:]) % count
            table[f"c{k}"] = code * 0.25 - 1.0 if k % 2 else code - 2 ** 62
        table["x"] = np.linspace(-1.0, 1.0, n)
        assert _template_cells(table, fmt) == cells + 1
        for block_rows in (1, 7, None):
            with _blocks_of(block_rows):
                self._assert_matches_reference_encoders(table)

    def test_flag_codes_are_the_flags_in_one_byte_per_row(self):
        # a uint8 flag's codes are value - min in one pass: no sort and no
        # 8-byte-per-row temporary
        flags = (np.random.default_rng(5).random(22500) < 0.3).view(np.uint8)
        tracemalloc.start()
        try:
            strings, codes = reachset._cells(flags, "json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * flags.size
        assert strings == ["0", "1"]
        assert codes.dtype == np.uint8 and np.array_equal(codes, flags)

    @pytest.mark.parametrize("builder, cells", [
        # model, theta and alpha; beta; t_star; and the three flags, each of which varies
        (lambda: gate_reach_map("qubit", GridAxis(0.0, 2 * math.pi, 150),
                                GridAxis(0.0, math.pi, 150), (0.3, 0.5, 0.7), theta=0.3, u_max=0.9),
         4),
        # trial and seed; dim and T (5 x 3 levels exceed 15 // 2); five floats
        (lambda: verify_bound(0, 5), 7),
        # theta (5000 levels); gamma, omega and T; lambda_max
        (lambda: sweep_reachable_radius(GridAxis(0.0, math.pi / 2, 5000), (0.3, 0.5, 0.8), 0.4), 3),
        # state; gamma (1250 levels) with T literal after it; lambda_max
        (lambda: bell_sweep(GridAxis(0.01, 1.6, 1250), 0.5), 3),
    ], ids=["gate_reach_map", "verify_bound", "sweep_reachable_radius", "bell_sweep"])
    def test_builders_template_cells(self, builder, cells):
        cols = builder()
        flags = [col for name, col in cols.items() if name.startswith("reach_T")]
        assert all(0 < col.sum() < col.size for col in flags)
        for fmt in ("csv", "json"):
            assert _template_cells(cols, fmt) == cells


class TestFormatRecord:
    @settings(max_examples=200, deadline=None)
    @given(record=st.dictionaries(_TEXT, st.one_of(st.floats(), _TEXT), min_size=1, max_size=5))
    def test_random_records_match_reference_encoders(self, record):
        safe = {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
                for k, v in record.items()}
        text = reachset.format_record(record, "json")
        assert text == json.dumps(safe, indent=2)
        assert json.loads(text) == safe
        assert reachset.format_record(record, "json", "  ") == text.replace("\n", "\n  ")
        assert reachset.format_record(record, "text") == "\n".join(
            f"{k} = {v:.9g}" if isinstance(v, float) else f"{k} = {v}" for k, v in record.items()
        )

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            reachset.format_record({"x": 1.0}, "csv")
