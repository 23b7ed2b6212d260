"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (visible with ``pytest -s``).  Grid-based
equivalence checks use cell-centered grids: at endpoint grid nodes both
routes compute sqrt of a catastrophically cancelled ~1e-16 residual, which
is a float artifact of representing an exact zero, not a disagreement
between the formulas.
"""

import math
import time

import numpy as np

from qslreach import dynamics, models, qsl, reachset
from qslreach.models import GateParams, QubitParams

from reference import qubit_closed_form_coeffs


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status} — {detail}", flush=True)
    assert ok, f"acceptance criterion {num} ({name}) failed: {detail}"


def centered(n: int, stop: float) -> np.ndarray:
    return (np.arange(n) + 0.5) * (stop / n)


def test_acceptance_1_bound_validity():
    """500 seeded random systems per dim in {2, 3, 4} at T = 0.5, dt = 1e-3:
    no record may undercut the bound by more than 1e-4."""
    t0 = time.time()
    cols = reachset.verify_bound(seed=42, n_trials=500, dims=(2, 3, 4), T=0.5, dt=1e-3)
    elapsed = time.time() - t0
    margin = cols["margin"]
    bad = int(np.sum(margin < -reachset.MARGIN_TOL))
    _report(
        1, "bound validity",
        margin.size == 1500 and not bad,
        f"1500 trials, {bad} violations, min margin {margin.min():.6g}, "
        f"{elapsed:.1f} s (target < 60 s)",
    )


def test_acceptance_2_differential_bound():
    """The rate of the purity angle never exceeds its bound on 100 random
    trajectories: -dF/dt <= A lambda + E, the bound times sin Theta, with the
    exact dF/dt at every sample (slack 1e-12)."""
    worst = -math.inf
    checked = 0
    for k in range(100):
        dim = (2, 3, 4)[k % 3]
        spec = reachset.draw_random_system(20260810, dim, k)
        traj = dynamics.integrate(spec, T=0.5, dt=1e-3)
        excess = dynamics.theta_rate_check(traj, qsl.generic_coefficients(spec))
        checked += excess.size
        worst = max(worst, excess.max())
    _report(
        2, "differential bound",
        checked == 100 * 501 and worst <= 1e-12,
        f"100 trajectories, {checked} samples, worst excess = {worst:.3e} (allowed 1e-12)",
    )


def test_acceptance_3_closed_form_equivalence():
    """Closed-form qubit coefficients match the generic pipeline to 1e-10
    over 1000 random (theta, gamma, omega)."""
    rng = np.random.default_rng(314159)
    worst_a = worst_e = 0.0
    for _ in range(1000):
        p = QubitParams(
            theta=rng.uniform(0.0, math.pi),
            gamma=rng.uniform(0.0, 3.0),
            omega=rng.uniform(0.05, 3.0),
        )
        spec = models.qubit_spec(p)
        closed = qubit_closed_form_coeffs(p)
        generic = qsl.generic_coefficients(spec)
        worst_a = max(worst_a, abs(closed.speed - generic.speed))
        worst_e = max(worst_e, abs(closed.noise - generic.noise))
    _report(
        3, "closed-form equivalence",
        worst_a <= 1e-10 and worst_e <= 1e-10,
        f"1000 draws, max |dA| = {worst_a:.3e}, max |dE| = {worst_e:.3e} (allowed 1e-10)",
    )


def test_acceptance_4_gate_bound_equivalence():
    """Closed-form gate bounds equal the generic radius/coefficient route:
    qubit on a 100 x 100 x 10 (alpha, beta, theta) grid, qutrit fidelity on
    a 100 x 100 (alpha, beta) grid, both to 1e-10."""
    alphas = centered(100, 2 * math.pi)
    betas = centered(100, math.pi)
    thetas = centered(10, math.pi)
    g = GateParams(np.repeat(alphas, betas.size), np.tile(betas, alphas.size))

    # one row per theta, one column per (alpha, beta) gate
    p = QubitParams(theta=thetas, omega=1.0, u_max=1.0)
    coeffs = qsl.generic_coefficients(models.qubit_spec(p, with_control=True))
    lam = qsl.radius_from_fidelity(
        models.gate_fidelity(models.qubit_state(p)[:, None, :], models.su2_gate(g))
    )
    generic = qsl.qsl_time(qsl.QslCoefficients(coeffs.speed[:, None], coeffs.noise[:, None]), lam)
    closed = models.qubit_gate_time_bound(QubitParams(thetas[:, None], omega=1.0, u_max=1.0), g)
    worst_qubit = np.abs(closed - generic).max()

    direct = models.gate_fidelity(models.QUTRIT_PSI0, models.so3_gate(g))
    worst_qutrit = np.abs(models.qutrit_gate_fidelity(g) - direct).max()

    _report(
        4, "gate-bound equivalence",
        worst_qubit <= 1e-10 and worst_qutrit <= 1e-10,
        f"qubit max |dT*| = {worst_qubit:.3e} on 100x100x10, "
        f"qutrit max |dcos| = {worst_qutrit:.3e} on 100x100 (allowed 1e-10)",
    )


def test_acceptance_5_reference_point_values():
    """Named worked values: the saturating rotation at one unit of drive,
    the dark Bell state, and the hardest equator gates."""
    p0 = QubitParams(theta=0.0, omega=1.0, u_max=1.0)
    t_sat = models.qubit_gate_time_bound(p0, GateParams(0.0, math.pi / 3))
    fid = models.gate_fidelity(
        models.qubit_state(p0), models.su2_gate(GateParams(1.3, math.pi / 3))
    )
    dark = qsl.qsl_time(qsl.generic_coefficients(models.bell_spec("psi-minus", 1.0)), 0.5)
    ok = abs(t_sat - 0.5) <= 1e-9 and abs(fid - 0.75) <= 1e-12 and dark == math.inf
    details = [f"T*(beta=pi/3) = {t_sat:.12g}", f"fidelity = {fid:.15g}",
               f"T*(psi-minus) = {dark}"]
    for u_max in (1.0, 2.0):
        p = QubitParams(theta=math.pi / 4, omega=1.0, u_max=u_max)
        for ab in ((0.0, math.pi), (math.pi, 0.0)):
            t = models.qubit_gate_time_bound(p, GateParams(*ab))
            ok = ok and abs(t - 1.0 / u_max) <= 1e-9
        details.append(f"T*(pi/4 gates, u_max={u_max:g}) = 1/{u_max:g}")
    _report(5, "reference point values", ok, "; ".join(details))


def test_acceptance_6_bell_coefficients_brute_force():
    """(A, E) for the Bell family at unit decay rate, computed here from raw
    definitions with plain numpy, must equal (sqrt5, 1), (sqrt5, 1), (4, 2),
    (0, 0) and the library values, all to 1e-10."""
    sm = np.array([[0, 0], [1, 0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    m = np.kron(sm, eye) + np.kron(eye, sm)  # gamma = 1
    s = 1 / math.sqrt(2)
    states = {
        "phi-plus": np.array([s, 0, 0, s], dtype=complex),
        "phi-minus": np.array([s, 0, 0, -s], dtype=complex),
        "psi-plus": np.array([0, s, s, 0], dtype=complex),
        "psi-minus": np.array([0, -s, s, 0], dtype=complex),
    }
    expected = {
        "phi-plus": (math.sqrt(5), 1.0),
        "phi-minus": (math.sqrt(5), 1.0),
        "psi-plus": (4.0, 2.0),
        "psi-minus": (0.0, 0.0),
    }
    worst = 0.0
    for label, psi in states.items():
        rho0 = np.outer(psi, psi.conj())
        mdm = m.conj().T @ m
        adj = m.conj().T @ rho0 @ m - 0.5 * (mdm @ rho0 + rho0 @ mdm)  # H = 0
        a = math.sqrt(2) * np.linalg.norm(adj)
        mpsi = m @ psi
        e = float(np.vdot(mpsi, mpsi).real - abs(np.vdot(psi, mpsi)) ** 2)
        ea, ee = expected[label]
        lib = qsl.generic_coefficients(models.bell_spec(label, 1.0))
        worst = max(
            worst, abs(a - ea), abs(e - ee), abs(lib.speed - ea), abs(lib.noise - ee)
        )
    _report(
        6, "Bell coefficients",
        worst <= 1e-10,
        f"worst deviation {worst:.3e} across 4 states x (brute force, library)",
    )


def test_acceptance_7_simulation_accuracy():
    """Amplitude-damping fidelity and fourth-order step-size scaling."""
    spec = models.qubit_spec(QubitParams(theta=0.0, gamma=1.0, omega=1.0))
    traj = dynamics.integrate(spec, T=1.0, dt=1e-3)
    fid_err = abs(float(traj.fidelities[-1]) - math.exp(-1.0))

    bench = models.qubit_spec(QubitParams(theta=math.pi / 3, gamma=1.0, omega=1.0))
    ref = dynamics.integrate(bench, T=1.0, dt=1e-3).states[-1]
    e1 = np.linalg.norm(dynamics.integrate(bench, T=1.0, dt=2e-2).states[-1] - ref)
    e2 = np.linalg.norm(dynamics.integrate(bench, T=1.0, dt=1e-2).states[-1] - ref)
    factor = e1 / e2
    _report(
        7, "simulation accuracy",
        fid_err <= 1e-6 and factor >= 12.0,
        f"|fid - exp(-1)| = {fid_err:.3e} (allowed 1e-6); "
        f"error ratio dt / (dt/2) = {factor:.1f} (needs >= 12)",
    )


def test_acceptance_8_figure_data_regression():
    """The closed-system radius sweep matches the rotation formula, and
    reachability is monotone in the horizon at every grid point of every
    generated map."""
    theta_axis = reachset.GridAxis(0.0, math.pi / 2, 200)
    horizons = (0.3, 0.5, 0.8)
    worst = 0.0
    cols = reachset.sweep_reachable_radius(theta_axis, horizons, gamma=0.0, omega=1.0)
    for theta, T, lam in zip(cols["theta"], cols["T"], cols["lambda_max"]):
        expected = min(1.0, abs(math.sin(2 * theta)) * T)
        worst = max(worst, abs(lam - expected))

    monotone = True
    for gamma in (0.0, 1.0):
        cols = reachset.sweep_reachable_radius(theta_axis, horizons, gamma=gamma)
        for lams in cols["lambda_max"].reshape(-1, len(horizons)):  # one theta per row
            monotone &= all(lams[i] <= lams[i + 1] + 1e-12 for i in range(len(lams) - 1))
    map_axes = (reachset.GridAxis(0.0, 2 * math.pi, 50), reachset.GridAxis(0.0, math.pi, 50),
                horizons)
    maps = [
        reachset.gate_reach_map("qubit", *map_axes, theta=0.0),
        reachset.gate_reach_map("qubit", *map_axes, theta=math.pi / 4),
        reachset.gate_reach_map("qutrit", *map_axes),
    ]
    for cols in maps:
        for flags in zip(cols["reach_T1"], cols["reach_T2"], cols["reach_T3"]):
            monotone &= all(flags[i] <= flags[i + 1] for i in range(len(flags) - 1))
    _report(
        8, "figure-data regression",
        worst <= 1e-8 and monotone,
        f"closed-system sweep max deviation {worst:.3e} (allowed 1e-8); "
        f"monotone reachability on 2 sweeps + 3 gate maps: {monotone}",
    )


def test_acceptance_9_inversion_correctness():
    """For 1000 random (A, E, T): the inverted radius satisfies the bound and
    is the supremum (adding 1e-6 breaks it whenever it is below the cap)."""
    rng = np.random.default_rng(271828)
    ok = True
    checked_supremum = 0
    for k in range(1000):
        a = rng.uniform(1e-3, 5.0)
        e = 0.0 if k % 10 == 0 else rng.uniform(0.0, 5.0)
        T = 0.0 if k % 97 == 0 else rng.uniform(0.0, 2.0)
        c = qsl.QslCoefficients(a, e)
        lam = qsl.max_reachable_radius(c, T)
        ok &= qsl.qsl_time(c, lam) <= T + 1e-12
        if lam < 1.0:
            checked_supremum += 1
            ok &= qsl.qsl_time(c, lam + 1e-6) > T
    _report(
        9, "inversion correctness",
        ok,
        f"1000 draws, supremum side-condition exercised {checked_supremum} times",
    )
