"""Every bound in this package is checkable against direct simulation.

This script integrates the master equation with fixed-step RK4 and holds
the results against the analytics, three ways:

1. amplitude damping from the excited state has the exact solution
   fidelity(t) = exp(-gamma t); the integrator must reproduce it;
2. along any trajectory the rate of the purity angle obeys
   dTheta/dt <= (A sqrt(1 - cos Theta) + E) / sin Theta  (checked with
   centered differences on the sampled angles);
3. the final angle gives a radius lambda whose minimum-time bound T*
   must not exceed the time the simulation actually took:  margin =
   T - T*(lambda) >= 0 for every system, including randomly drawn ones.

Run:  python demos/05_bound_vs_simulation.py
Writes trajectory_ampdamp.csv and verify_demo.csv.
"""

import math

import numpy as np

from qslreach import (
    QubitParams,
    draw_random_system,
    generic_coefficients,
    integrate,
    measured_radius,
    qsl_time,
    qubit_spec,
    theta_rate_check,
    verify_bound,
    verify_columns,
    write_rows,
)
from qslreach.reachset import VERIFY_CSV_COMMENT

T, DT = 1.0, 1e-3


def main() -> None:
    print("--- amplitude damping, gamma = 1, from the excited state ---")
    spec = qubit_spec(QubitParams(theta=0.0, gamma=1.0, omega=1.0))
    traj = integrate(spec, T=T, dt=DT)
    fid = float(traj.fidelities[-1])
    print(f"simulated fidelity at T = {T}: {fid:.9f}  (exact exp(-1) = {math.exp(-1):.9f})")
    print(f"integration error: {abs(fid - math.exp(-1)):.2e}")

    coeffs = generic_coefficients(spec)
    lam = measured_radius(float(traj.thetas[-1]))
    t_star = qsl_time(coeffs, lam)
    print(f"coefficients A = {coeffs.speed:.6f}, E = {coeffs.noise:.6f}")
    print(f"radius reached: lambda = {lam:.6f}; bound T* = {t_star:.6f} <= T = {T}")

    samples = theta_rate_check(traj, coeffs)
    worst = max(lhs - rhs for _, lhs, rhs in samples)
    print(f"rate check on {len(samples)} samples: worst lhs - rhs = {worst:.3e} (<= 0 expected)")
    write_rows(traj.columns(), "trajectory_ampdamp.csv", "csv")
    print("wrote trajectory_ampdamp.csv")

    print("\n--- one random open system per dimension ---")
    for dim in (2, 3, 4):
        spec = draw_random_system(seed=1, dim=dim, trial=0)
        traj = integrate(spec, T=0.5, dt=DT)
        lam = measured_radius(float(traj.thetas[-1]))
        t_star = qsl_time(generic_coefficients(spec), lam)
        print(f"dim {dim}: lambda = {lam:.4f}, T* = {t_star:.4f}, margin = {0.5 - t_star:+.4f}")

    print("\n--- batch verification (60 random systems) ---")
    records = verify_bound(seed=123, n_trials=20, dims=(2, 3, 4), T=0.5, dt=DT)
    margins = np.array([r.margin for r in records])
    print(f"violations: {sum(r.violated for r in records)} of {len(records)}; "
          f"min margin {margins.min():.4f}")
    write_rows(verify_columns(records), "verify_demo.csv", "csv", comment=VERIFY_CSV_COMMENT)
    print("wrote verify_demo.csv")


if __name__ == "__main__":
    main()
