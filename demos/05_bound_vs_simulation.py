"""Every bound in this package is checkable against direct simulation.

This script integrates the master equation with fixed-step RK4 and holds
the results against the analytics, three ways:

1. amplitude damping from the excited state has the exact solution
   fidelity(t) = exp(-gamma t); the integrator must reproduce it;
2. along any trajectory the rate of the purity angle obeys
   dTheta/dt <= (A sqrt(1 - cos Theta) + E) / sin Theta  (checked times
   sin Theta, -dF/dt <= A lambda + E, with the exact fidelity rate dF/dt at
   every sample);
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
    check_bound,
    draw_random_system,
    generic_coefficients,
    qubit_spec,
    verify_bound,
    write_rows,
)
from qslreach.reachset import MARGIN_TOL, VERIFY_CSV_COMMENT

T, DT = 1.0, 1e-3


def main() -> None:
    print("--- amplitude damping, gamma = 1, from the excited state ---")
    spec = qubit_spec(QubitParams(theta=0.0, gamma=1.0, omega=1.0))
    traj, rec = check_bound(spec, T=T, dt=DT)
    fid = float(traj.fidelities[-1])
    print(f"simulated fidelity at T = {T}: {fid:.9f}  (exact exp(-1) = {math.exp(-1):.9f})")
    print(f"integration error: {abs(fid - math.exp(-1)):.2e}")

    coeffs = generic_coefficients(spec)
    print(f"coefficients A = {coeffs.speed:.6f}, E = {coeffs.noise:.6f}")
    print(f"radius reached: lambda = {rec['lambda']:.6f}; "
          f"bound T* = {rec['t_star']:.6f} <= T = {T}")
    print(f"rate check on {traj.times.size} samples: worst -dF/dt - (A lambda + E) = "
          f"{rec['rate_excess']:.3e} (<= 0 expected)")
    write_rows(traj.columns(), "trajectory_ampdamp.csv", "csv")
    print("wrote trajectory_ampdamp.csv")

    print("\n--- one random open system per dimension ---")
    for dim in (2, 3, 4):
        _, rec = check_bound(draw_random_system(seed=1, dim=dim, trial=0), T=0.5, dt=DT)
        print(f"dim {dim}: lambda = {rec['lambda']:.4f}, T* = {rec['t_star']:.4f}, "
              f"margin = {rec['margin']:+.4f}")

    print("\n--- batch verification (60 random systems) ---")
    cols = verify_bound(seed=123, n_trials=20, dims=(2, 3, 4), T=0.5, dt=DT)
    margins = cols["margin"]
    print(f"violations: {np.sum(margins < -MARGIN_TOL)} of {margins.size}; "
          f"min margin {margins.min():.4f}; worst rate excess {cols.pop('rate_excess').max():.1e}")
    write_rows(cols, "verify_demo.csv", "csv", comment=VERIFY_CSV_COMMENT)
    print("wrote verify_demo.csv")


if __name__ == "__main__":
    main()
