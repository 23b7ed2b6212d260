"""How far can a driven, decaying qubit travel in a fixed time budget?

A qubit starts in the Bloch state [cos(theta), sin(theta)], rotates about z
at rate omega, and loses energy at rate gamma.  The minimum-time bound
T*(lambda) inverts into the largest radius lambda = sqrt(1 - fidelity) the
state can possibly reach within a horizon T, as a function of theta.

Two regimes sweep out very different reachable sets:

* gamma = 0 (closed):  the poles |0> and |1> are frozen (they are
  eigenstates of the drive), while the equator superposition moves fastest;
  the profile is exactly min(1, omega |sin 2 theta| T).
* gamma = 1 (noisy):   the excited pole theta = 0 becomes the *most*
  mobile state, because the decay channel acts on it at full strength while
  the drive cannot move it at all.

Run:  python demos/01_radius_reachability_qubit.py
Writes lambda_sweep_gamma0.csv and lambda_sweep_gamma1.csv next to cwd.
"""

import math

import numpy as np

from qslreach import GridAxis, sweep_reachable_radius, write_rows

HORIZONS = (0.3, 0.5, 0.8)


def sweep(gamma: float):
    theta = GridAxis(0.0, math.pi / 2, 200)
    return sweep_reachable_radius(theta, HORIZONS, gamma=gamma, omega=1.0)


def describe(cols, gamma: float) -> None:
    print(f"\n--- decay rate gamma = {gamma:g} ---")
    # one row per theta, one column per horizon
    thetas = cols["theta"][:: len(HORIZONS)]
    table = cols["lambda_max"].reshape(-1, len(HORIZONS))
    for i, T in enumerate(HORIZONS):
        lams = table[:, i]
        peak = thetas[np.argmax(lams)]
        print(
            f"T = {T:3.1f}: largest radius {lams.max():.4f} at theta = {peak:.4f} "
            f"({peak / math.pi:.3f} pi); radius at the poles: "
            f"{lams[0]:.4f} (theta=0), {lams[-1]:.4f} (theta=pi/2)"
        )
    lams = table[:, -1]  # largest horizon
    full = thetas[lams >= 1.0 - 1e-9]
    if full.size:
        print(
            f"orthogonal states (lambda = 1) already allowed at T = {HORIZONS[-1]} "
            f"for theta in [{full.min():.3f}, {full.max():.3f}]"
        )
    else:
        print(f"no initial state may reach an orthogonal state by T = {HORIZONS[-1]}")


def main() -> None:
    for gamma, path in ((0.0, "lambda_sweep_gamma0.csv"), (1.0, "lambda_sweep_gamma1.csv")):
        cols = sweep(gamma)
        describe(cols, gamma)
        write_rows(cols, path, "csv")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
