"""Which Bell state survives collective decay the longest?

Two qubits decay together through the collective lowering operator
M = sqrt(gamma) (sigma_- x I + I x sigma_-) with no Hamiltonian.  The
minimum-time bound separates the four maximally entangled states sharply:

* psi-minus is the dark state: M |psi-minus> = 0, the bound coefficients
  vanish, and the reachable set stays a single point for every gamma --
  the ideal memory under this noise;
* psi-plus couples to the noise hardest ((A, E) = (4, 2) gamma) and its
  reachable ball grows fastest;
* phi-plus / phi-minus sit in between ((A, E) = (sqrt(5), 1) gamma).

Run:  python demos/03_bell_states_under_collective_decay.py
Writes bell_sweep.csv (lambda_max per state per gamma at T = 0.5).
"""

import math

from qslreach import (
    GridAxis,
    bell_spec,
    bell_sweep,
    generic_coefficients,
    qsl_time,
    write_rows,
)

T = 0.5


def main() -> None:
    print("bound coefficients at gamma = 1:")
    for label in ("phi-plus", "phi-minus", "psi-plus", "psi-minus"):
        c = generic_coefficients(bell_spec(label, 1.0))
        print(f"  {label:10s}: A = {c.speed:.6f}, E = {c.noise:.6f}")

    print("\nminimum time to radius lambda = 0.5 at gamma = 1:")
    for label in ("phi-plus", "psi-plus", "psi-minus"):
        t = qsl_time(generic_coefficients(bell_spec(label, 1.0)), 0.5)
        print(f"  {label:10s}: T* = {t:.6f}" if math.isfinite(t) else
              f"  {label:10s}: T* = inf (state cannot move)")

    cols = bell_sweep(GridAxis(0.05, 2.0, 200), T=T)
    by_state: dict[str, list] = {}
    for state, gamma, lam in zip(cols["state"], cols["gamma"], cols["lambda_max"]):
        by_state.setdefault(state, []).append((gamma, lam))
    print(f"\nreachable radius at T = {T} as gamma grows:")
    for label, pairs in by_state.items():
        lam_low, lam_high = pairs[0][1], pairs[-1][1]
        print(f"  {label:10s}: lambda_max {lam_low:.4f} -> {lam_high:.4f} "
              f"(gamma {pairs[0][0]:.2f} -> {pairs[-1][0]:.2f})")
    psi = dict(by_state["psi-plus"])
    phi = dict(by_state["phi-plus"])
    assert all(psi[g] >= phi[g] for g in psi), "psi-plus must spread fastest"
    print("ordering check: lambda_max(psi-plus) >= lambda_max(phi+/-) at every gamma")

    write_rows(cols, "bell_sweep.csv", "csv")
    print("wrote bell_sweep.csv")


if __name__ == "__main__":
    main()
