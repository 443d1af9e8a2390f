"""Primal evaluation against the dual search over the divergence ball.

On a three-atom example the dual supremum sup{E XZ : E Z = 1, E phi(Z) <= beta}
is compared with the primal value and the brute-force grid oracle.  The
optimal density comes from the characterizing equations while they have a
root; at boundary radii (beta >= B(0+)) it is the extreme density on the
maximal atom, and the "source" column says which.
"""

import numpy as np

import divrisk as dr


def main():
    dist = dr.EmpiricalDistribution(atoms=np.array([-2.0, 0.5, 3.0]),
                                    probs=np.array([0.3, 0.5, 0.2]))
    kl = dr.make_builtin_divergence("kl")
    print(f"atoms = {dist.atoms}, probs = {dist.probs}")
    print(f"mean = {dist.mean:.4f}, esssup = {dist.esssup:.1f}\n")

    header = f"{'beta':>6} | {'primal':>10} {'dual':>10} {'brute':>10} | {'gap':>9} {'source':>24}"
    print(header)
    print("-" * len(header))
    for beta in (0.05, 0.2, 0.8, 1.61, 3.0):
        primal = dr.evaluate_primal(dist, kl, beta).value
        sol = dr.solve_dual(dist, kl, beta)
        brute = dr.brute_force_dual(dist, kl, beta)
        print(f"{beta:6.2f} | {primal:10.6f} {sol.objective:10.6f} {brute:10.6f} |"
              f" {abs(primal - sol.objective):9.2e} {sol.source:>24}")

    beta = 0.4
    sol = dr.solve_dual(dist, kl, beta)
    print(f"\noptimal density at beta = {beta}: z = {np.round(sol.z, 6)}")
    print(f"  mean slack = {sol.mean_slack:.2e}, divergence slack = {sol.divergence_slack:.2e}")

    q = dist.probs * sol.z
    expectation, feasible = dr.divergence_ball_form(dist, kl, beta, q)
    print(f"  as a measure: q = {np.round(q, 6)}")
    print(f"  E_Q X = {expectation:.6f} inside the divergence ball: {feasible}")

    print("\nweak duality probes (random feasible densities never beat the risk):")
    rng = np.random.default_rng(1)
    primal = dr.evaluate_primal(dist, kl, beta).value
    for _ in range(4):
        z = rng.exponential(1.0, 3)
        z /= np.dot(dist.probs, z)
        gamma = 0.0
        while np.dot(dist.probs, kl.phi(z)) > beta:
            gamma += 0.05
            z = (1 - gamma) * z + gamma
        print(f"  E XZ = {np.dot(dist.probs, dist.atoms * z):10.6f}  <=  rho = {primal:.6f}")


if __name__ == "__main__":
    main()
