#!/usr/bin/env python3
"""Monte-Carlo no-click probabilities checked against exact references.

The estimator samples the Husimi-point (t = -1) PQD of the input and averages
the no-click detector PQD under the transition kernel; it is only defined
when the noise is strong enough to make that kernel a probability density
(p_D / eta_D >= eta_L at t = -1).

Run:  python demos/click_sampler.py [--samples N]
"""

import argparse
import math

from kerrpqd.fock_oracle import build_state, oracle_loss, oracle_off_probability
from kerrpqd.phase_space import GaussianState
from kerrpqd.simulability import NoiseParams, estimate_click_probability
from kerrpqd.states import SqueezeParam, squeeze_then_kerr_state


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=100_000)
    args = parser.parse_args()

    noise = NoiseParams(eta_L=0.5, eta_D=0.8, p_D=0.45)
    print(f"noise: eta_L={noise.eta_L} eta_D={noise.eta_D} p_D={noise.p_D}"
          f"  (sampling margin 2q_D - 2 eta_L = {2 * noise.q_D - 2 * noise.eta_L:+.3f})")
    print(f"{'state':<28} {'p_hat':>10} {'stderr':>9} {'reference':>10} {'pull':>6}")

    rows = []
    alpha = 0.9 + 0.4j
    rows.append((
        "coherent |0.9+0.4i>",
        GaussianState.coherent(alpha),
        noise,
        (1 - noise.p_D) * math.exp(-noise.eta_D * noise.eta_L * abs(alpha) ** 2),
    ))
    rows.append(("vacuum", GaussianState.vacuum(), noise, 1 - noise.p_D))

    # interference state: reference from the truncated-Fock channel
    kerr = squeeze_then_kerr_state(3, 1.0, SqueezeParam(0.2))
    noisy = NoiseParams(eta_L=0.8, eta_D=0.6, p_D=1.05 * 0.8 * 0.6)
    rho = oracle_loss(build_state(kerr, n_max=60), noisy.eta_L)
    rows.append(("S(0.2)U(pi/3)|a=1> + loss", kerr, noisy, oracle_off_probability(rho, noisy)))

    for i, (label, state, row_noise, ref) in enumerate(rows):
        p, se = estimate_click_probability(
            state, row_noise, t=-1.0, n_samples=args.samples, seed=100 + i
        )
        pull = (p - ref) / se
        print(f"{label:<28} {p:10.6f} {se:9.1e} {ref:10.6f} {pull:+6.2f}")

    print("\nstderr scaling (coherent state):")
    for n in (1_000, 10_000, 100_000):
        _, se = estimate_click_probability(
            GaussianState.coherent(alpha), noise, t=-1.0, n_samples=n, seed=7
        )
        print(f"  n = {n:>7}   stderr = {se:.2e}")


if __name__ == "__main__":
    main()
