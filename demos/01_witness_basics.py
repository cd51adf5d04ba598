"""Witness operators and their biseparable bounds.

Builds the two optimal witness families, evaluates them on a few
states, and cross-checks the closed-form biseparable overlap bound
against seeded alternating ascents, read off a repeated-squaring power
of each cut's Gram matrix.
"""

import numpy as np

from ghzw import states, witness

ghz = states.make_ghz(0.0)
w = states.make_w(0.0, 0.0)
xi = states.make_xi()

print("== witness expectations ==")
wg = witness.ghz_witness(0.0)
ww = witness.w_witness(0.0, 0.0)
for name, psi in [("GHZ", ghz), ("W", w), ("xi", xi), ("|000>", np.eye(8)[0])]:
    print(
        f"{name:>6}:  <W_GHZ> = {witness.expectation_pure(wg, psi):+.6f}   "
        f"<W_W> = {witness.expectation_pure(ww, psi):+.6f}"
    )

print()
print("== biseparable overlap bounds (Lambda) ==")
for name, psi in [("GHZ", ghz), ("W", w), ("xi", xi)]:
    analytic = witness.lambda_bound_analytic(psi)
    stochastic = witness.lambda_bound_stochastic(psi, seed=7)
    print(f"{name:>6}:  analytic = {analytic:.12f}   stochastic = {stochastic:.12f}")

print()
print("A custom witness built from any entangled reference is negative on it:")
psi = states.haar_random_pure(3)
cw = witness.custom_witness(psi)
print(f"Lambda = {cw.lambda_const:.6f}, expectation on the reference = "
      f"{witness.expectation_pure(cw, psi):+.6f}")
