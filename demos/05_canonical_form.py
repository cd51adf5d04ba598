"""Five-term canonical form under local unitaries.

Any three-qubit pure state is locally equivalent to

    l0|000> + l1 e^{i a}|001> + l2|010> + l3|100> + l4|111>.

This decomposes a few named states and a Haar-random one, checks the
reconstruction residual, and verifies that scrambling by random local
unitaries leaves the canonical parameters unchanged.
"""

import math

import numpy as np

from ghzw import canonical, states


def haar_unitary(rng):
    """A Haar 2x2 unitary: the QR of a complex Gaussian, with R's diagonal
    phases moved onto Q (Mezzadri, Notices AMS 54, 592 (2007))."""
    z = 1 / math.sqrt(2) * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    return q * (d / abs(d))


def show(name, psi):
    result = canonical.acin_decompose(psi)
    p = result.params
    lams = "  ".join(f"{x:.6f}" for x in p.lambdas)
    print(f"{name:>12}:  l = [{lams}]  alpha = {p.alpha:.6f}  residual = {result.residual:.2e}")
    return result


show("GHZ", states.make_ghz(0.0))
show("W", states.make_w(0.0, 0.0))
show("xi", states.make_xi())
show("|000>", np.eye(8, dtype=complex)[0])
result = show("Haar seed 5", states.haar_random_pure(5))

print()
print("scrambling by random local unitaries does not move the parameters:")
rng = np.random.default_rng(0)
psi = states.haar_random_pure(5)
for trial in range(3):
    u = [haar_unitary(rng) for _ in range(3)]
    scrambled = canonical.LocalUnitaries(*u).apply(psi)
    again = canonical.acin_decompose(scrambled).params
    drift = np.max(np.abs(again.lambdas - result.params.lambdas))
    print(f"  trial {trial}: max lambda drift = {drift:.2e}")

print()
spectra, tangle = canonical.local_unitary_invariants(psi)
print("local-unitary invariants (reduced spectra rows A, B, C + three-tangle):")
print(np.round(spectra, 6), f" tangle = {tangle:.6f}")
