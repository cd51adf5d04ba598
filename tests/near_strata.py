"""Kets beside planted five-term strata: the near-stratum panel of the canonical search."""

import numpy as np
from unitaries import haar_unitary

from ghzw import states


def near_stratum_kets(count, seed=3):
    """count kets, (count, 8), each a planted five-term state kicked off its stratum.

    Per ket, from one default_rng(seed) in this order: lambdas U(0.2, 1)
    with 1 or 2 of them (slots by choice) set to 0 and the rest
    normalised, alpha U(0, pi), a Haar local frame (u_a, u_b, u_c) applied
    as their Kronecker product, a kick scale 10^U(-8, -1), and a complex
    Gaussian ket of that length added before normalising.  The kets are a
    prefix: count = k gives the first k kets of any larger count.
    """
    rng = np.random.default_rng(seed)
    kets = np.empty((count, 8), dtype=complex)
    for k in range(count):
        lams = rng.uniform(0.2, 1.0, 5)
        lams[rng.choice(5, rng.integers(1, 3), replace=False)] = 0.0
        alpha = rng.uniform(0.0, np.pi)
        psi = states._acin_kets(lams / np.linalg.norm(lams), alpha)
        u_a, u_b, u_c = haar_unitary(2, size=3, random_state=rng)
        psi = np.kron(np.kron(u_a, u_b), u_c) @ psi
        scale = 10.0 ** rng.uniform(-8.0, -1.0)
        kick = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi = psi + scale * kick / np.linalg.norm(kick)
        kets[k] = psi / np.linalg.norm(psi)
    return kets
