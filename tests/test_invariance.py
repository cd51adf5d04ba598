"""Local-unitary invariance of everything read from the reduced spectra."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from unitaries import haar_unitary

from ghzw import canonical, classify, states, witness

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _scramble(psi, seed):
    u_a, u_b, u_c = haar_unitary(2, size=3, random_state=seed)
    return canonical.LocalUnitaries(u_a, u_b, u_c).apply(psi)


@settings(max_examples=60, deadline=None)
@given(state_seed=SEEDS, frame_seed=SEEDS)
def test_reduced_spectrum_readers_are_local_unitary_invariant(state_seed, frame_seed):
    psi = states.haar_random_pure(state_seed)
    phi = _scramble(psi, frame_seed)

    spectra, tangle = canonical.local_unitary_invariants(psi)
    spectra_u, tangle_u = canonical.local_unitary_invariants(phi)
    assert np.max(np.abs(spectra - spectra_u)) < 1e-12
    assert abs(tangle - tangle_u) < 1e-12

    assert abs(witness.lambda_bound_analytic(psi) - witness.lambda_bound_analytic(phi)) < 1e-12

    for cut in classify.CUTS:
        got = classify.bipartition_schmidt(phi, cut)
        assert np.max(np.abs(np.subtract(classify.bipartition_schmidt(psi, cut), got))) < 1e-12
