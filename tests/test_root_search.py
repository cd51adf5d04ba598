"""The batched Gauss-Newton root search of acin_decompose."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from ghzw import canonical, states


@pytest.mark.parametrize("seed, lambda0", [(52, 0.830973), (59, 0.418682)])
def test_haar_states_return_the_larger_l0_root(seed, lambda0):
    # both roots sit beside a root of the other singular-value branch; the
    # 96x192 grid has no seed near seed 59's, which is reached from that
    # neighbouring root
    result = canonical.acin_decompose(states.haar_random_pure(seed))
    assert abs(result.params.lambda0 - lambda0) < 1e-6


@st.composite
def planted_states(draw):
    """A five-term state with 0-3 zero lambdas in a random local frame."""
    lams = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=5, max_size=5)))
    zeros = draw(st.sets(st.integers(0, 4), max_size=3))
    lams[list(zeros)] = 0.0
    alpha = draw(st.sampled_from([0.0, np.pi, None]))
    if alpha is None:
        alpha = draw(st.floats(0.0, np.pi))
    params = states.AcinParams(*(lams / np.linalg.norm(lams)), alpha=alpha)
    frame = unitary_group.rvs(2, size=3, random_state=draw(st.integers(0, 2**32 - 1)))
    return canonical.LocalUnitaries(*frame).apply(states.make_acin(params))


@settings(max_examples=150, deadline=None)
@given(psi=planted_states())
def test_planted_states_decompose(psi):
    result = canonical.acin_decompose(psi)
    target = states.make_acin(result.params)
    assert np.linalg.norm(result.unitaries.apply(psi) - target) <= 1e-8
    spectra, tangle = canonical.local_unitary_invariants(psi)
    spectra_t, tangle_t = canonical.local_unitary_invariants(target)
    assert np.max(np.abs(spectra - spectra_t)) <= 1e-8
    assert abs(tangle - tangle_t) <= 1e-8
