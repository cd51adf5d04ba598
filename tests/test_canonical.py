import numpy as np
import pytest
from scipy.stats import unitary_group

from ghzw import canonical, states

SQRT2 = 1 / np.sqrt(2)


def _scramble(psi, rng):
    u = [unitary_group.rvs(2, random_state=rng) for _ in range(3)]
    lu = canonical.LocalUnitaries(*u)
    return lu.apply(psi)


def test_local_unitaries_validation_and_apply():
    with pytest.raises(ValueError):
        canonical.LocalUnitaries(np.eye(2), np.eye(2), np.ones((2, 2)))
    lu = canonical.LocalUnitaries(np.eye(2), np.eye(2), np.array([[0, 1], [1, 0]]))
    flipped = lu.apply(np.eye(8)[0])
    assert np.allclose(flipped, np.eye(8)[1])


def test_decompose_ghz():
    result = canonical.acin_decompose(states.make_ghz(0.0))
    lams = result.params.lambdas
    assert abs(lams[0] - SQRT2) < 1e-8 and abs(lams[4] - SQRT2) < 1e-8
    assert np.all(lams[1:4] <= 1e-8)
    assert result.residual <= canonical.RESIDUAL_TOL


def test_decompose_ghz_any_phase():
    result = canonical.acin_decompose(states.make_ghz(1.3))
    lams = result.params.lambdas
    assert abs(lams[0] - SQRT2) < 1e-8 and abs(lams[4] - SQRT2) < 1e-8


def test_decompose_product_state():
    result = canonical.acin_decompose(np.eye(8)[0])
    assert abs(result.params.lambda0 - 1.0) < 1e-12
    assert np.all(result.params.lambdas[1:] < 1e-12)
    assert result.params.alpha == 0.0


def test_fully_product_inputs_give_exact_zero_lambdas():
    """Product across every cut, in random frames: l1..l4 are zero, not ~1e-8."""
    rng = np.random.default_rng(23)
    inputs = []
    for _ in range(20):
        for k in (1, 2, 4):  # l0 with one of l1, l2, l3: a product state
            amps = np.zeros(8, dtype=complex)
            amps[0], amps[k] = np.cos(rng.uniform(0.1, 1.4)), np.sin(rng.uniform(0.1, 1.4))
            inputs.append(_scramble(amps / np.linalg.norm(amps), rng))
        qubits = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        product = np.kron(np.kron(qubits[0], qubits[1]), qubits[2])
        inputs.append(product / np.linalg.norm(product))
    for psi in inputs:
        result = canonical.acin_decompose(psi)
        assert np.all(result.params.lambdas[1:] <= 1e-15), result.params.lambdas
        assert result.residual <= 1e-14


def test_decompose_xi_is_ghz_class_two_term():
    # xi is locally equivalent to a two-term generalized GHZ state
    result = canonical.acin_decompose(states.make_xi())
    lams = result.params.lambdas
    assert abs(lams[0] - np.sqrt((1 + 1 / np.sqrt(5)) / 2)) < 1e-7
    assert abs(lams[4] - np.sqrt((1 - 1 / np.sqrt(5)) / 2)) < 1e-7
    assert np.all(lams[1:4] < 1e-6)


def test_decompose_reconstruction_identity():
    """The returned unitaries actually map the input onto the form."""
    for seed in (0, 1, 2):
        psi = states.haar_random_pure(seed)
        result = canonical.acin_decompose(psi)
        rebuilt = result.unitaries.apply(psi)
        target = states.make_acin(result.params)
        assert np.max(np.abs(rebuilt - target)) < 1e-7


def test_decompose_haar_preserves_invariants():
    for seed in range(6):
        psi = states.haar_random_pure(seed + 40)
        result = canonical.acin_decompose(psi)
        assert result.residual <= canonical.RESIDUAL_TOL
        spec_in, tangle_in = canonical.local_unitary_invariants(psi)
        spec_out, tangle_out = canonical.local_unitary_invariants(
            states.make_acin(result.params)
        )
        assert np.max(np.abs(spec_in - spec_out)) < 1e-8
        assert abs(tangle_in - tangle_out) < 1e-8


def test_decompose_is_local_unitary_invariant():
    """Scrambling by local unitaries does not change the canonical parameters."""
    rng = np.random.default_rng(77)
    psi = states.haar_random_pure(55)
    base = canonical.acin_decompose(psi).params
    for _ in range(3):
        again = canonical.acin_decompose(_scramble(psi, rng)).params
        assert np.max(np.abs(again.lambdas - base.lambdas)) < 1e-7
        assert abs(again.alpha - base.alpha) < 1e-5


def test_planted_round_trip():
    """Parameters planted behind random local unitaries are recovered.

    The five-term form is not unique (a generic state admits several
    decompositions), so recovery is checked against the canonical
    representative of the planted parameters rather than the raw draw.
    """
    rng = np.random.default_rng(123)
    for _ in range(5):
        lams = np.abs(rng.standard_normal(5)) + 0.15
        lams /= np.linalg.norm(lams)
        planted = states.AcinParams(*lams, alpha=rng.uniform(0.0, np.pi))
        reference = canonical.acin_decompose(states.make_acin(planted)).params
        recovered = canonical.acin_decompose(
            _scramble(states.make_acin(planted), rng)
        ).params
        assert np.max(np.abs(recovered.lambdas - reference.lambdas)) < 1e-7


def test_decompose_biseparable_state():
    # Psi+ on AB with spectator C: pair Schmidt values are (1/2, 1/2)
    psi = np.zeros(8, dtype=complex)
    psi[0] = psi[6] = SQRT2
    result = canonical.acin_decompose(psi)
    lams = result.params.lambdas
    # max-lambda0 representative of a Bell pair: l2 = l3 = 1/sqrt(2)
    assert abs(lams[2] - SQRT2) < 1e-8 and abs(lams[3] - SQRT2) < 1e-8
    assert result.residual <= canonical.RESIDUAL_TOL


def test_decompose_w_state():
    result = canonical.acin_decompose(states.make_w(0.0, 0.0))
    # W is not in its own canonical representative: the max-lambda0 form
    # of the W class has four nonzero terms and alpha = pi
    spec_in, tangle_in = canonical.local_unitary_invariants(states.make_w(0.0, 0.0))
    spec_out, tangle_out = canonical.local_unitary_invariants(
        states.make_acin(result.params)
    )
    assert np.max(np.abs(spec_in - spec_out)) < 1e-8
    assert tangle_out < 1e-8
    assert result.params.lambda0 > 0.0


def test_alpha_always_in_range():
    for seed in range(4):
        params = canonical.acin_decompose(states.haar_random_pure(seed + 300)).params
        assert 0.0 <= params.alpha <= np.pi


def test_decompose_rejects_unnormalized():
    with pytest.raises(ValueError):
        canonical.acin_decompose(np.ones(8))


def test_local_unitary_invariants_shape():
    spectra, tangle = canonical.local_unitary_invariants(states.make_ghz(0.0))
    assert spectra.shape == (3, 2)
    assert np.allclose(spectra, 0.5, atol=1e-12)
    assert abs(tangle - 1.0) < 1e-12
