import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_root_search import planted_states
from unitaries import haar_unitary

from ghzw import canonical, qcore, states

SQRT2 = 1 / np.sqrt(2)


def _scramble(psi, rng):
    u = [haar_unitary(2, random_state=rng) for _ in range(3)]
    lu = canonical.LocalUnitaries(*u)
    return lu.apply(psi)


def test_local_unitaries_validation_and_apply():
    with pytest.raises(ValueError):
        canonical.LocalUnitaries(np.eye(2), np.eye(2), np.ones((2, 2)))
    lu = canonical.LocalUnitaries(np.eye(2), np.eye(2), np.array([[0, 1], [1, 0]]))
    flipped = lu.apply(np.eye(8)[0])
    assert np.allclose(flipped, np.eye(8)[1])
    assert np.allclose(lu.apply([1, 0, 0, 0, 0, 0, 0, 0]), np.eye(8)[1])


@pytest.mark.parametrize(
    "psi, match",
    [
        (np.full(4, 0.5), "8 amplitudes"),
        (np.full(8, np.nan), "finite"),
        (np.ones(8), "norm"),
    ],
)
def test_local_unitaries_apply_checks_its_ket(psi, match):
    lu = canonical.LocalUnitaries(np.eye(2), np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match=match):
        lu.apply(psi)


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


# The per-candidate reader that the array reader replaced, kept as its
# reference: every critical point and product cut is built, phase-fixed
# and certified one at a time, then the winner is picked from the list.


def _ref_apply(units, psi):
    return np.einsum("ax,by,cz,xyz->abc", *units, psi.reshape(2, 2, 2)).reshape(8)


def _ref_phase_fix(amps):
    ph = np.angle(amps)
    alpha = float(ph @ canonical._ALPHA_COEF)
    idle = [k for k in (0, 2, 3, 4) if abs(amps[k]) <= canonical._AMP_EPS]
    if idle:
        ph[idle[0]] -= alpha / canonical._ALPHA_COEF[idle[0]]
    if idle or abs(amps[1]) <= canonical._AMP_EPS:
        alpha = 0.0
    p000, _, p010, p100, p111 = ph
    zs = np.exp(1j * np.array([[0.0, p000 - p100], [0.0, p000 - p010], [-p000, p100 + p010 - 2.0 * p000 - p111]]))
    return float(np.mod(alpha, 2.0 * np.pi)), zs


def _ref_certified(psi, amps, units):
    """(params, residual) of the frame units, or None when it does not certify."""
    alpha, zs = _ref_phase_fix(amps)
    if alpha > 2.0 * np.pi - canonical._ALPHA_SLACK:
        alpha = 0.0
    if alpha > np.pi + canonical._ALPHA_SLACK:
        return None
    lams = np.hypot(amps.real, amps.imag)
    norm = np.linalg.norm(lams)
    if norm == 0.0:
        return None
    try:
        params = states.AcinParams(*lams / norm, alpha=min(alpha, np.pi))
    except ValueError:
        return None
    units = canonical.LocalUnitaries(*[z[:, None] * u for z, u in zip(zs, units)])
    residual = float(np.linalg.norm(_ref_apply((units.u_a, units.u_b, units.u_c), psi) - states.make_acin(params)))
    return None if residual > canonical.RESIDUAL_TOL else (params, residual)


def _ref_critical(psi, t, p, branch, right=None):
    tens = psi.reshape(2, 2, 2)
    v0, v1 = np.cos(t), np.sin(t) * np.exp(1j * p)
    u_a = np.array([[np.conj(v1), -np.conj(v0)], [v0, v1]])
    t0 = u_a[0, 0] * tens[0] + u_a[0, 1] * tens[1]
    t1 = u_a[1, 0] * tens[0] + u_a[1, 1] * tens[1]
    if right is None:
        left, sing, right_h = np.linalg.svd(t1)
        order = [1 - branch, branch]
        u_b, u_c = left[:, order].conj().T, right_h[order].conj()
        d1 = sing[order]
    else:
        # C's basis is given (a kink circle): B's is the unitary factor of the polar decomposition of t1 right
        left, _, right_h = np.linalg.svd(t1 @ right)
        u_b, u_c = (left @ right_h).conj().T, right.T
        d1 = np.diag(u_b @ t1 @ right)
    d0 = u_b @ t0 @ u_c.T
    return _ref_certified(psi, np.array([d0[0, 0], d0[0, 1], d0[1, 0], *d1]), (u_a, u_b, u_c))


def _ref_biseparable(psi, slot):
    m = psi[qcore._SOLO_INDEX[slot]]
    solo = np.linalg.eigh(m @ m.conj().T)[1][:, -1]
    left, (s0, s1), right_h = np.linalg.svd(np.tensordot(solo.conj(), psi.reshape(2, 2, 2), axes=(0, slot)))
    if s1 <= canonical._SCHMIDT_FLOOR * s0:
        s1 = 0.0
    e = np.sqrt(s0 * s1)
    t_left, _, t_right_h = np.linalg.svd(np.array([[s0 - s1, e], [e, 0.0]]))
    units = [None] * 3
    units[slot] = np.array([[np.conj(solo[0]), np.conj(solo[1])], [-solo[1], solo[0]]])
    pair = [s for s in range(3) if s != slot]
    units[pair[0]], units[pair[1]] = t_left @ left.conj().T, (right_h.conj().T @ t_right_h).T
    return _ref_certified(psi, _ref_apply(units, psi)[list(states.ACIN_SUPPORT)], units)


def _ref_pick(results):
    keys = np.array([[-p.lambda0, p.alpha, *-p.lambdas[1:]] for p, _ in results])
    live = np.arange(len(results))
    for col in keys.T:
        live = live[col[live] <= col[live].min() + canonical._TIE_TOL]
    return results[live[0]]


def _reference_decompose(psi):
    """(params, residual) as the per-candidate reader picked them."""
    psi = states.check_pure(psi)
    spectra = qcore._reduced_spectra(psi[None])[0]
    slots = [slot for slot in range(3) if spectra[slot, 1] <= canonical._PRODUCT_EIG_TOL]
    special = [r for r in (_ref_biseparable(psi, slot) for slot in slots) if r is not None]
    if special:
        return _ref_pick(special)
    n, branch, _, right = canonical._critical_points(psi.reshape(2, 2, 2))
    t = 0.5 * np.arccos(np.clip(n[:, 2], -1.0, 1.0))
    p = np.arctan2(n[:, 1], n[:, 0])
    # C's bases, where given, are those of the last points
    rights = [None] * len(n) if right is None else [None] * (len(n) - len(right)) + list(right)
    built = (_ref_critical(psi, float(tk), float(pk), int(bk), rk) for tk, pk, bk, rk in zip(t, p, branch, rights))
    return _ref_pick([r for r in built if r is not None])


@settings(max_examples=80, deadline=None)
@given(psi=st.one_of(st.integers(0, 10**6).map(states.haar_random_pure), planted_states()))
def test_array_reader_picks_what_the_per_candidate_reader_picks(psi):
    params, residual = _reference_decompose(psi)
    result = canonical.acin_decompose(psi)
    assert np.max(np.abs(result.params.lambdas - params.lambdas)) <= 1e-12
    assert abs(result.params.alpha - params.alpha) <= 1e-11
    assert result.residual <= max(2.0 * residual, 1e-14)


def test_array_reader_matches_on_product_and_biseparable_inputs():
    rng = np.random.default_rng(31)
    for slot in range(3):
        solo = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        pair = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        psi = np.moveaxis(np.multiply.outer(solo, pair), 0, slot).reshape(8)
        for psi in (psi / np.linalg.norm(psi), _scramble(np.eye(8)[0], rng)):
            params, _ = _reference_decompose(psi)
            result = canonical.acin_decompose(psi)
            assert np.max(np.abs(result.params.lambdas - params.lambdas)) <= 1e-12
            assert abs(result.params.alpha - params.alpha) <= 1e-11


def test_no_certified_candidate_raises(monkeypatch):
    monkeypatch.setattr(canonical, "RESIDUAL_TOL", 0.0)
    for psi in (states.haar_random_pure(3), states.make_w(0.0, 0.0)):
        with pytest.raises(canonical.DecompositionError):
            canonical.acin_decompose(psi)


def test_reader_rejects_a_stack_with_one_non_unitary_frame():
    psi = states.haar_random_pure(4)
    frames = np.tile(np.eye(2, dtype=complex), (3, 3, 1, 1))
    amps = np.tile(psi[list(states.ACIN_SUPPORT)], (3, 1))
    assert canonical._read(psi, frames, amps) is None  # no frame certifies, none raises
    frames[1, 2] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="unitary within"):
        canonical._read(psi, frames, amps)


def test_reader_never_picks_alpha_beyond_pi():
    # the identity frame reads the planted form exactly (residual 0) with
    # alpha = 4 and the larger l0; the reader must pass it over
    lams = np.array([0.6, 0.2, 0.45, 0.35, 0.5]) / np.linalg.norm([0.6, 0.2, 0.45, 0.35, 0.5])
    psi = states.make_acin(states.AcinParams(*lams, alpha=0.0))
    psi[1] *= np.exp(4.0j)
    found = canonical.acin_decompose(psi)
    assert found.params.lambda0 < lams[0] - 0.1
    u = found.unitaries
    frames = np.array([[np.eye(2)] * 3, [u.u_a, u.u_b, u.u_c]])
    amps = np.array([psi[list(states.ACIN_SUPPORT)], u.apply(psi)[list(states.ACIN_SUPPORT)]])
    assert canonical._read(psi, frames[:1], amps[:1]) is None
    result = canonical._read(psi, frames, amps)
    assert result.params.alpha <= np.pi
    assert np.max(np.abs(result.params.lambdas - found.params.lambdas)) <= 1e-12
