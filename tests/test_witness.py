import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzw import qcore, states, witness

LAMBDA_BISEP_XI = 0.7236067977499789  # (1 + 1/sqrt(5)) / 2


def test_ghz_witness_self_expectation():
    for phi in (0.0, 0.9, np.pi):
        w = witness.ghz_witness(phi)
        assert abs(witness.expectation_pure(w, states.make_ghz(phi)) + 0.5) < 1e-12


def test_ghz_witness_on_other_states():
    w = witness.ghz_witness(0.0)
    assert abs(witness.expectation_pure(w, np.eye(8)[0])) < 1e-12
    assert abs(witness.expectation_pure(w, states.make_w(0.3, 0.8)) - 0.5) < 1e-12


def test_w_witness_expectations():
    for gamma, beta in [(0.0, 0.0), (1.2, 2.7)]:
        w = witness.w_witness(gamma, beta)
        assert abs(witness.expectation_pure(w, states.make_w(gamma, beta)) + 1 / 3) < 1e-12
    w = witness.w_witness(0.0, 0.0)
    assert abs(witness.expectation_pure(w, states.make_ghz(0.7)) - 2 / 3) < 1e-12
    assert abs(witness.expectation_pure(w, np.eye(8)[1]) - 1 / 3) < 1e-12


def test_expectation_matches_matrix_trace():
    w = witness.w_witness(0.4, 1.1)
    rho = states.mix([(0.6, states.make_xi()), (0.4, states.make_ghz(0.5))])
    direct = witness.expectation(w, rho)
    via_matrix = np.trace(w.matrix() @ rho).real
    assert abs(direct - via_matrix) < 1e-12


def test_expectation_rejects_a_matrix_that_is_not_a_state():
    rho = states.mix([(0.6, states.make_xi()), (0.4, states.make_ghz(0.5))])
    with pytest.raises(ValueError, match="trace"):
        witness.expectation(witness.ghz_witness(), 2 * rho)


def test_witness_validation():
    with pytest.raises(ValueError):
        witness.Witness(np.ones(8), 0.5)
    with pytest.raises(ValueError):
        witness.Witness(states.make_ghz(0.0), 1.5)


def test_lambda_bound_analytic_constants():
    rng = np.random.default_rng(17)
    for _ in range(10):
        phi, gamma, beta = rng.uniform(0, 2 * np.pi, size=3)
        assert abs(witness.lambda_bound_analytic(states.make_ghz(phi)) - 0.5) < 1e-12
        assert abs(witness.lambda_bound_analytic(states.make_w(gamma, beta)) - 2 / 3) < 1e-12
    assert abs(witness.lambda_bound_analytic(np.eye(8)[0]) - 1.0) < 1e-12
    assert abs(witness.lambda_bound_analytic(states.make_xi()) - LAMBDA_BISEP_XI) < 1e-9


def test_lambda_bound_stochastic_matches_analytic():
    assert abs(witness.lambda_bound_stochastic(states.make_ghz(0.0), seed=7) - 0.5) < 1e-6
    assert abs(witness.lambda_bound_stochastic(states.make_w(0.0, 0.0), seed=7) - 2 / 3) < 1e-6
    xi = states.make_xi()
    gap = witness.lambda_bound_stochastic(xi, seed=7) - witness.lambda_bound_analytic(xi)
    assert abs(gap) < 1e-6


def test_lambda_bound_stochastic_deterministic():
    psi = states.haar_random_pure(31)
    a = witness.lambda_bound_stochastic(psi, seed=5, restarts=8, iters=200)
    b = witness.lambda_bound_stochastic(psi, seed=5, restarts=8, iters=200)
    assert a == b


def test_lambda_bound_stochastic_validates_budget():
    with pytest.raises(ValueError):
        witness.lambda_bound_stochastic(states.make_ghz(0.0), seed=1, restarts=0)


def test_lambda_bound_stochastic_validates_seed():
    w = states.make_w(0.0, 0.0)
    # a negative seed is named before the (here invalid) state is looked at
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        witness.lambda_bound_stochastic(np.ones(8), seed=-3)
    # numpy integers are taken as the Python ints they hold
    big = witness.lambda_bound_stochastic(w, seed=np.int64(2**63 - 5), restarts=8)
    assert big == witness.lambda_bound_stochastic(w, seed=2**63 - 5, restarts=8)
    assert abs(big - 2 / 3) < 1e-9
    for bad in ({"seed": 2.0}, {"seed": 1, "restarts": 2.0}, {"seed": 1, "iters": 1.5}):
        with pytest.raises(TypeError):
            witness.lambda_bound_stochastic(w, **bad)


def _ascend_cut(psi, slot, rng, iters):
    """`iters` plain steps of one alternating ascent, the loop that the Gram-power kernel replaced."""
    m = psi[qcore._SOLO_INDEX[slot]]
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    overlap, last = 0.0, None
    for _ in range(iters):
        u = m @ v.conj()
        nu = np.linalg.norm(u)
        if nu == 0.0:
            break
        u /= nu
        v = (m.conj().T @ u).conj()
        nv = np.linalg.norm(v)
        if nv == 0.0:
            break
        v /= nv
        # |<u|m v*>|^2 with v* = m^H u / |m^H u|, read with fewer roundings
        overlap = nv**2
        # once (u, v) repeat bit for bit, every later step repeats them and the overlap
        if last is not None and np.array_equal(u, last[0]) and np.array_equal(v, last[1]):
            break
        last = u, v
    return overlap


def _reference_overlaps(psi, seed, restarts, iters):
    """Per-ascent overlaps, restart-major, from the scalar loop on one default_rng(seed) stream."""
    rng = np.random.default_rng(seed)
    return np.array([_ascend_cut(psi, slot, rng, iters) for _ in range(restarts) for slot in range(3)])


def _start_kets(seed, restarts):
    """The start kets of the scalar loop, drawn the way it draws them."""
    rng = np.random.default_rng(seed)
    return np.array([rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(3 * restarts)])


def _ghz_like(cos_sq):
    """cos t|000> + sin t|111>: each cut's squared Schmidt values are cos^2 t and sin^2 t."""
    t = np.arccos(np.sqrt(cos_sq))
    psi = np.zeros(8, dtype=complex)
    psi[0], psi[7] = np.cos(t), np.sin(t)
    return psi


def test_ascend_vanishing_norm_ends_only_its_ascent_at_zero():
    # the W ket has no |011> amplitude, so the start ket |11> on qubits B, C
    # is orthogonal to every row of qubit A's cut matrix: m v* is exactly 0
    w = states.make_w(0.0, 0.0)
    mats = np.tile(w[qcore._SOLO_INDEX], (2, 1, 1))
    starts = _start_kets(3, 2)
    starts[0] = np.eye(4)[3]
    with np.errstate(all="raise"):
        got = witness._ascents(mats, starts, 500)
        rest = witness._ascents(mats[1:], starts[1:], 500)
    assert got[0] == 0.0
    assert np.array_equal(got[1:], rest)
    assert abs(got.max() - 2 / 3) < 1e-12


def test_ascend_power_equals_5000_plain_steps():
    # cos^2 t = 0.51: each cut's Gram matrix has eigenvalues 0.51 and 0.49,
    # so the plain ascents creep up for hundreds of steps before their
    # (u, v) settle; the Gram power reads the overlap of the last step
    psi = _ghz_like(0.51)
    mats = np.tile(psi[qcore._SOLO_INDEX], (8, 1, 1))
    got = witness._ascents(mats, _start_kets(5, 8), 5000)
    assert np.max(np.abs(got - _reference_overlaps(psi, 5, 8, 5000))) <= 1e-15


def test_ascend_iteration_cap_stops_every_ascent():
    psi = states.haar_random_pure(41)
    mats = np.tile(psi[qcore._SOLO_INDEX], (4, 1, 1))
    starts = _start_kets(9, 4)
    one = witness._ascents(mats, starts, 1)
    assert np.max(np.abs(one - _reference_overlaps(psi, 9, 4, 1))) <= 1e-15
    # the cap is what stopped them: every ascent still gains on a second step
    assert np.all(witness._ascents(mats, starts, 2) - one >= 1e-15)


def test_ascend_reads_the_unconverged_steps_of_a_weak_start():
    # cut C's first start lies mostly along its Gram matrix's weak eigenvector
    # (overlap 0.017 with the top one), so after 5 steps the overlap is still
    # first-order in the ascent's direction; applying the power to m v* holds
    # it to the reference, where (power m) v* was 1.3e-15 off
    psi = states.haar_random_pure(113)
    got = witness._ascents(psi[qcore._SOLO_INDEX], _start_kets(113, 1), 5)
    assert np.max(np.abs(got - _reference_overlaps(psi, 113, 1, 5))) <= 1e-15


def test_ascend_any_large_budget_reaches_each_cuts_top_schmidt_value():
    # 2**40 + 1 steps is one factor G^(2**40): every squaring before it is
    # passed over, and the fixed-point exit must still apply the projector
    psi = states.haar_random_pure(41)
    mats = np.tile(psi[qcore._SOLO_INDEX], (4, 1, 1))
    top = np.tile(qcore._reduced_spectra(psi[None])[0, :, 0], 4)
    for iters in (2**40 + 1, 2**60):
        assert np.max(np.abs(witness._ascents(mats, _start_kets(9, 4), iters) - top)) <= 1e-15


def test_lambda_bound_stochastic_resolves_near_ties():
    # power iteration at ratio sin^2 t / cos^2 t needs about 1 / (cos^2 t - sin^2 t)
    # steps; 500 plain steps left 1.5e-7 at cos^2 t = 0.5001
    for cos_sq in (0.51, 0.501, 0.5001, 0.500001, 0.5):
        psi = _ghz_like(cos_sq)
        assert witness.lambda_bound_analytic(psi) - witness.lambda_bound_stochastic(psi, seed=7) <= 1e-14


def _product_ket(seed):
    rng = np.random.default_rng(seed)
    qubits = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    ket = np.einsum("i,j,k->ijk", *qubits).reshape(8)
    return ket / np.linalg.norm(ket)


def _zeroed_ket(seed, keep):
    ket = states.haar_random_pure(seed) * np.array(keep)
    return ket / np.linalg.norm(ket)


_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
_KETS = st.one_of(
    _SEEDS.map(states.haar_random_pure),
    st.sampled_from([states.make_ghz(0.0), states.make_w(0.0, 0.0), states.make_xi()]),
    _SEEDS.map(_product_ket),
    _SEEDS.map(lambda s: _random_biseparable(np.random.default_rng(s))),
    st.builds(_zeroed_ket, _SEEDS, st.lists(st.booleans(), min_size=8, max_size=8).filter(any)),
)


@settings(max_examples=80, deadline=None)
@given(
    psi=_KETS,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    restarts=st.integers(min_value=1, max_value=8),
    iters=st.sampled_from([1, 2, 5, 500]),
)
def test_lambda_bound_stochastic_matches_scalar_reference(psi, seed, restarts, iters):
    got = witness.lambda_bound_stochastic(psi, seed, restarts=restarts, iters=iters)
    assert abs(got - _reference_overlaps(psi, seed, restarts, iters).max()) <= 1e-15
    analytic = witness.lambda_bound_analytic(psi)
    assert analytic - 1e-14 <= witness.lambda_bound_stochastic(psi, seed) <= analytic + 1e-12


@settings(max_examples=20, deadline=None)
@given(psi=_KETS, seed=st.integers(min_value=0, max_value=2**31 - 1), iters=st.sampled_from([1, 2, 5]))
def test_lambda_bound_stochastic_restarts_extend_one_stream(psi, seed, iters):
    # restart r takes draws 24r to 24r + 23, so k restarts run the first 3k ascents of any larger count
    overlaps = _reference_overlaps(psi, seed, 6, iters)
    bounds = [witness.lambda_bound_stochastic(psi, seed, restarts=k, iters=iters) for k in range(1, 7)]
    for k, bound in enumerate(bounds, 1):
        assert abs(bound - overlaps[: 3 * k].max()) <= 1e-15
    assert bounds == sorted(bounds)


def test_lambda_bound_stochastic_builds_one_generator(monkeypatch):
    psi, built = states.haar_random_pure(3), []
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        built.append(1)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    witness.lambda_bound_stochastic(psi, seed=5)
    assert len(built) == 1


def _random_biseparable(rng):
    """Random pure state product across a random cut."""
    solo = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    pair = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    solo /= np.linalg.norm(solo)
    pair /= np.linalg.norm(pair)
    slot = rng.integers(3)
    tens = np.tensordot(solo, pair.reshape(2, 2), axes=0)
    order = {0: (0, 1, 2), 1: (1, 0, 2), 2: (1, 2, 0)}[slot]
    return tens.transpose(order).reshape(8)


def test_custom_witness_nonnegative_on_biseparable_states():
    rng = np.random.default_rng(23)
    for seed in (2, 14, 37):
        w = witness.custom_witness(states.haar_random_pure(seed))
        for _ in range(200):
            sigma = qcore.outer(_random_biseparable(rng))
            assert witness.expectation(w, sigma) >= -1e-10


def test_custom_witness_detects_its_reference():
    # any genuinely entangled reference gives Lambda < 1, so the witness
    # is strictly negative on the reference itself
    for psi in (states.make_xi(), states.haar_random_pure(8)):
        w = witness.custom_witness(psi)
        assert witness.expectation_pure(w, psi) < 0.0
