import numpy as np
import pytest

from ghzw import qcore, states, witness


def test_basis_index_convention():
    zero, one = np.array([1, 0]), np.array([0, 1])
    assert np.allclose(np.kron(np.kron(zero, zero), zero), np.eye(8)[0])
    assert np.allclose(np.kron(np.kron(one, one), one), np.eye(8)[7])
    # |q_A q_B q_C> sits at 4 q_A + 2 q_B + q_C: |110> -> 6
    assert np.allclose(np.kron(np.kron(one, one), zero), np.eye(8)[6])


def test_inner_products():
    assert np.vdot(np.eye(8)[0], np.eye(8)[0]) == 1
    assert np.vdot(states.make_ghz(0.0), states.make_w(0.0, 0.0)) == 0
    got = np.vdot(states.make_ghz(0.0), states.make_xi())
    assert abs(got - 2 / np.sqrt(10)) < 1e-15


def test_inner_conjugate_linearity():
    x = states.haar_random_pure(1)
    y = states.haar_random_pure(2)
    assert abs(np.vdot(x, y) - np.conj(np.vdot(y, x))) < 1e-15


def test_outer_basics():
    proj = qcore.outer(np.eye(8)[0])
    expected = np.zeros((8, 8))
    expected[0, 0] = 1.0
    assert np.allclose(proj, expected)

    psi = 2.0 * states.haar_random_pure(5)
    assert abs(np.trace(qcore.outer(psi)) - np.vdot(psi, psi)) < 1e-12

    ghz = qcore.outer(states.make_ghz(0.0))
    for i, j in [(0, 0), (0, 7), (7, 0), (7, 7)]:
        assert abs(ghz[i, j] - 0.5) < 1e-15
    assert abs(np.abs(ghz).sum() - 2.0) < 1e-12


def test_partial_transpose_identity_and_involution():
    eye = np.eye(8) / 8.0
    assert np.allclose(qcore._partial_transpose(eye, "A"), eye)
    rng = np.random.default_rng(4)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = m + m.conj().T
    for cut in ("A", "B", "C"):
        twice = qcore._partial_transpose(qcore._partial_transpose(rho, cut), cut)
        assert np.allclose(twice, rho)


def test_hermitian_eigs_rank_one_projector():
    vals = np.linalg.eigvalsh(qcore.outer(states.make_ghz(0.0)))
    assert np.allclose(vals, [0] * 7 + [1], atol=1e-12)


def test_hermitian_eigs_witness_spectrum():
    vals = np.linalg.eigvalsh(witness.ghz_witness(0).matrix())
    assert np.allclose(vals, [-0.5] + [0.5] * 7, atol=1e-12)


def test_dimension_guards():
    with pytest.raises(ValueError, match="8 amplitudes"):
        qcore.outer(np.ones(3))
    with pytest.raises(ValueError, match="8x8"):
        states.check_density_matrix(np.ones((8, 4)))
    with pytest.raises(ValueError, match="8x8"):
        states.check_density_matrix(np.eye(4))
    with pytest.raises(ValueError, match="ket amplitudes must be finite"):
        qcore.outer([np.nan] + [0.0] * 7)
    with pytest.raises(ValueError, match="operator entries must be finite"):
        states.check_density_matrix(np.full((8, 8), np.nan))
    for label in ("D", 0):
        with pytest.raises(ValueError, match="unknown qubit label"):
            qcore.qubit_slot(label)


def _reference_spectra(kets):
    """Squared singular values of the solo-vs-pair matrices by LAPACK, as
    qcore._reduced_spectra computed them before its closed form."""
    return np.clip(np.linalg.svd(kets[:, qcore._SOLO_INDEX], compute_uv=False) ** 2, 0.0, 1.0)


def _unit(kets):
    return kets / np.linalg.norm(kets, axis=-1, keepdims=True)


def _haar(rng, n, dim=8):
    return _unit(rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim)))


def _biseparable(rng, n, slot):
    """Kets (n, 8) that are a qubit at `slot` times a Haar state of the other two."""
    solo, pair = _haar(rng, n, 2), _haar(rng, n, 4).reshape(n, 2, 2)
    return np.moveaxis(solo[:, :, None, None] * pair[:, None], 1, slot + 1).reshape(n, 8)


def _fully_product(rng, n):
    a, b, c = (_haar(rng, n, 2) for _ in range(3))
    return (a[:, :, None, None] * b[:, None, :, None] * c[:, None, None, :]).reshape(n, 8)


def _sparse(rng, n):
    """Haar kets with about a third of their amplitudes zeroed, and real ones."""
    kets = _haar(rng, n)
    kets[rng.random(kets.shape) < 0.35] = 0.0
    kets[:, 7] += 0.5
    return np.concatenate([_unit(kets), _unit(kets.real).astype(complex)])


def _named():
    kets = [states.make_ghz(0.0), states.make_ghz(1.3), states.make_w(0.0, 0.0), states.make_w(0.7, 2.1)]
    kets += [states.make_xi(), np.eye(8)[0], np.eye(8)[5], states.make_superposition(0.4, 1.1, 2.2, -0.3, 0.0)]
    return np.array(kets, dtype=complex)


def _mixed_batch(seed):
    rng = np.random.default_rng(seed)
    parts = [_haar(rng, 60), _sparse(rng, 30), _fully_product(rng, 20), _named()]
    parts += [_biseparable(rng, 20, slot) for slot in range(3)]
    return rng.permutation(np.concatenate(parts))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_closed_form_spectra_match_the_svd(seed):
    kets = _mixed_batch(seed)
    got = qcore._reduced_spectra(kets)
    assert got.shape == (len(kets), 3, 2)
    assert np.max(np.abs(got - _reference_spectra(kets))) <= 2e-15
    assert np.all(got[..., 0] >= got[..., 1]) and np.all(got >= 0.0) and np.all(got <= 1.0)


def test_product_cuts_read_at_the_svd_floor():
    rng = np.random.default_rng(3)
    for slot in range(3):
        spectra = qcore._reduced_spectra(_biseparable(rng, 200, slot))
        assert np.max(spectra[:, slot, 1]) <= 1e-30
        assert np.max(np.abs(spectra[:, slot, 0] - 1.0)) <= 2e-15
        assert np.min(np.delete(spectra[..., 1], slot, axis=1)) > 1e-12
    assert np.max(qcore._reduced_spectra(_fully_product(rng, 200))[..., 1]) <= 1e-30


def test_spectra_of_named_states():
    ghz, ghz_phased, w, w_phased, xi, zero, basis5, _ = qcore._reduced_spectra(_named())
    for spectra in (ghz, ghz_phased):
        # two equal values on every cut, not an order flipped by rounding
        assert np.all(spectra[:, 0] == spectra[:, 1])
        assert np.allclose(spectra, 0.5, rtol=0.0, atol=2e-16)
    for spectra in (w, w_phased):
        assert np.allclose(spectra, [2.0 / 3.0, 1.0 / 3.0], rtol=0.0, atol=5e-16)
    assert np.allclose(xi, [(1.0 + 1.0 / np.sqrt(5.0)) / 2.0, (1.0 - 1.0 / np.sqrt(5.0)) / 2.0], rtol=0.0, atol=2e-16)
    # a zero row: each cut of a basis state has one
    assert np.all(zero == [1.0, 0.0]) and np.all(basis5 == [1.0, 0.0])


def test_batches_equal_single_kets_bit_for_bit():
    kets = _mixed_batch(4)
    singles = np.concatenate([qcore._reduced_spectra(kets[i : i + 1]) for i in range(200)])
    for n in (1, 2, 7, 63, 64, 65, 129, 200):
        assert qcore._reduced_spectra(kets[:n]).tobytes() == singles[:n].tobytes()
    # a strided view of a batch reads the same as its copy
    assert qcore._reduced_spectra(kets[:200:3]).tobytes() == singles[::3].tobytes()
