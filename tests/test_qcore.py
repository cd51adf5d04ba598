import numpy as np
import pytest

from ghzw import qcore, states, witness


def test_basis_index_convention():
    assert np.allclose(
        qcore.tensor(qcore.tensor([1, 0], [1, 0]), [1, 0]), np.eye(8)[0]
    )
    assert np.allclose(
        qcore.tensor(qcore.tensor([0, 1], [0, 1]), [0, 1]), np.eye(8)[7]
    )
    # |q_A q_B q_C> sits at 4 q_A + 2 q_B + q_C: |110> -> 6
    assert np.allclose(
        qcore.tensor(qcore.tensor([0, 1], [0, 1]), [1, 0]), np.eye(8)[6]
    )


def test_tensor_superposition():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    out = qcore.tensor(plus, [1, 0])
    assert out.shape == (4,)
    assert np.allclose(out, [1 / np.sqrt(2), 0.0, 1 / np.sqrt(2), 0.0])


def test_tensor_rejects_oversize():
    with pytest.raises(ValueError):
        qcore.tensor(np.ones(4) / 2, np.ones(4) / 2)


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
    with pytest.raises(ValueError):
        qcore.as_ket(np.ones(3))
    with pytest.raises(ValueError):
        qcore.as_operator(np.ones((8, 4)))
    with pytest.raises(ValueError):
        qcore.as_operator(np.eye(4))
    with pytest.raises(ValueError):
        qcore.as_ket([np.nan, 0.0])
    with pytest.raises(ValueError):
        qcore.qubit_slot("D")
