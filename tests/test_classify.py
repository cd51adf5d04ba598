import numpy as np
import pytest
from unitaries import haar_unitary

from ghzw import classify, qcore, states

GOLDEN_HI = 0.7236067977499789  # (1 + 1/sqrt(5)) / 2
GOLDEN_LO = 0.2763932022500211


def _bell_pair_with_spectator():
    """Psi+ on AB tensored with |0> on C."""
    psi = np.zeros(8, dtype=complex)
    psi[0] = 1 / np.sqrt(2)  # |000>
    psi[6] = 1 / np.sqrt(2)  # |110>
    return psi


def test_schmidt_ghz():
    for cut in ("A", "B", "C"):
        hi, lo = classify.bipartition_schmidt(states.make_ghz(0.9), cut)
        assert abs(hi - 0.5) < 1e-12 and abs(lo - 0.5) < 1e-12


def test_schmidt_w():
    for cut in ("A", "B", "C"):
        hi, lo = classify.bipartition_schmidt(states.make_w(0.3, 1.4), cut)
        assert abs(hi - 2 / 3) < 1e-12 and abs(lo - 1 / 3) < 1e-12


def test_schmidt_xi():
    for cut in ("A", "B", "C"):
        hi, lo = classify.bipartition_schmidt(states.make_xi(), cut)
        assert abs(hi - GOLDEN_HI) < 1e-9 and abs(lo - GOLDEN_LO) < 1e-9


def test_schmidt_bell_pair_with_spectator():
    assert np.allclose(classify.bipartition_schmidt(_bell_pair_with_spectator(), "C"), (1.0, 0.0), atol=1e-12)
    assert np.allclose(classify.bipartition_schmidt(_bell_pair_with_spectator(), "A"), (0.5, 0.5), atol=1e-12)


def test_three_tangle_values():
    assert abs(classify.three_tangle(states.make_ghz(0.0)) - 1.0) < 1e-12
    assert abs(classify.three_tangle(states.make_ghz(2.2)) - 1.0) < 1e-12
    assert classify.three_tangle(states.make_w(0.0, 0.0)) < 1e-12
    assert classify.three_tangle(states.make_w(1.0, 2.0)) < 1e-12
    assert classify.three_tangle(np.eye(8)[0]) == 0.0
    assert abs(classify.three_tangle(states.make_xi()) - 0.8) < 1e-12


def test_three_tangle_local_unitary_invariance():
    rng = np.random.default_rng(12)
    psi = states.make_xi()
    for _ in range(5):
        u = [haar_unitary(2, random_state=rng) for _ in range(3)]
        rotated = np.einsum(
            "ax,by,cz,xyz->abc", u[0], u[1], u[2], psi.reshape(2, 2, 2)
        ).reshape(8)
        assert abs(classify.three_tangle(rotated) - 0.8) < 1e-10


def test_three_tangle_is_four_times_the_determinant_discriminant():
    # canonical._det_zeros reads the same hyperdeterminant as the discriminant
    # of det(v0 A0 + v1 A1) = qa v0^2 + qb v0 v1 + qc v1^2
    for seed in range(2000):
        psi = states.haar_random_pure(seed)
        a0, a1 = psi.reshape(2, 2, 2)
        qa, qc = np.linalg.det(a0), np.linalg.det(a1)
        qb = a0[0, 0] * a1[1, 1] + a1[0, 0] * a0[1, 1] - a0[0, 1] * a1[1, 0] - a1[0, 1] * a0[1, 0]
        assert abs(classify.three_tangle(psi) - 4.0 * abs(qb * qb - 4.0 * qa * qc)) <= 1e-14, seed


def test_three_tangle_of_no_kets():
    tangles = classify._three_tangle(np.zeros((0, 8), dtype=complex))
    assert tangles.shape == (0,) and tangles.dtype == float


def test_genuine_entanglement_reports():
    report = classify.is_genuinely_entangled_pure(states.make_xi())
    assert report.genuinely_entangled
    assert report.biseparable_cuts == []
    assert all(lo > 0.1 for _, lo in report.schmidt_by_cut.values())

    report = classify.is_genuinely_entangled_pure(_bell_pair_with_spectator())
    assert not report.genuinely_entangled
    assert report.biseparable_cuts == ["C"]

    report = classify.is_genuinely_entangled_pure(np.eye(8)[0])
    assert report.biseparable_cuts == ["A", "B", "C"]
    assert report.three_tangle == 0.0


def test_genuine_entanglement_tol_validation():
    with pytest.raises(ValueError):
        classify.is_genuinely_entangled_pure(states.make_xi(), tol=0.0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_genuine_entanglement_rejects_non_finite_tol(tol):
    # NaN fails every comparison: a `tol <= 0` guard passes it, and then no
    # cut of |000> reads as biseparable
    with pytest.raises(ValueError):
        classify.is_genuinely_entangled_pure(np.eye(8)[0], tol=tol)


def test_ppt_min_eigenvalue_bell_pair():
    rho = qcore.outer(_bell_pair_with_spectator())
    assert abs(classify.ppt_min_eigenvalue(rho, "A") + 0.5) < 1e-12
    assert abs(classify.ppt_min_eigenvalue(rho, "B") + 0.5) < 1e-12
    # C is the product side: partial transpose stays PSD
    assert classify.ppt_min_eigenvalue(rho, "C") >= -1e-12


def test_ppt_min_eigenvalue_trivial_cases():
    for cut in ("A", "B", "C"):
        assert abs(classify.ppt_min_eigenvalue(np.eye(8) / 8, cut) - 1 / 8) < 1e-12
        assert abs(classify.ppt_min_eigenvalue(qcore.outer(np.eye(8)[0]), cut)) < 1e-12


def test_report_to_dict():
    d = classify.is_genuinely_entangled_pure(states.make_ghz(0.0)).to_dict()
    assert d["genuinely_entangled"] is True
    assert set(d["schmidt_by_cut"]) == {"A", "B", "C"}
