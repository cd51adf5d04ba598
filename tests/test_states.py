import json

import numpy as np
import pytest

from ghzw import qcore, states


def test_make_ghz_amplitudes():
    psi = states.make_ghz(0.0)
    assert abs(psi[0] - 1 / np.sqrt(2)) < 1e-15
    assert abs(psi[7] - 1 / np.sqrt(2)) < 1e-15
    assert np.allclose(psi[1:7], 0.0)
    assert abs(states.make_ghz(np.pi)[7] + 1 / np.sqrt(2)) < 1e-15


def test_ghz_phase_overlap():
    phi, phi2 = 0.7, 2.1
    got = np.vdot(states.make_ghz(phi), states.make_ghz(phi2))
    assert abs(got - (1 + np.exp(1j * (phi2 - phi))) / 2) < 1e-15


def test_make_w_amplitudes():
    psi = states.make_w(0.0, 0.0)
    assert np.allclose(psi[[1, 2, 4]], 1 / np.sqrt(3))
    assert np.allclose(psi[[0, 3, 5, 6, 7]], 0.0)
    w = states.make_w(1.1, 2.9)
    assert abs(np.vdot(w, w).real - 1.0) < 1e-12
    assert np.vdot(states.make_ghz(0.4), w) == 0


def test_acin_params_limits():
    ghz = states.make_acin(states.AcinParams(1 / np.sqrt(2), 0, 0, 0, 1 / np.sqrt(2)))
    assert np.allclose(ghz, states.make_ghz(0.0))
    s3 = 1 / np.sqrt(3)
    w = states.make_acin(states.AcinParams(0, s3, s3, s3, 0))
    assert np.allclose(w, states.make_w(0.0, 0.0))
    s5 = 1 / np.sqrt(5)
    assert np.allclose(states.make_acin(states.AcinParams(s5, s5, s5, s5, s5)), states.make_xi())


def test_acin_params_validation():
    with pytest.raises(ValueError):
        states.AcinParams(1.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        states.AcinParams(1.0, 0, 0, 0, 0, alpha=4.0)
    with pytest.raises(ValueError):
        states.AcinParams(-1.0, 0, 0, 0, 0)
    for bad in ({"lambda1": np.nan}, {"lambda2": np.inf}, {"alpha": np.nan}, {"alpha": -np.inf}):
        with pytest.raises(ValueError, match="must be finite"):
            states.AcinParams(**{"lambda0": 1.0, "lambda1": 0.0, "lambda2": 0.0, "lambda3": 0.0, "lambda4": 0.0, **bad})


_NORM_TOL = states._ACIN_NORM_TOL
_FINITE = "AcinParams entries must be finite"
_SQUARES = f"sum of lambda_i^2 must equal 1 within {_NORM_TOL}"


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"lambda3": np.nan}, _FINITE),
        ({"lambda4": -np.inf}, _FINITE),
        ({"alpha": np.nan}, _FINITE),
        ({"alpha": np.inf}, _FINITE),
        ({"lambda2": -0.0}, None),
        ({"lambda2": -1e-300}, "lambda_i must be nonnegative"),
        ({"lambda0": np.sqrt(1.0 + 0.9 * _NORM_TOL)}, None),
        ({"lambda0": np.sqrt(1.0 - 0.9 * _NORM_TOL)}, None),
        ({"lambda0": np.sqrt(1.0 + 1.1 * _NORM_TOL)}, _SQUARES),
        ({"lambda0": np.sqrt(1.0 - 1.1 * _NORM_TOL)}, _SQUARES),
        ({"alpha": np.pi}, None),
        ({"alpha": np.nextafter(np.pi, 4.0)}, "alpha must lie in [0, pi]"),
        ({"lambda0": np.float64(0.6), "lambda4": np.float64(0.8), "alpha": np.float64(1.0)}, None),
    ],
)
def test_acin_params_boundaries(fields, message):
    kwargs = {"lambda0": 1.0, "lambda1": 0.0, "lambda2": 0.0, "lambda3": 0.0, "lambda4": 0.0, **fields}
    if message is None:
        assert states.AcinParams(**kwargs).lambdas.tolist() == [kwargs[f"lambda{i}"] for i in range(5)]
    else:
        with pytest.raises(ValueError) as raised:
            states.AcinParams(**kwargs)
        assert str(raised.value) == message


def test_xi_properties():
    xi = states.make_xi()
    assert abs(np.vdot(xi, xi).real - 1.0) < 1e-15
    assert abs(abs(np.vdot(states.make_ghz(0.0), xi)) ** 2 - 0.4) < 1e-15


def test_superposition_limits():
    assert np.allclose(states.make_superposition(1.0, phi=1.3), states.make_ghz(1.3))
    assert np.allclose(states.make_superposition(0.0, gamma=0.2, beta=0.9), states.make_w(0.2, 0.9))


def test_superposition_overlap_split():
    psi = states.make_superposition(1 / 3)
    assert abs(abs(np.vdot(states.make_ghz(0.0), psi)) ** 2 - 1 / 3) < 1e-12


def test_superposition_rejects_unnormalized():
    # |a|^2 = a_sq outside [0, 1] leaves no unit-norm superposition
    for a_sq in (1.5, -0.1, np.nan, [0.4, 1.2]):
        with pytest.raises(ValueError):
            states.make_superposition(a_sq)


def test_haar_random_deterministic_and_normalized():
    assert np.array_equal(states.haar_random_pure(9), states.haar_random_pure(9))
    for seed in range(20):
        psi = states.haar_random_pure(seed)
        assert abs(np.vdot(psi, psi).real - 1.0) < 1e-12


def test_haar_random_first_amplitude_marginal():
    total = 0.0
    for seed in range(10_000):
        total += abs(states.haar_random_pure(seed)[0]) ** 2
    assert abs(total / 10_000 - 0.125) < 0.01


def test_mix_single_component():
    psi = states.make_xi()
    assert np.allclose(states.mix([(1.0, psi)]), qcore.outer(psi))


def test_mix_orthogonal_pair():
    rho = states.mix([(0.5, states.make_ghz(0.0)), (0.5, states.make_w(0.0, 0.0))])
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.linalg.matrix_rank(rho, tol=1e-10) == 2
    assert min(np.linalg.eigvalsh(rho)) >= -1e-12


def test_mix_validates_weights():
    psi = states.make_ghz(0.0)
    with pytest.raises(ValueError):
        states.mix([(0.5, psi)])
    with pytest.raises(ValueError):
        states.mix([(-0.5, psi), (1.5, psi)])
    # NaN compares false both ways: it is neither negative nor off the unit sum
    with pytest.raises(ValueError, match="finite"):
        states.mix([(float("nan"), psi), (1.0, psi)])


def test_check_pure_rejects_unnormalized():
    with pytest.raises(ValueError):
        states.check_pure(np.ones(8))


def test_check_density_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        states.check_density_matrix(np.eye(8))  # trace 8
    bad = np.eye(8, dtype=complex) / 8
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        states.check_density_matrix(bad)
    # Hermitian with unit trace, but one eigenvalue just below -DM_TOL
    neg = np.diag([1.0 + 2.0 * states.DM_TOL, -2.0 * states.DM_TOL, 0, 0, 0, 0, 0, 0]).astype(complex)
    with pytest.raises(ValueError, match="eigenvalue below"):
        states.check_density_matrix(neg)


def test_state_json_round_trip(tmp_path):
    # the documented format: dims, then 8 [re, im] amplitude pairs
    path = tmp_path / "state.json"
    psi = states.haar_random_pure(21)
    path.write_text(json.dumps({"dims": [2, 2, 2], "amplitudes": [[z.real, z.imag] for z in psi]}))
    assert np.array_equal(states.load_state(str(path)), psi)


def test_rho_json_round_trip(tmp_path):
    # the documented format: dims, then an 8x8 matrix of [re, im] pairs
    path = tmp_path / "rho.json"
    rho = states.mix([(0.3, states.make_ghz(0.2)), (0.7, states.make_w(0.1, 0.4))])
    path.write_text(json.dumps({"dims": [2, 2, 2], "matrix": [[[z.real, z.imag] for z in row] for row in rho]}))
    assert np.max(np.abs(states.load_rho(str(path)) - rho)) < 1e-15


def test_state_from_dict_validation():
    with pytest.raises(ValueError):
        states.state_from_dict({"dims": [2, 2], "amplitudes": []})
    with pytest.raises(ValueError):
        states.state_from_dict({"dims": [2, 2, 2], "amplitudes": [[1.0, 0.0]] * 7})
