import numpy as np
import pytest

from ghzw import criterion, qcore, states


def test_min_ghz_pure_on_family_members():
    value, phi = criterion.min_ghz_expectation_pure(states.make_ghz(0.0))
    assert abs(value + 0.5) < 1e-12 and abs(phi) < 1e-12
    value, phi = criterion.min_ghz_expectation_pure(states.make_ghz(1.3))
    assert abs(value + 0.5) < 1e-12 and abs(phi - 1.3) < 1e-12
    value, phi = criterion.min_ghz_expectation_pure(states.make_w(0.0, 0.0))
    assert abs(value - 0.5) < 1e-12 and phi == 0.0


def test_min_ghz_pure_on_xi():
    value, phi = criterion.min_ghz_expectation_pure(states.make_xi())
    assert abs(value - 0.1) < 1e-12
    assert abs(phi) < 1e-12


def test_min_w_pure_on_family_members():
    value, gamma, beta = criterion.min_w_expectation_pure(states.make_w(0.0, 0.0))
    assert abs(value + 1 / 3) < 1e-12 and gamma == 0.0 and beta == 0.0
    value, gamma, beta = criterion.min_w_expectation_pure(states.make_w(0.8, 2.2))
    assert abs(value + 1 / 3) < 1e-12
    assert abs(gamma - 0.8) < 1e-12 and abs(beta - 2.2) < 1e-12
    value, _, _ = criterion.min_w_expectation_pure(states.make_ghz(0.0))
    assert abs(value - 2 / 3) < 1e-12


def test_min_w_pure_on_xi():
    value, gamma, beta = criterion.min_w_expectation_pure(states.make_xi())
    assert abs(value - 1 / 15) < 1e-12
    assert gamma == 0.0 and beta == 0.0


def test_pure_minima_beat_any_grid_member():
    """The closed-form minimum is a true minimum over the phase grids."""
    rng = np.random.default_rng(6)
    phis = np.linspace(0, 2 * np.pi, 720)
    for seed in range(10):
        psi = states.haar_random_pure(seed)
        g_min, _ = criterion.min_ghz_expectation_pure(psi)
        overlaps = np.abs(psi[0] + np.exp(-1j * phis) * psi[7]) ** 2 / 2
        assert g_min <= (0.5 - overlaps.max()) + 1e-12
        w_min, _, _ = criterion.min_w_expectation_pure(psi)
        gam, bet = rng.uniform(0, 2 * np.pi, size=(2, 400))
        ov = np.abs(psi[1] + np.exp(-1j * gam) * psi[2] + np.exp(-1j * bet) * psi[4]) ** 2 / 3
        assert w_min <= (2 / 3 - ov.max()) + 1e-12


def test_detection_conditions():
    s2, s3, s5 = 1 / np.sqrt(2), 1 / np.sqrt(3), 1 / np.sqrt(5)
    assert criterion.ghz_condition(states.AcinParams(s2, 0, 0, 0, s2))
    assert not criterion.ghz_condition(states.AcinParams(s5, s5, s5, s5, s5))
    assert not criterion.ghz_condition(states.AcinParams(1, 0, 0, 0, 0))
    assert criterion.w_condition(states.AcinParams(0, s3, s3, s3, 0))
    assert not criterion.w_condition(states.AcinParams(s5, s5, s5, s5, s5))
    assert not criterion.w_condition(states.AcinParams(0, 1, 0, 0, 0))


def test_min_ghz_mixed_values():
    assert abs(criterion.min_ghz_expectation_mixed(qcore.outer(states.make_ghz(0.0)))[0] + 0.5) < 1e-12
    assert abs(criterion.min_ghz_expectation_mixed(np.eye(8) / 8)[0] - 3 / 8) < 1e-12
    value, phi = criterion.min_ghz_expectation_mixed(qcore.outer(states.make_ghz(1.3)))
    assert abs(value + 0.5) < 1e-12 and abs(phi - 1.3) < 1e-12


def test_min_w_mixed_values():
    assert abs(criterion.min_w_expectation_mixed(qcore.outer(states.make_w(0.0, 0.0)))[0] + 1 / 3) < 1e-9
    assert abs(criterion.min_w_expectation_mixed(np.eye(8) / 8)[0] - 13 / 24) < 1e-9
    assert abs(criterion.min_w_expectation_mixed(qcore.outer(states.make_xi()))[0] - 1 / 15) < 1e-9


def test_min_w_mixed_recovers_phases():
    value, gamma, beta = criterion.min_w_expectation_mixed(qcore.outer(states.make_w(0.7, 1.9)))
    assert abs(value + 1 / 3) < 1e-9
    assert abs(gamma - 0.7) < 1e-6 and abs(beta - 1.9) < 1e-6


def test_mixed_minima_match_pure_closed_forms_on_projectors():
    kets = [states.haar_random_pure(seed + 100) for seed in range(8)]
    # zeroed amplitudes: the |100> slot alone, with |000> and with |011>
    for seed, zeroed in enumerate(([4], [0, 4], [3, 4])):
        psi = states.haar_random_pure(seed + 200)
        psi[zeroed] = 0.0
        kets.append(psi / np.linalg.norm(psi))
    for psi in kets:
        rho = qcore.outer(psi)
        g_mixed, _ = criterion.min_ghz_expectation_mixed(rho)
        g_pure, _ = criterion.min_ghz_expectation_pure(psi)
        assert abs(g_mixed - g_pure) < 1e-10
        w_mixed, _, _ = criterion.min_w_expectation_mixed(rho)
        w_pure, _, _ = criterion.min_w_expectation_pure(psi)
        assert abs(w_mixed - w_pure) < 1e-9
        verdict, pure = criterion.ghzw_criterion(rho), criterion.ghzw_criterion_pure(psi)
        assert abs(verdict.ghz_min - pure.ghz_min) < 1e-10 and abs(verdict.w_min - pure.w_min) < 1e-9


def test_mixed_w_min_where_the_sextic_vanishes():
    # no |100> coherence (m02 = m12 = 0) leaves the sextic identically zero;
    # the maximum overlap is then at gamma = -arg(m01) = pi/2
    psi = np.array([1, 1, 1j, 0, 0, 0, 0, 0]) / np.sqrt(3)
    rho = 0.5 * qcore.outer(psi) + 0.5 * qcore.outer(np.eye(8)[4])
    value, gamma, _ = criterion.min_w_expectation_mixed(rho)
    assert abs(value - 5 / 18) < 1e-12
    assert abs(gamma - np.pi / 2) < 1e-12
    assert criterion.ghzw_criterion(rho).w_min == value


def test_mixture_of_undetected_states_stays_nonnegative():
    rho = states.mix(
        [
            (0.5, states.make_superposition(0.4)),
            (0.5, states.make_superposition(0.45, phi=0.3)),
        ]
    )
    assert criterion.min_ghz_expectation_mixed(rho)[0] >= -1e-12
    assert criterion.min_w_expectation_mixed(rho)[0] >= -1e-12


def test_verdict_on_xi():
    verdict = criterion.ghzw_criterion(qcore.outer(states.make_xi()))
    assert abs(verdict.ghz_min - 0.1) < 1e-12
    assert abs(verdict.w_min - 1 / 15) < 1e-12
    assert not verdict.detected_by_ghz
    assert not verdict.detected_by_w
    assert not verdict.detected


def test_verdict_on_ghz_projector():
    verdict = criterion.ghzw_criterion(qcore.outer(states.make_ghz(1.3)))
    assert verdict.detected_by_ghz
    assert abs(verdict.ghz_min + 0.5) < 1e-12


def test_verdict_in_fooling_window():
    psi = states.make_superposition(0.4)
    verdict = criterion.ghzw_criterion(qcore.outer(psi))
    assert not verdict.detected
    assert abs(verdict.ghz_min - 0.1) < 1e-12
    assert abs(verdict.w_min - (2 / 3 - 0.6)) < 1e-12


def test_verdict_to_dict_keys():
    d = criterion.ghzw_criterion_pure(states.make_xi()).to_dict()
    assert set(d) == {
        "ghz_min",
        "ghz_opt_phi",
        "w_min",
        "w_opt_gamma",
        "w_opt_beta",
        "detected_by_ghz",
        "detected_by_w",
        "detected",
    }


def test_criterion_rejects_invalid_density_matrix():
    with pytest.raises(ValueError):
        criterion.ghzw_criterion(np.eye(8))
