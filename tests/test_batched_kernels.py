"""The batch kernels equal their N = 1 wrappers, and scalar references, bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzw import classify, criterion, qcore, scanner, states, witness

EPS = criterion._PHASE_EPS

#: amplitudes at the phase-convention edges, where the phase of a
#: vanishing amplitude is fixed to 0
EDGE_VALUES = (0.0, EPS, -EPS, 1j * EPS, np.nextafter(EPS, 1.0), np.nextafter(EPS, 0.0), EPS * np.exp(2.5j))


@st.composite
def ket_batches(draw):
    """Haar kets, some with amplitudes set to 0 or to about _PHASE_EPS."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kets = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
    special = np.zeros((n, 8), dtype=bool)
    for row, slot, value in draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 6), st.sampled_from(EDGE_VALUES)), max_size=10)
    ):
        kets[row, slot], special[row, slot] = value, True
    # slot 7 stays random, so every row has amplitudes left to normalize
    free = np.where(special, 0.0, kets)
    scale = np.sqrt(1.0 - np.sum(np.abs(np.where(special, kets, 0.0)) ** 2, axis=1))
    return np.where(special, kets, free * (scale / np.linalg.norm(free, axis=1))[:, None])


def _minima_by_scalars(c):
    """The pure-state closed forms one ket at a time, with scalar abs and **."""
    ghz = 0.5 - (abs(c[0]) + abs(c[7])) ** 2 / 2.0
    phi = 0.0 if abs(c[0]) < EPS or abs(c[7]) < EPS else np.angle(c[7]) - np.angle(c[0])
    w = 2.0 / 3.0 - (abs(c[1]) + abs(c[2]) + abs(c[4])) ** 2 / 3.0
    gamma = np.angle(c[2]) - np.angle(c[1]) if abs(c[2]) > EPS and abs(c[1]) > EPS else 0.0
    beta = np.angle(c[4]) - np.angle(c[1]) if abs(c[4]) > EPS and abs(c[1]) > EPS else 0.0
    return ghz, phi, w, gamma, beta


@settings(max_examples=80, deadline=None)
@given(kets=ket_batches())
def test_pure_kernels_equal_their_wrappers(kets):
    minima = criterion._pure_minima(kets)
    spectra = qcore._reduced_spectra(kets)
    tangles = classify._three_tangle(kets)
    for i, psi in enumerate(kets):
        verdict = criterion.ghzw_criterion_pure(psi)
        fields = (verdict.ghz_min, verdict.ghz_opt_phi, verdict.w_min, verdict.w_opt_gamma, verdict.w_opt_beta)
        assert tuple(m[i] for m in minima) == fields == _minima_by_scalars(psi)
        assert criterion.min_ghz_expectation_pure(psi) == fields[:2]
        assert criterion.min_w_expectation_pure(psi) == fields[2:]
        report = classify.is_genuinely_entangled_pure(psi)
        for slot, cut in enumerate(classify.CUTS):
            assert tuple(spectra[i, slot]) == report.schmidt_by_cut[cut] == classify.bipartition_schmidt(psi, cut)
        assert tangles[i] == report.three_tangle == classify.three_tangle(psi)
        assert spectra[i, :, 0].max() == witness.lambda_bound_analytic(psi)


def _tangle_by_scalars(psi):
    """The hyperdeterminant with Python complex numbers, term by term."""
    c = [complex(z) for z in psi]
    d1 = (
        (c[0] * c[0]) * (c[7] * c[7])
        + (c[1] * c[1]) * (c[6] * c[6])
        + (c[2] * c[2]) * (c[5] * c[5])
        + (c[4] * c[4]) * (c[3] * c[3])
    )
    d2 = (
        c[0] * c[7] * c[3] * c[4]
        + c[0] * c[7] * c[5] * c[2]
        + c[0] * c[7] * c[6] * c[1]
        + c[3] * c[4] * c[5] * c[2]
        + c[3] * c[4] * c[6] * c[1]
        + c[5] * c[2] * c[6] * c[1]
    )
    d3 = c[0] * c[6] * c[5] * c[3] + c[7] * c[1] * c[2] * c[4]
    return min(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3), 1.0)


@settings(max_examples=40, deadline=None)
@given(kets=ket_batches())
def test_three_tangle_rounds_as_scalar_complex_products(kets):
    # numpy's complex array product fuses multiply-adds; the kernel must not
    assert classify._three_tangle(kets).tolist() == [_tangle_by_scalars(psi) for psi in kets]


@settings(max_examples=40, deadline=None)
@given(kets=ket_batches())
def test_mixed_ghz_kernel_equals_its_wrappers(kets):
    # ghzw_criterion runs this kernel on every density matrix
    rhos = 0.5 * kets[:, :, None] * kets[:, None, :].conj() + np.eye(8) / 16.0
    minima = criterion._ghz_min(rhos)
    for i, rho in enumerate(rhos):
        assert tuple(m[i] for m in minima) == criterion.min_ghz_expectation_mixed(rho)
        verdict = criterion.ghzw_criterion(rho)
        assert (verdict.ghz_min, verdict.ghz_opt_phi) == tuple(m[i] for m in minima)


@settings(max_examples=20, deadline=None)
@given(phases=st.tuples(*[st.floats(-7.0, 7.0)] * 4), grid=st.integers(2, 40))
def test_scan_rows_equal_the_scalar_api(phases, grid):
    cfg = scanner.ScanConfig(grid, *phases)
    for row in scanner.scan_superposition_family(cfg):
        psi = scanner.family_state(row.a_sq, cfg)
        verdict = criterion.ghzw_criterion_pure(psi)
        assert (row.ghz_min, row.w_min) == (verdict.ghz_min, verdict.w_min)
        assert (row.detected_by_ghz, row.detected_by_w, row.detected) == (
            verdict.detected_by_ghz,
            verdict.detected_by_w,
            verdict.detected,
        )
        assert row.genuinely_entangled == classify.is_genuinely_entangled_pure(psi).genuinely_entangled


def test_scan_squares_as_the_scalar_closed_form():
    # at a_sq = 0.0992 Python's ** and numpy's x*x round (|c0| + |c7|)^2
    # differently: 0x1.9652bd3c36113p-3 against ...112p-3
    row = scanner.scan_superposition_family(scanner.ScanConfig(grid_points=10001))[992]
    assert row.ghz_min == 0.5 - float.fromhex("0x1.9652bd3c36113p-3") / 2.0
    assert row.ghz_min.hex() == "0x1.9a6b50b0f27bbp-2"


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), n_components=st.integers(1, 6))
def test_window_mixtures_equal_one_ket_at_a_time(seed, n_components):
    # the draw order of sample_unwitnessed_mixtures, mixed as states.mix
    # mixed before it took batches
    rng = np.random.default_rng(seed)
    components = []
    for weight in scanner._simplex_weights(rng, n_components):
        a_sq = rng.uniform(1.0 / 3.0, 0.5)
        phi, gamma, beta, rel = rng.uniform(0.0, 2.0 * np.pi, size=4)
        cfg = scanner.ScanConfig(phase_phi=phi, phase_gamma=gamma, phase_beta=beta, rel_phase_ab=rel)
        components.append((float(weight), scanner.family_state(a_sq, cfg)))
    expected = np.zeros((8, 8), dtype=complex)
    for weight, psi in components:
        expected += weight * np.outer(psi, psi.conj())
    rho = scanner._window_mixtures([seed], n_components)[0]
    assert np.array_equal(rho, expected)
    assert np.array_equal(rho, states.mix(components))
