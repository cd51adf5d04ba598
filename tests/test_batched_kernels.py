"""The batch kernels equal their N = 1 wrappers bit for bit, and their scalar
references bit for bit or, for the mixed W minimum, within 1e-15."""

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
    """The pure-state closed forms one ket at a time, with scalar abs and *."""
    ghz_sum, w_sum = abs(c[0]) + abs(c[7]), abs(c[1]) + abs(c[2]) + abs(c[4])
    ghz = 0.5 - ghz_sum * ghz_sum / 2.0
    phi = 0.0 if abs(c[0]) < EPS or abs(c[7]) < EPS else np.angle(c[7]) - np.angle(c[0])
    w = 2.0 / 3.0 - w_sum * w_sum / 3.0
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
    # at a_sq = 0.0992 libm pow (Python's **) rounds (|c0| + |c7|)^2 one ulp up,
    # to 0x1.9652bd3c36113p-3; x*x gives the correctly rounded ...112p-3
    row = scanner.scan_superposition_family(scanner.ScanConfig(grid_points=10001))[992]
    assert row.ghz_min == 0.5 - float.fromhex("0x1.9652bd3c36112p-3") / 2.0
    assert row.ghz_min.hex() == "0x1.9a6b50b0f27bcp-2"


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), n_components=st.integers(1, 6))
def test_window_mixtures_equal_one_ket_at_a_time(seed, n_components):
    # the draw order of sample_unwitnessed_mixtures, mixed as states.mix
    # mixed before it took batches: weights are the spacings of sorted
    # uniform cuts, drawn first
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.random(n_components - 1))
    components = []
    for weight in np.diff(np.concatenate([[0.0], cuts, [1.0]])):
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


def _reference_w_min(rho):
    """The mixed W minimum one matrix at a time, as it was before the batched
    kernel: the sextic by convolution and its roots by np.roots."""
    m = rho[np.ix_(criterion.W_SECTOR, criterion.W_SECTOR)]
    s = m[0, 0].real + m[1, 1].real + m[2, 2].real
    m01, m02, m12 = m[0, 1], m[0, 2], m[1, 2]
    b = np.conj(m02) * m12

    def profile(gamma):
        return 2.0 * (m01 * np.exp(1j * gamma)).real + 2.0 * np.abs(m02 + m12 * np.exp(-1j * gamma))

    im_a = np.array([-np.conj(m01), 0.0, m01])
    mod_c = np.array([b, abs(m02) ** 2 + abs(m12) ** 2, np.conj(b)])
    im_b = np.array([b, 0.0, -np.conj(b)])
    sextic = np.convolve(np.convolve(im_a, im_a), mod_c) - np.pad(np.convolve(im_b, im_b), 1)
    gammas = np.concatenate([[0.0, np.angle(-b), -np.angle(m01)], np.angle(np.roots(sextic[::-1]))])
    gamma = float(gammas[int(np.argmax(profile(gammas)))])
    overlap = (s + float(profile(gamma))) / 3.0
    combined = m02 + m12 * np.exp(-1j * gamma)
    beta = float(-np.angle(combined)) if abs(combined) > EPS else 0.0
    return float(2.0 / 3.0 - overlap), float(np.mod(gamma, 2.0 * np.pi)), float(np.mod(beta, 2.0 * np.pi))


#: W-sector coherences set exactly to 0: each ket of the mixture has a 0
#: amplitude in one of the two slots (slots 1, 2, 4 are |001>, |010>, |100>)
ZEROED = {"m01": (1, 2), "m02": (1, 4), "m12": (2, 4), "m02 and m12": (4, 4)}
DENSITY_KINDS = ("haar mixture", "rank one", "w family", "identity", *ZEROED)


def _density(kind, rng):
    if kind == "identity":
        return np.eye(8, dtype=complex) / 8.0
    if kind == "w family":
        return qcore.outer(states.make_w(*rng.uniform(0.0, 2.0 * np.pi, 2)))
    n = 1 if kind == "rank one" else int(rng.integers(1, 9))
    kets = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
    if kind in ZEROED:
        p, q = ZEROED[kind]
        kets[::2, p] = kets[1::2, q] = 0.0
        if kind == "m02 and m12":
            kets = np.concatenate([kets, np.eye(8)[None, 4]])
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    return states._mix(rng.dirichlet(np.ones(len(kets)))[None], kets[None])[0]


@st.composite
def density_batches(draw):
    kinds = draw(st.lists(st.sampled_from(DENSITY_KINDS), min_size=1, max_size=10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array([states.check_density_matrix(_density(kind, rng)) for kind in kinds])


@settings(max_examples=80, deadline=None)
@given(rhos=density_batches())
def test_mixed_w_kernel_matches_the_scalar_reference(rhos):
    minima = criterion._w_min(rhos)
    for i, rho in enumerate(rhos):
        value, gamma, beta = (m[i] for m in minima)
        assert abs(value - _reference_w_min(rho)[0]) <= 1e-15
        # the reported phases reach the minimum
        assert abs(witness.expectation(witness.w_witness(gamma, beta), rho) - value) <= 1e-15
        assert criterion.min_w_expectation_mixed(rho) == (value, gamma, beta)
        verdict = criterion.ghzw_criterion(rho)
        assert (verdict.w_min, verdict.w_opt_gamma, verdict.w_opt_beta) == (value, gamma, beta)


@settings(max_examples=80, deadline=None)
@given(rhos=density_batches())
def test_w_floor_and_ceiling_bracket_the_mixed_w_minimum(rhos):
    floor, ceiling = scanner._w_bounds(rhos)
    value = criterion._w_min(rhos)[0]
    assert np.all(floor <= value + 1e-15) and np.all(ceiling >= value - 1e-15)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 20), phases=st.tuples(*[st.floats(0.0, 2.0 * np.pi)] * 2))
def test_w_floor_meets_the_minimum_on_rank_one_window_states_and_w(seed, n, phases):
    # the tie that _W_FLOOR_SLACK must cover: a mixture of one window ket
    w_family = qcore.outer(states.make_w(*phases))[None]
    rhos = np.concatenate([scanner._window_mixtures(range(seed, seed + n), 1), w_family])
    assert np.abs(scanner._w_bounds(rhos)[0] - criterion._w_min(rhos)[0]).max() <= 1e-15


@settings(max_examples=80, deadline=None)
@given(rhos=density_batches(), data=st.data())
def test_mixed_w_rows_do_not_depend_on_their_batch(rhos, data):
    # sample_unwitnessed_mixtures solves a subset of each block's rows
    idx = sorted(data.draw(st.sets(st.integers(0, len(rhos) - 1), min_size=1)))
    for part, whole in zip(criterion._w_min(rhos[idx]), criterion._w_min(rhos)):
        assert np.array_equal(part, whole[idx])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), n_mixtures=st.integers(1, 30), n_components=st.integers(1, 5))
def test_mixture_report_equals_a_loop_of_single_calls(seed, n_mixtures, n_components):
    cfg = scanner.ScanConfig(seed=seed)
    rhos = scanner._window_mixtures(range(seed, seed + n_mixtures), n_components)
    ghz_min = [criterion.min_ghz_expectation_mixed(rho)[0] for rho in rhos]
    w_min = [criterion.min_w_expectation_mixed(rho)[0] for rho in rhos]
    expected = scanner.MixtureReport(
        n_mixtures=n_mixtures,
        n_components=n_components,
        min_ghz_min=min(ghz_min),
        max_ghz_violation=max(0.0, -min(ghz_min)),
        min_w_min=min(w_min),
        max_w_violation=max(0.0, -min(w_min)),
        all_unwitnessed=not (criterion.detects(min(ghz_min)) or criterion.detects(min(w_min))),
        worst_mixture_index=int(np.argmin(np.minimum(ghz_min, w_min))),
    )
    assert scanner.sample_unwitnessed_mixtures(cfg, n_mixtures, n_components) == expected


def test_mixture_report_equals_a_loop_of_single_calls_across_blocks(monkeypatch):
    # blocks of 4: each block prunes its W solve against its own least ceiling
    monkeypatch.setattr(scanner, "_MIXTURE_BLOCK", 4)
    test_mixture_report_equals_a_loop_of_single_calls()


def _w_sector_density(m01, m02, m12):
    rho = np.eye(8, dtype=complex) / 8.0
    for (p, q), value in zip(((1, 2), (1, 4), (2, 4)), (m01, m02, m12)):
        rho[p, q], rho[q, p] = value, np.conj(value)
    return rho


@settings(max_examples=80, deadline=None)
@given(
    tiny=st.sampled_from(["m01", "m02"]),
    k=st.integers(20, 320),
    sizes=st.tuples(*[st.floats(0.01, 0.05)] * 3),
    phases=st.tuples(*[st.floats(0.0, 2.0 * np.pi)] * 3),
    haar_seeds=st.lists(st.integers(0, 2**31), max_size=5),
    slot=st.integers(0, 5),
)
def test_mixed_w_minimum_where_one_coherence_is_far_below_rounding(tiny, k, sizes, phases, haar_seeds, slot):
    # c6 = m01^2 conj(m02) m12 is then tiny but not 0: the sextic's two
    # extra roots run off to 0 and infinity, and a companion divided by c6
    # loses the unit-circle roots or overflows
    coherences = dict(zip(("m01", "m02", "m12"), np.array(sizes) * np.exp(1j * np.array(phases))))
    coherences[tiny] = 10.0**-k * np.exp(1j * phases[0 if tiny == "m01" else 1])
    rho = _w_sector_density(**coherences)
    value = criterion.min_w_expectation_mixed(rho)[0]
    assert abs(value - criterion.min_w_expectation_mixed(_w_sector_density(**{**coherences, tiny: 0.0}))[0]) <= 1e-15
    rhos = [qcore.outer(states.haar_random_pure(seed)) for seed in haar_seeds]
    rhos.insert(min(slot, len(rhos)), rho)
    minima = criterion._w_min(np.array(rhos))
    for i, row in enumerate(rhos):
        assert tuple(m[i] for m in minima) == tuple(m[0] for m in criterion._w_min(row[None]))


def _grid_and_golden_w_min(rho):
    """The mixed W minimum by a 4096-point grid over gamma and a golden-section polish of its best point."""
    m = rho[np.ix_(criterion.W_SECTOR, criterion.W_SECTOR)]

    def profile(gamma):
        return 2.0 * (m[0, 1] * np.exp(1j * gamma)).real + 2.0 * np.abs(m[0, 2] + m[1, 2] * np.exp(-1j * gamma))

    grid = np.linspace(0.0, 2.0 * np.pi, 4097)
    start, h = grid[np.argmax(profile(grid))], grid[1]
    # 80 steps shrink the bracket by 0.618^80 ~ 2e-17, below rounding
    lo, hi, shrink = start - h, start + h, (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        left, right = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
        if profile(left) < profile(right):
            lo = left
        else:
            hi = right
    return 2.0 / 3.0 - (np.trace(m).real + max(profile((lo + hi) / 2.0), profile(grid).max())) / 3.0


def test_mixed_w_minimum_next_to_the_flat_sextic_crossover():
    # m01 = 10^-k beside coherences of 0.01-0.05 puts |c6| / max(|c5|, |c3|)
    # on both sides of _FLAT_SEXTIC, where the companion roots and the
    # m01 b = 0 limit each lose digits; the Newton step on the slope restores them
    rng = np.random.default_rng(2005)
    for k in range(5, 13):
        for _ in range(10):
            sizes, phases = rng.uniform(0.01, 0.05, 2), rng.uniform(0.0, 2.0 * np.pi, 3)
            m01 = 10.0**-k * np.exp(1j * phases[0])
            rho = _w_sector_density(m01, *(sizes * np.exp(1j * phases[1:])))
            value = criterion.min_w_expectation_mixed(rho)[0]
            assert abs(value - _grid_and_golden_w_min(rho)) <= 1e-14
