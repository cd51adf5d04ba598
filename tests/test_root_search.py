"""The critical-point search of acin_decompose on the Bloch sphere."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from near_strata import near_stratum_kets
from unitaries import haar_unitary

from ghzw import canonical, classify, states


@pytest.mark.parametrize(
    "seed, lambda0",
    [
        (52, 0.830973),
        (59, 0.418682),
        (116, 0.255769),
        (125, 0.201630),
        (642, 0.453160),
        (866, 0.333885),
    ],
)
def test_haar_states_return_the_larger_l0_root(seed, lambda0):
    # each of these larger-l0 roots sits beside the cone point, where the
    # two singular-value branches touch, too close to a root of the other
    # branch for a uniform seed set; the root stages of G12 reach it there
    result = canonical.acin_decompose(states.haar_random_pure(seed))
    assert abs(result.params.lambda0 - lambda0) < 1e-6


def test_index_count_holds_on_both_branches():
    # Poincare-Hopf on the sphere: on each branch the Hessian-determinant
    # signs of the critical points, the lower branch's zeros counted as
    # minima, sum to the Euler characteristic 2
    failed = []
    for seed in [*range(200), 642, 866]:
        psi = states.haar_random_pure(seed)
        _, branch, index, _ = canonical._critical_points(psi.reshape(2, 2, 2))
        if np.sum(index[branch == 0]) != 2 or np.sum(index[branch == 1]) != 2:
            failed.append(seed)
    assert failed == []


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), frame_seed=st.integers(0, 2**32 - 1))
def test_haar_parameters_do_not_depend_on_the_local_frame(seed, frame_seed):
    psi = states.haar_random_pure(seed)
    assume(classify.three_tangle(psi) > 1e-6)
    frame = haar_unitary(2, size=3, random_state=frame_seed)
    base = canonical.acin_decompose(psi).params
    moved = canonical.acin_decompose(canonical.LocalUnitaries(*frame).apply(psi)).params
    assert np.max(np.abs(moved.lambdas - base.lambdas)) <= 1e-7
    assert abs(moved.alpha - base.alpha) <= 1e-7


@st.composite
def planted_states(draw):
    """A five-term state with 0-3 zero lambdas in a random local frame."""
    lams = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=5, max_size=5)))
    zeros = draw(st.sets(st.integers(0, 4), max_size=3))
    lams[list(zeros)] = 0.0
    alpha = draw(st.sampled_from([0.0, np.pi, None]))
    if alpha is None:
        alpha = draw(st.floats(0.0, np.pi))
    params = states.AcinParams(*(lams / np.linalg.norm(lams)), alpha=alpha)
    frame = haar_unitary(2, size=3, random_state=draw(st.integers(0, 2**32 - 1)))
    return canonical.LocalUnitaries(*frame).apply(states.make_acin(params))


@settings(max_examples=150, deadline=None)
@given(psi=planted_states())
def test_planted_states_decompose(psi):
    result = canonical.acin_decompose(psi)
    target = states.make_acin(result.params)
    assert np.linalg.norm(result.unitaries.apply(psi) - target) <= 1e-8
    spectra, tangle = canonical.local_unitary_invariants(psi)
    spectra_t, tangle_t = canonical.local_unitary_invariants(target)
    assert np.max(np.abs(spectra - spectra_t)) <= 1e-8
    assert abs(tangle - tangle_t) <= 1e-8


@settings(max_examples=30, deadline=None)
@given(
    lams=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
    alpha=st.sampled_from([0.0, np.pi, 1.1]),
    frame_seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2),
)
def test_tied_l0_picks_the_same_representative_in_every_frame(lams, alpha, frame_seeds):
    # with l0 = 0 every representative ties on l0 (and alpha = 0); the
    # remaining lambdas decide, so the frame cannot
    lams = np.array(lams) / np.linalg.norm(lams)
    psi = states.make_acin(states.AcinParams(0.0, *lams, alpha=alpha))
    base = canonical.acin_decompose(psi).params
    for frame_seed in frame_seeds:
        frame = haar_unitary(2, size=3, random_state=frame_seed)
        moved = canonical.acin_decompose(canonical.LocalUnitaries(*frame).apply(psi)).params
        assert np.max(np.abs(moved.lambdas - base.lambdas)) <= 1e-7
        assert abs(moved.alpha - base.alpha) <= 1e-7


@pytest.mark.xfail(strict=True, raises=AssertionError)
def test_a_tied_l0_input_reads_the_same_in_six_frames():
    # a draw of the property above: the input's own frame and frame seed 0
    # pick l0 = 0.0223 with alpha = pi, frame seed 1 picks l0 = 0 with
    # alpha = 0 and lambdas 0.62 away, and frame seeds 2-5 pick l0 ~ 1e-5
    lams = np.array([1.0, 0.96875, 0.125, 0.125])
    psi = states.make_acin(states.AcinParams(0.0, *lams / np.linalg.norm(lams), alpha=0.0))
    base = canonical.acin_decompose(psi).params
    for frame_seed in range(6):
        frame = haar_unitary(2, size=3, random_state=frame_seed)
        moved = canonical.acin_decompose(canonical.LocalUnitaries(*frame).apply(psi)).params
        assert np.max(np.abs(moved.lambdas - base.lambdas)) <= 1e-7
        assert abs(moved.alpha - base.alpha) <= 1e-7


@pytest.mark.parametrize("seed", [0])
def test_w_class_planted_states_read_the_same_in_every_frame(seed):
    # l4 = 0, or l0 and a second lambda 0, give a zero three-tangle:
    # det M(v) = 0 has a double root there, and a root taken from the
    # square root of a rounding-level discriminant lands ~1e-8 off, so the
    # candidates at it certify near RESIDUAL_TOL or not at all; lambdas are
    # drawn from a generator, not Hypothesis, whose equal boundary values
    # fall on the symmetric strata instead
    rng = np.random.default_rng(seed)
    failed = []
    for zeros in ({4}, {0, 1}, {0, 2}, {0, 3}, {0, 4}):
        for alpha in (0.0, np.pi, None):
            for _ in range(4):
                lams = rng.uniform(0.2, 1.0, size=5)
                lams[list(zeros)] = 0.0
                a = rng.uniform(0.0, np.pi) if alpha is None else alpha
                psi = states.make_acin(states.AcinParams(*(lams / np.linalg.norm(lams)), alpha=a))
                frames = haar_unitary(2, size=9, random_state=rng).reshape(3, 3, 2, 2)
                results = [canonical.acin_decompose(canonical.LocalUnitaries(*f).apply(psi)) for f in frames]
                base = results[0].params
                for r in results:
                    if (
                        np.max(np.abs(r.params.lambdas - base.lambdas)) > 1e-7
                        or abs(r.params.alpha - base.alpha) > 1e-7
                        or r.residual > 1e-10
                    ):
                        failed.append((sorted(zeros), a, r.params.lambdas.round(6), r.params.alpha, r.residual))
    assert failed == []


def _tangent_basis(n):
    """Polar and azimuthal unit vectors (N, 3, 2) at the unit rows n."""
    phi = np.arctan2(n[:, 1], n[:, 0])
    cos, sin = np.cos(phi), np.sin(phi)
    polar = np.stack([n[:, 2] * cos, n[:, 2] * sin, -np.hypot(n[:, 0], n[:, 1])], axis=1)
    return np.stack([polar, np.stack([-sin, cos, np.zeros_like(phi)], axis=1)], axis=2)


def _reference_step(form, n, sgn):
    """(points, step lengths, indices) after one sphere Newton step taken, as
    before the basis-free step, in 2x2 coordinates of a tangent basis."""
    g, d, dm = form
    s = sgn[:, None]
    w = n @ dm.T + d
    r = np.maximum(np.linalg.norm(w, axis=1, keepdims=True), canonical._CONE_EPS)
    basis = _tangent_basis(n)
    db = dm @ basis
    de = np.einsum("nki,nk->ni", db, w / r)
    grad = np.einsum("nki,k->ni", basis, g) + s * de
    radial = n @ g + s[:, 0] * np.sum((w - d) * w, axis=1) / r[:, 0]
    hess = s[:, :, None] * (db.transpose(0, 2, 1) @ db - de[:, :, None] * de[:, None, :]) / r[:, :, None]
    a, b, c = hess[:, 0, 0] - radial, hess[:, 0, 1], hess[:, 1, 1] - radial
    det, size = a * c - b * b, a * a + 2.0 * b * b + c * c
    flat = np.abs(det) <= canonical._SINGULAR * size
    g0, g1 = grad[:, 0], grad[:, 1]
    pinv_step = np.stack([a * g0 + b * g1, b * g0 + c * g1], 1) / np.maximum(size, 1e-300)[:, None]
    newton_step = np.stack([c * g0 - b * g1, a * g1 - b * g0], 1) / np.where(flat, 1.0, det)[:, None]
    move = -np.einsum("nki,ni->nk", basis, np.where(flat[:, None], pinv_step, newton_step))
    length = np.linalg.norm(move, axis=1)
    x = n + move * np.minimum(1.0, canonical._MAX_STEP / np.maximum(length, 1e-300))[:, None]
    return x / np.linalg.norm(x, axis=1, keepdims=True), length, np.where(flat, 0.0, np.sign(det))


def _one_step(monkeypatch, form, n, sgn):
    monkeypatch.setattr(canonical, "_NEWTON_STEPS", 1)
    return canonical._newton(form, n, sgn)


def _assert_same_step(new, ref):
    # the points are unit vectors; a move longer than _MAX_STEP is taken
    # at that length, so only its direction reaches the point (its length
    # rounds with the condition number of the tangent Hessian)
    (n_new, l_new, i_new), (n_ref, l_ref, i_ref) = new, ref
    assert np.array_equal(i_new, i_ref)
    assert np.max(np.linalg.norm(n_new - n_ref, axis=1)) <= 1e-12
    taken_new, taken_ref = np.minimum(l_new, canonical._MAX_STEP), np.minimum(l_ref, canonical._MAX_STEP)
    assert np.all(np.abs(taken_new - taken_ref) <= 1e-12 * taken_ref)


def test_basis_free_step_is_the_tangent_basis_step(monkeypatch):
    points = np.concatenate([canonical._SEEDS, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    sgn = np.repeat([1.0, -1.0], len(points))
    points = np.concatenate([points, points])
    for seed in [*range(50), 116, 642, 866]:
        form = canonical._bloch_form(states.haar_random_pure(seed).reshape(2, 2, 2))
        _assert_same_step(_one_step(monkeypatch, form, points, sgn), _reference_step(form, points, sgn))


def test_w_ring_points_take_the_pseudo_inverse_step(monkeypatch):
    # W's upper branch is critical on the whole circle n_z = 1/3, and its
    # tangent Hessian is singular there along the circle: from on or just
    # beside the circle the pseudo-inverse step lands on it, with index 0
    form = canonical._bloch_form(states.make_w().reshape(2, 2, 2))
    phi = np.linspace(0.0, 2.0 * np.pi, 25)[:-1]
    circle = np.stack([np.cos(phi), np.sin(phi)], 1)

    def at_height(z):
        return np.column_stack([np.sqrt(1.0 - z * z) * circle, np.full(len(phi), z)])

    ring, sgn = at_height(1.0 / 3.0), np.ones(len(phi))
    for offset in (0.0, 1e-9, -1e-9):
        start = at_height(1.0 / 3.0 + offset)
        for n, length, index in (_one_step(monkeypatch, form, start, sgn), _reference_step(form, start, sgn)):
            assert np.all(index == 0.0)
            assert np.max(length) <= 1e-8
            assert np.max(np.linalg.norm(n - ring, axis=1)) <= 1e-12
    points = canonical._SEEDS
    sgn = np.repeat([1.0, -1.0], len(points))
    points = np.concatenate([points, points])
    _assert_same_step(_one_step(monkeypatch, form, points, sgn), _reference_step(form, points, sgn))


@pytest.mark.parametrize("m", [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.48, -0.6, 0.64]])
def test_seed_rings_are_orthonormal_to_the_cone_direction(m):
    m = np.array(m)
    dm = np.array([[0.3, 0.1, -0.2], [0.0, -0.4, 0.1], [0.2, 0.05, 0.25]])
    scales, n_dirs = canonical._RING_SCALES, canonical._RING_DIRS
    seeds = canonical._seeds((None, -dm @ (0.7 * m), dm))
    assert np.array_equal(seeds[: len(canonical._SEEDS)], canonical._SEEDS)
    rings = seeds[len(canonical._SEEDS) :].reshape(len(scales), n_dirs, 3)
    stretch = np.sqrt(1.0 + scales * scales)[:, None, None]
    # each seed is (m + t u) / sqrt(1 + t^2) for u = cos(phi) b1 + sin(phi) b2
    u = (rings * stretch - m) / scales[:, None, None]
    phi = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
    for dirs in u:
        assert np.max(np.abs(dirs @ m)) <= 1e-10
        assert np.max(np.abs(dirs @ dirs.T - np.cos(phi[:, None] - phi[None]))) <= 1e-10


def _root_seeds(form):
    """canonical._root_seeds on the eigenbasis of form."""
    return canonical._root_seeds(form, canonical._eigenbasis(form))


def _root_pass(monkeypatch, tens):
    """The critical points of the root pass alone, or None where it does not stand."""

    def no_seed_sets(*args):
        raise LookupError

    with monkeypatch.context() as m:
        m.setattr(canonical, "_seeds", no_seed_sets)
        try:
            return canonical._critical_points(tens)[:3]
        except LookupError:
            return None


def _dense_search(monkeypatch, tens):
    """The critical points of the seed set alone, with no kink circle, ring or root pass."""
    with monkeypatch.context() as m:
        m.setattr(canonical, "_kink_points", lambda form, basis: None)
        m.setattr(canonical, "_ring_seeds", lambda form, basis: None)
        m.setattr(canonical, "_root_seeds", lambda form, basis: None)
        return canonical._critical_points(tens)[:3]


def test_root_pass_finds_what_the_dense_search_finds(monkeypatch):
    # 587, 707, 2020 and 2114 are the Haar seeds of 0-2999 on which 64
    # Fibonacci points and their 4-scale rings alone fail the count
    stood = []
    for seed in [*range(200), 587, 707, 2020, 2114]:
        tens = states.haar_random_pure(seed).reshape(2, 2, 2)
        roots = _root_pass(monkeypatch, tens)
        if roots is None:
            continue
        stood.append(seed)
        dense = _dense_search(monkeypatch, tens)
        for b in (0, 1):
            n, index = roots[0][roots[1] == b], roots[2][roots[1] == b]
            n_dense, index_dense = dense[0][dense[1] == b], dense[2][dense[1] == b]
            assert len(n) == len(n_dense), seed
            dist = np.linalg.norm(n[:, None] - n_dense[None], axis=2)
            match = dist.argmin(axis=1)
            assert sorted(match) == list(range(len(n_dense))), seed
            assert dist.min(axis=1).max() <= 1e-9, seed
            assert np.array_equal(index, index_dense[match]), seed
    # every seed stands on a root stage; seed 32, whose (g_i, e_i) lies within
    # _POLE of 0, among them (its pole gives no point on the sphere)
    assert stood == [*range(200), 587, 707, 2020, 2114]


def test_haar_seed_26_keeps_its_pick(monkeypatch):
    # two eigenvalues of D^T D nearly meet (0.02220 and 0.02256) and G12 has a
    # cluster of roots between them; the pick is the seed sets' pick
    psi = states.haar_random_pure(26)
    assert _root_pass(monkeypatch, psi.reshape(2, 2, 2)) is not None
    params = canonical.acin_decompose(psi).params
    lambdas = [0.5753901559141031, 0.45783919783618693, 0.12613125183564647, 0.6649202363102973, 0.03579698391334478]
    assert np.max(np.abs(params.lambdas - lambdas)) <= 1e-12
    assert abs(params.alpha - 0.4266253192061036) <= 1e-11


def test_a_lost_root_fails_the_count_and_the_seed_sets_take_over(monkeypatch):
    psi = states.haar_random_pure(0)
    tens = psi.reshape(2, 2, 2)
    form = canonical._bloch_form(tens)
    zeros = canonical._det_zeros(tens)
    roots, signs, *_ = _root_seeds(form)
    # the root pass's Newton: the zeros on both branches, then the roots
    sgn = np.concatenate([np.repeat([1.0, -1.0], len(zeros)), signs])
    n, last, _ = canonical._newton(form, np.concatenate([zeros, zeros, roots]), sgn)
    found = last <= canonical._ROOT_TOL
    # a root whose critical point no other seed reaches, nor is a zero of det M(v)
    same = (sgn[:, None] == sgn[None]) & (np.linalg.norm(n[:, None] - n[None], axis=2) <= 1e-6) & found[None]
    np.fill_diagonal(same, False)
    at_zero = (sgn < 0) & (np.linalg.norm(n[:, None] - zeros[None], axis=2).min(axis=1) <= 1e-6)
    lone = np.flatnonzero((found & ~same.any(axis=1) & ~at_zero)[2 * len(zeros) :])[0]
    base = canonical.acin_decompose(psi).params

    root_seeds = canonical._root_seeds
    monkeypatch.setattr(
        canonical, "_root_seeds", lambda form, basis: tuple(np.delete(x, lone, axis=0) for x in root_seeds(form, basis))
    )
    assert _root_pass(monkeypatch, tens) is None
    calls = _count_seed_sets(monkeypatch)
    moved = canonical.acin_decompose(psi).params
    assert len(calls) == 1
    assert np.max(np.abs(moved.lambdas - base.lambdas)) <= 1e-12
    assert abs(moved.alpha - base.alpha) <= 1e-11


def _count_newton(monkeypatch):
    """A list that gets the (seeds, signs) of every _newton call."""
    newton, calls = canonical._newton, []
    monkeypatch.setattr(canonical, "_newton", lambda form, n, sgn: calls.append((n, sgn)) or newton(form, n, sgn))
    return calls


def _count_seed_sets(monkeypatch):
    """A list that gets the form of every _seeds call."""
    seeds, calls = canonical._seeds, []
    monkeypatch.setattr(canonical, "_seeds", lambda form: calls.append(form) or seeds(form))
    return calls


# Haar seed 0's accounted roots 0, 2 and 5 reach points that other seeds of the
# whole root pass reach too: the upper-branch zeros (0 and 2) and travelling
# seeds (2 and 5); root 3's point no other seed reaches (the test above)
@pytest.mark.parametrize("lost", [0, 2, 5])
def test_a_lost_accounted_root_fails_the_accounting_and_the_root_pass_takes_over(monkeypatch, lost):
    psi = states.haar_random_pure(0)
    tens = psi.reshape(2, 2, 2)
    assert _root_seeds(canonical._bloch_form(tens))[2][lost]
    base = canonical.acin_decompose(psi).params

    root_seeds = canonical._root_seeds
    monkeypatch.setattr(
        canonical, "_root_seeds", lambda form, basis: tuple(np.delete(x, lost, axis=0) for x in root_seeds(form, basis))
    )
    calls = _count_newton(monkeypatch)
    # the accounted roots left do not stand; the whole root pass does
    assert _root_pass(monkeypatch, tens) is not None
    assert len(calls) == 2
    moved = canonical.acin_decompose(psi).params
    assert np.max(np.abs(moved.lambdas - base.lambdas)) <= 1e-12
    assert abs(moved.alpha - base.alpha) <= 1e-11


def test_accounted_roots_reached_twice_fail_the_accounting(monkeypatch):
    # move Haar seed 0's two lower-branch accounted roots (a minimum and a
    # saddle) onto the zeros of det T1: their points are lost but the index
    # sums still hold, so only the accounting tells
    psi = states.haar_random_pure(0)
    tens = psi.reshape(2, 2, 2)
    zeros = canonical._det_zeros(tens)
    base = canonical.acin_decompose(psi).params

    def onto_zeros(form, basis):
        roots, signs, accounted, pole = root_seeds(form, basis)
        roots = roots.copy()
        roots[np.flatnonzero(accounted & (signs < 0))] = zeros
        return roots, signs, accounted, pole

    root_seeds = canonical._root_seeds
    monkeypatch.setattr(canonical, "_root_seeds", onto_zeros)
    calls = _count_newton(monkeypatch)
    moved = canonical.acin_decompose(psi).params
    assert len(calls) >= 2
    assert np.max(np.abs(moved.lambdas - base.lambdas)) <= 1e-12
    assert abs(moved.alpha - base.alpha) <= 1e-11


def test_haar_states_polish_their_accounted_roots_alone(monkeypatch):
    calls = _count_newton(monkeypatch)
    for seed in range(100):
        psi = states.haar_random_pure(seed)
        roots = _root_seeds(canonical._bloch_form(psi.reshape(2, 2, 2)))
        if seed == 32:
            # a (g_i, e_i) within _POLE of 0 whose pole gives no point on the
            # sphere: it stands on four accounted roots of G12
            assert np.count_nonzero(roots[2]) == 4
        calls.clear()
        canonical.acin_decompose(psi)
        assert len(calls) == 1, seed
        accounted = roots[2]
        assert np.array_equal(calls[0][0], roots[0][accounted]), seed
        assert np.array_equal(calls[0][1], roots[1][accounted]), seed


def _in_frame(psi, frame_seed):
    """psi in the Haar local frame drawn from frame_seed."""
    return canonical.LocalUnitaries(*haar_unitary(2, size=3, random_state=frame_seed)).apply(psi)


def _acin(lams, alpha):
    """The five-term state of the lambdas lams, normalised, and alpha."""
    return states.make_acin(states.AcinParams(*(np.array(lams) / np.linalg.norm(lams)), alpha=alpha))


def _planted(lams, alpha, frame_seed):
    """A five-term state in the Haar local frame drawn from frame_seed."""
    return _in_frame(_acin(lams, alpha), frame_seed)


# l1 = 0 leaves one (g_i, e_i) in the eigenbasis of D^T D at 0, l0 = 0 two: there
# critical points can sit at the poles nu = s_i, where no root of G12 gives them
@pytest.mark.parametrize("lams, poles", [((0.7, 0.0, 0.3, 0.5, 0.4), 1), ((0.0, 0.3, 0.7, 0.5, 0.4), 2)])
def test_pole_strata_stand_on_a_root_stage(monkeypatch, lams, poles):
    psi = _planted(lams, 1.0, 0)
    tens = psi.reshape(2, 2, 2)
    g, d, dm = canonical._bloch_form(tens)
    s, vec = np.linalg.eigh(dm.T @ dm)
    gi, ei = g @ vec, (d @ dm) @ vec
    assert np.count_nonzero(np.hypot(gi, ei) <= canonical._POLE * np.sqrt(g @ g + ei @ ei)) == poles
    assert np.diff(s).min() > canonical._POLE * s[-1]
    n, branch, _ = _dense_search(monkeypatch, tens)
    dense = canonical._read(psi, *canonical._critical_frames(psi, n, branch)).params
    # never the seed sets
    assert _root_pass(monkeypatch, tens) is not None
    calls = _count_newton(monkeypatch)
    params = canonical.acin_decompose(psi).params
    # the accounted roots alone
    assert len(calls) == 1
    assert np.max(np.abs(params.lambdas - dense.lambdas)) <= 1e-12
    assert abs(params.alpha - dense.alpha) <= 1e-11


def _stands_on_its_accounted_roots(monkeypatch, psi):
    """Assert that psi makes one _newton call and picks as the dense search."""
    n, branch, _ = _dense_search(monkeypatch, psi.reshape(2, 2, 2))
    dense = canonical._read(psi, *canonical._critical_frames(psi, n, branch)).params
    with monkeypatch.context() as m:
        calls = _count_newton(m)
        params = canonical.acin_decompose(psi).params
    assert len(calls) == 1
    assert np.max(np.abs(params.lambdas - dense.lambdas)) <= 1e-12
    assert abs(params.alpha - dense.alpha) <= 1e-11


# l0 = 0: one pole's lower pair of points is the pair of zeros of det T1, and on
# (0, 0.7, 0.9, 0.2, 0.8) in frame 15 two points of the other pole are roots of
# G12 too, their seeds 1.2e-6 apart.  Newton brings each such pole row onto a
# point counted before it, which holds it: the accounted roots stand alone
@pytest.mark.parametrize(
    "lams, alpha, frame_seeds",
    [
        ((0.0, 0.3, 0.7, 0.5, 0.4), 1.0, range(4)),
        ((0.0, 0.6, 0.2, 0.9, 0.5), 0.4, range(4)),
        ((0.0, 0.5, 0.8, 0.3, 0.6), 2.5, range(4)),
        ((0.0, 0.7, 0.9, 0.2, 0.8), 0.3, [15]),
    ],
)
def test_two_pole_planted_states_stand_on_their_accounted_roots(monkeypatch, lams, alpha, frame_seeds):
    for frame_seed in frame_seeds:
        psi = _planted(lams, alpha, frame_seed)
        tens = psi.reshape(2, 2, 2)
        zeros = canonical._det_zeros(tens)
        points, signs, _, pole = _root_seeds(canonical._bloch_form(tens))
        lower = points[pole & (signs < 0)]
        assert np.linalg.norm(lower[:, None] - zeros[None], axis=2).min(axis=0).max() <= canonical._SAME_ROOT
        _stands_on_its_accounted_roots(monkeypatch, psi)


# l4 = 0: det T1 has a double zero, onto which Newton creeps only linearly (each
# step about 2/3 of the last).  In frames 3 and 4, and for the draw below, a
# lower-branch accounted seed lies just outside _DOUBLE_ZERO of the zero: Newton
# leaves it unconverged inside that distance, and it stands for the zero, as a
# seed inside does
@pytest.mark.parametrize(
    "lams, alpha, frame_seeds", [((0.7, 0.3, 0.5, 0.4, 0.0), 1.0, range(6)), ((0.68, 0.47, 0.51, 0.91, 0.0), 1.96, [7])]
)
def test_double_zero_planted_states_stand_on_their_accounted_roots(monkeypatch, lams, alpha, frame_seeds):
    for frame_seed in frame_seeds:
        _stands_on_its_accounted_roots(monkeypatch, _planted(lams, alpha, frame_seed))


def test_a_seed_beside_a_double_zero_creeps_onto_it():
    # the draw above: its seed 1.16e-2 from the double zero ends unconverged within _DOUBLE_ZERO
    tens = _planted((0.68, 0.47, 0.51, 0.91, 0.0), 1.96, 7).reshape(2, 2, 2)
    form = canonical._bloch_form(tens)
    zeros = canonical._det_zeros(tens)
    points, signs, accounted, _ = _root_seeds(form)
    lower = points[accounted & (signs < 0)]
    dist = np.linalg.norm(lower - zeros, axis=1)
    beside = np.flatnonzero((dist > canonical._DOUBLE_ZERO) & (dist < 1.2e-2))
    assert len(zeros) == 1 and len(beside) == 1
    n, last, _ = canonical._newton(form, lower[beside], -np.ones(1))
    assert last[0] > canonical._ROOT_TOL
    assert np.linalg.norm(n[0] - zeros[0]) <= canonical._DOUBLE_ZERO


def test_nan_pole_points_raise_no_warning():
    # some hard-case points of a pole come out NaN and are dropped; rotating them
    # into the frame of D^T D warned (invalid value in matmul) outside the errstate
    # that covers the rest, and the suite turns a RuntimeWarning into an error
    lams = np.array([0.5, 0.3, 0.3, 0.5, 0.0]) / np.linalg.norm([0.5, 0.3, 0.3, 0.5, 0.0])
    params = canonical.acin_decompose(states.make_acin(states.AcinParams(*lams, alpha=0.0))).params
    assert np.max(np.abs(params.lambdas - lams)) <= 1e-12


def test_a_point_on_the_cone_carries_no_index():
    # l0 = 0 and l3 = l4: the cone point n* = -D^{-1} d, where the branches
    # touch, lies on the sphere.  sigma^2 has a kink there and T1's singular
    # bases are free, so the candidate read there depends on the frame: the
    # point counts in no stage, and every frame picks alike
    lams = np.array([0.0, 0.375, 0.375, 0.15478418989039555, 0.75])
    psi = states.make_acin(states.AcinParams(*(lams / np.linalg.norm(lams)), alpha=0.0))
    form = canonical._bloch_form(psi.reshape(2, 2, 2))
    cone = -np.linalg.solve(form[2], form[1])
    assert abs(np.linalg.norm(cone) - 1.0) <= 1e-12
    for sgn in (1.0, -1.0):
        assert canonical._newton(form, cone[None], np.array([sgn]))[2][0] == 0.0
    base = canonical.acin_decompose(psi).params
    for frame_seed in (0, 1):
        frame = haar_unitary(2, size=3, random_state=frame_seed)
        moved = canonical.acin_decompose(canonical.LocalUnitaries(*frame).apply(psi)).params
        assert np.max(np.abs(moved.lambdas - base.lambdas)) <= 1e-7
        assert abs(moved.alpha - base.alpha) <= 1e-7


def test_a_kink_circle_reads_in_closed_form(monkeypatch):
    # l1 = l2 = 0: D has rank one and d lies in its range, so D n + d vanishes
    # on a circle of the sphere, where both branches have a kink.  Off the
    # circle each branch is linear in n on each side, so its critical points
    # are read in closed form: no seed set and no Newton step
    psi = _planted((0.7, 0.0, 0.0, 0.5, 0.4), 1.0, 0)
    tens = psi.reshape(2, 2, 2)
    form = canonical._bloch_form(tens)
    assert canonical._kink_points(form, canonical._eigenbasis(form)) is not None
    n, branch, _ = _dense_search(monkeypatch, tens)
    dense = canonical._read(psi, *canonical._critical_frames(psi, n, branch)).params
    seed_sets, newton = _count_seed_sets(monkeypatch), _count_newton(monkeypatch)
    params = canonical.acin_decompose(psi).params
    assert seed_sets == [] and newton == []
    assert np.max(np.abs(params.lambdas - dense.lambdas)) <= 1e-12
    assert abs(params.alpha - dense.alpha) <= 1e-11


# l1 = l2 = 0 with l3 = l4: the planted representative sits on the kink circle,
# a cone point where T1's singular bases are free.  Its C frame is read as the
# eigenbasis of u.sigma, which every point of a kink circle shares; the seed
# sets landed about 1e-5 off it and read l1 and l2 of about 2e-5
@pytest.mark.parametrize("lams", [(1.0, 0.0, 0.0, 1.0, 1.0), (2.0, 0.0, 0.0, 1.0, 1.0)])
def test_a_cone_point_of_a_kink_circle_reads_its_planted_zeros(lams):
    planted = np.array(lams) / np.linalg.norm(lams)
    for frame_seed in range(6):
        params = canonical.acin_decompose(_planted(lams, 0.0, frame_seed)).params
        assert max(params.lambda1, params.lambda2) <= 1e-12, frame_seed
        assert abs(params.lambda0 - planted[0]) <= 1e-12, frame_seed


def _count_rows(monkeypatch):
    """A list that gets the number of critical points of every _critical_frames call."""
    frames, rows = canonical._critical_frames, []
    monkeypatch.setattr(
        canonical, "_critical_frames", lambda psi, n, *rest: rows.append(len(n)) or frames(psi, n, *rest)
    )
    return rows


# each has a pole plane: two equal eigenvalues of D^T D whose (g_i, e_i) vanish;
# GHZ and xi are kink circles too, which _kink_points reads before the rings
_RING_STATES = {
    "ghz": states.make_ghz(0.7),
    "w": states.make_w(0.3, 1.1),
    "xi": states.make_xi(),
    "l2 = l3 = 0": _acin((0.7, 0.4, 0.0, 0.0, 0.5), 1.0),
}


@pytest.mark.parametrize("name", list(_RING_STATES))
def test_exact_rings_pick_as_the_dense_search_with_one_point_per_ring(monkeypatch, name):
    # sigma^2 depends on the axis off the plane alone, so its critical points
    # are the two axis points and rings, read in closed form with one point per
    # ring: no seed set runs, and few candidates are read
    for frame_seed in range(6):
        psi = _in_frame(_RING_STATES[name], frame_seed)
        n, branch, _ = _dense_search(monkeypatch, psi.reshape(2, 2, 2))
        dense = canonical._read(psi, *canonical._critical_frames(psi, n, branch)).params
        with monkeypatch.context() as m:
            seed_sets, rows = _count_seed_sets(m), _count_rows(m)
            params = canonical.acin_decompose(psi).params
        assert seed_sets == [] and len(rows) == 1 and rows[0] <= 10, (frame_seed, rows)
        assert np.max(np.abs(params.lambdas - dense.lambdas)) <= 1e-12, frame_seed
        assert abs(params.alpha - dense.alpha) <= 1e-11, frame_seed


# two equal lambdas beside l2 = l3 = 0 or l1 = l3 = 0: a root of the ring quadratic
# sits on an axis point, where the whole tangent Hessian vanishes and Newton's
# step is rounding noise.  The max-l0 candidate is read there, so the point keeps
# its place; the seed sets land about 1e-5 off it, and pick l0 = 0.408 for
# (1, 0, 1, 0, 1)/sqrt(3) in some frames and 0.577 for (2, 1, 0, 0, 1)/sqrt(6)
@pytest.mark.parametrize("lams", [(1.0, 0.0, 1.0, 0.0, 1.0), (2.0, 1.0, 0.0, 0.0, 1.0)])
def test_a_degenerate_axis_point_reads_the_same_in_every_frame(lams):
    planted = np.array(lams) / np.linalg.norm(lams)
    for frame_seed in range(6):
        params = canonical.acin_decompose(_planted(lams, 0.0, frame_seed)).params
        assert np.max(np.abs(params.lambdas - planted)) <= 1e-12, frame_seed
        assert abs(params.alpha) <= 1e-11, frame_seed


# kets 55 and 203 of the near-stratum panel (near_strata.py).  Ket 55 is near
# biseparable: its pole plane is exact within _EXACT, but a = g_k^2 and the
# ring quadratic vanishes, so its lower branch is flat.  Ket 203's pair of
# eigenvalues and its (g_P, e_P) sit at about 5e-12 and 8e-12 of their scales,
# a ring broken above _EXACT.  Both stand on the seed set, in one call:
# without the flat guard ket 55 raises DecompositionError, and with a 1e-10
# plane gate ket 203
@pytest.mark.parametrize("ket", [55, 203])
def test_a_flat_branch_and_a_broken_ring_keep_the_seed_sets(monkeypatch, ket):
    psi = near_stratum_kets(ket + 1)[ket]
    form = canonical._bloch_form(psi.reshape(2, 2, 2))
    basis = canonical._eigenbasis(form)
    s, size = basis[0], basis[4]
    _, plane = canonical._pole_plane(basis, canonical._EXACT, canonical._EXACT * (size + s[-1]))
    assert plane == (ket == 55)
    assert canonical._ring_seeds(form, basis) is None
    calls = _count_seed_sets(monkeypatch)
    result = canonical.acin_decompose(psi)
    assert len(calls) == 1
    assert result.residual <= canonical.RESIDUAL_TOL


def test_haar_seed_562_falls_back_to_the_whole_root_pass(monkeypatch):
    # its accounted roots reach four distinct points, but branch 1's index
    # sum reads 4: two saddles are reached only from real roots whose n(nu)
    # lies about 1e-2 off the sphere, outside _ON_SPHERE
    psi = states.haar_random_pure(562)
    calls = _count_newton(monkeypatch)
    params = canonical.acin_decompose(psi).params
    assert len(calls) == 2
    n, branch, _ = _dense_search(monkeypatch, psi.reshape(2, 2, 2))
    dense = canonical._read(psi, *canonical._critical_frames(psi, n, branch)).params
    assert np.max(np.abs(params.lambdas - dense.lambdas)) <= 1e-12
    assert abs(params.alpha - dense.alpha) <= 1e-11


# kets 1e-3 off planted five-term states: in A one (g_i, e_i) is 5e-4 of its
# scale, in B two eigenvalues of D^T D are 8e-4 apart as well; roots of G12
# cluster beside those poles
_NEAR_POLE_KETS = {
    "A": [
        -0.023193582097901313 + 0.3688331575962674j, 0.4976106639882531 + 0.15710647428817742j,
        -0.057431192628382935 - 0.024086543811870753j, 0.1318912532995007 - 0.5401528131209261j,
        -0.313300689161204 + 0.3408871591294386j, 0.154648851604359 + 0.039577868615850935j,
        -0.07597684743162578 + 0.10454677538473535j, 0.03684450980887281 + 0.14206475693522266j,
    ],
    "B": [
        0.18902219748971782 - 0.1693292934544473j, -0.17138680846504822 + 0.16248939522856473j,
        0.39703284693155844 + 0.03214943841636482j, -0.03632940996178259 - 0.24537955797012656j,
        -0.32711035168613717 - 0.3079458469973951j, -0.07222940161054427 - 0.4877083496865763j,
        -0.3295389355821031 + 0.034909983713060797j, 0.22268153553589898 + 0.2351856822931481j,
    ],
}


@pytest.mark.parametrize("name", ["A", "B"])
def test_root_pass_beside_a_pole_picks_as_the_seed_sets(monkeypatch, name):
    psi = np.array(_NEAR_POLE_KETS[name])
    assert _root_pass(monkeypatch, psi.reshape(2, 2, 2)) is not None
    base = canonical.acin_decompose(psi).params
    monkeypatch.setattr(canonical, "_root_seeds", lambda form, basis: None)
    dense = canonical.acin_decompose(psi).params
    assert np.max(np.abs(base.lambdas - dense.lambdas)) <= 1e-12
    assert abs(base.alpha - dense.alpha) <= 1e-11


def test_complex_roots_seed_critical_points_the_real_roots_miss(monkeypatch):
    tens = np.array(_NEAR_POLE_KETS["A"]).reshape(2, 2, 2)
    assert _root_pass(monkeypatch, tens) is not None
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigvals(a)[eigvals(a).imag == 0.0])
    assert _root_pass(monkeypatch, tens) is None


def test_a_double_root_stands_on_its_accounted_roots(monkeypatch):
    def refuse(form, basis):
        raise AssertionError("the root pass ran on W, whose rings are read in closed form")

    with monkeypatch.context() as m:
        m.setattr(canonical, "_root_seeds", refuse)
        result = canonical.acin_decompose(states.make_w())
    assert abs(result.params.lambda0 - np.sqrt(2.0) / 3.0) <= 1e-9
    # a planted l4 = 0 state has a double root of det M(v) = 0 and no ring.  Its
    # zero is one, counted once; the accounted roots of G12 that Newton would
    # creep onto it, only linearly, stand for it, and the rest stand alone
    psi = _planted((0.7, 0.3, 0.5, 0.4, 0.0), 1.0, 0)
    tens = psi.reshape(2, 2, 2)
    form = canonical._bloch_form(tens)
    zeros = canonical._det_zeros(tens)
    assert len(zeros) == 1
    assert canonical._ring_seeds(form, canonical._eigenbasis(form)) is None
    n, branch, _ = _dense_search(monkeypatch, tens)
    dense = canonical._read(psi, *canonical._critical_frames(psi, n, branch)).params
    seed_sets, newton = _count_seed_sets(monkeypatch), _count_newton(monkeypatch)
    params = canonical.acin_decompose(psi).params
    assert seed_sets == [] and len(newton) == 1
    assert np.max(np.abs(params.lambdas - dense.lambdas)) <= 1e-12
    assert abs(params.alpha - dense.alpha) <= 1e-11


# (1/2, 1/2, 1/2, 1/2, 0) is W-class, and l0 = 1/2 and 1/sqrt(2) both
# certify: 1/sqrt(2) comes first.  Its point is degenerate (index 0), so no
# root stage counts and the seed set stands; 64 Fibonacci points and their
# rings alone missed it in frames 0, 1, 4 and 6.  Newton stops within about
# 1e-5 of it, where l0 falls short by up to 3e-10, and _read ties l0 within
# _TIE_TOL, so a pick reads up to about 1.2e-9 short
def test_equal_lambdas_beside_l4_0_read_the_larger_l0_in_every_frame():
    psi = _acin((0.5, 0.5, 0.5, 0.5, 0.0), 0.0)
    for frame_seed in range(8):
        params = canonical.acin_decompose(_in_frame(psi, frame_seed)).params
        assert abs(params.lambda0 - np.sqrt(0.5)) <= 1e-8, frame_seed


# kets 2283 and 39 of the near-stratum panel stand on the seed set; the 64
# Fibonacci points and their rings alone read l0 = 1.0e-7 and 0.77614 there.
# Ket 2283 is still short of the l0 = 0.8596 that Newton reaches with 200 steps
@pytest.mark.parametrize("ket, lambda0", [(2283, 0.85369), (39, 0.81931)])
def test_near_stratum_kets_read_the_larger_l0_of_the_seed_set(ket, lambda0):
    assert canonical.acin_decompose(near_stratum_kets(ket + 1)[ket]).params.lambda0 >= lambda0


# kets 612 and 1557 of the near-stratum panel (near_strata.py): the quadratic
# det(v0 A0 + v1 A1) nearly vanishes, so its discriminant reads as a double root
# while its two zeros lie far apart.  They stay two zeros (merged into one,
# both kets raise DecompositionError), and pick as recorded here
_VANISHING_QUADRATIC_PICKS = {
    612: ([0.3673698114571026, 1.3086644164789625e-08, 0.3787155378944046, 0.849478641866483, 5.319299158446659e-09],
          2.184097145332143),
    1557: ([0.5345593166156506, 2.240444615031276e-08, 0.5211927576606868, 0.665285236858189, 1.213749321059256e-08],
           1.3042092966952874),
}


@pytest.mark.parametrize("ket", list(_VANISHING_QUADRATIC_PICKS))
def test_a_vanishing_quadratic_keeps_its_two_zeros(ket):
    psi = near_stratum_kets(ket + 1)[ket]
    assert classify.three_tangle(psi) <= canonical._TANGLE_EPS
    zeros = canonical._det_zeros(psi.reshape(2, 2, 2))
    assert len(zeros) == 2 and np.linalg.norm(zeros[0] - zeros[1]) > canonical._SAME_ROOT
    lambdas, alpha = _VANISHING_QUADRATIC_PICKS[ket]
    params = canonical.acin_decompose(psi).params
    assert np.max(np.abs(params.lambdas - lambdas)) <= 1e-12
    assert abs(params.alpha - alpha) <= 1e-11


# ket 109 of the near-stratum panel (near_strata.py): the eigenvalues
# 1.47e-7 and 2.46e-7 of D^T D (beside 5.56e-2) are within _POLE of each
# other.  Both seed sets fail the index count there (branch 0 sums to 1,
# best residual 5.3e-4); in the turned basis of the pair's plane one axis
# is a pole, and the whole root pass stands
_NEAR_STRATUM_KET = [
    0.25250560523264964 - 0.0801820748899821j, 0.014650115233304464 - 0.23706172963748334j,
    0.022958480745323265 - 0.18032748248582728j, -0.010720423790581569 + 0.03917095575947783j,
    -0.5562704116693962 - 0.4090896809057808j, -0.4018882209055507 + 0.2324369559189251j,
    -0.2584288122289183 + 0.09157037913303752j, 0.20582984034652396 + 0.16981093490875276j,
]


def test_a_ket_beside_a_planted_stratum_decomposes(monkeypatch):
    calls = _count_seed_sets(monkeypatch)
    result = canonical.acin_decompose(np.array(_NEAR_STRATUM_KET))
    assert result.residual <= canonical.RESIDUAL_TOL
    assert calls == []


def test_the_near_stratum_panel_holds_ket_109():
    assert np.array_equal(near_stratum_kets(110)[109], _NEAR_STRATUM_KET)


# the kets of the panel's first 300 on which acin_decompose raises
# DecompositionError: a change may take kets out of this set, and then
# shrinks it, but none may join it
_NEAR_STRATUM_RAISES = {
    3, 5, 12, 45, 59, 60, 68, 98, 106,
    123, 143, 171, 196, 199, 215, 280, 290,
}


def test_near_stratum_raises_do_not_grow():
    raised = set()
    for k, psi in enumerate(near_stratum_kets(300)):
        try:
            canonical.acin_decompose(psi)
        except canonical.DecompositionError:
            raised.add(k)
    assert raised <= _NEAR_STRATUM_RAISES
