"""The critical-point search of acin_decompose on the Bloch sphere."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

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
    # branch for a uniform seed set; the seeds clustered there reach it
    result = canonical.acin_decompose(states.haar_random_pure(seed))
    assert abs(result.params.lambda0 - lambda0) < 1e-6


def test_index_count_holds_on_both_branches():
    # Poincare-Hopf on the sphere: on each branch the Hessian-determinant
    # signs of the critical points, the lower branch's zeros counted as
    # minima, sum to the Euler characteristic 2
    failed = []
    for seed in [*range(200), 642, 866]:
        psi = states.haar_random_pure(seed)
        _, branch, index = canonical._critical_points(psi.reshape(2, 2, 2))
        if np.sum(index[branch == 0]) != 2 or np.sum(index[branch == 1]) != 2:
            failed.append(seed)
    assert failed == []


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), frame_seed=st.integers(0, 2**32 - 1))
def test_haar_parameters_do_not_depend_on_the_local_frame(seed, frame_seed):
    psi = states.haar_random_pure(seed)
    assume(classify.three_tangle(psi) > 1e-6)
    frame = unitary_group.rvs(2, size=3, random_state=frame_seed)
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
    frame = unitary_group.rvs(2, size=3, random_state=draw(st.integers(0, 2**32 - 1)))
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
        frame = unitary_group.rvs(2, size=3, random_state=frame_seed)
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
                frames = unitary_group.rvs(2, size=9, random_state=rng).reshape(3, 3, 2, 2)
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
    points = np.concatenate([canonical._RETRY_SEEDS[0], [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
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
    points = canonical._RETRY_SEEDS[0]
    sgn = np.repeat([1.0, -1.0], len(points))
    points = np.concatenate([points, points])
    _assert_same_step(_one_step(monkeypatch, form, points, sgn), _reference_step(form, points, sgn))


@pytest.mark.parametrize("m", [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.48, -0.6, 0.64]])
def test_seed_rings_are_orthonormal_to_the_cone_direction(m):
    m = np.array(m)
    dm = np.array([[0.3, 0.1, -0.2], [0.0, -0.4, 0.1], [0.2, 0.05, 0.25]])
    fibonacci, n_scales, n_dirs = canonical._SEEDS
    seeds = canonical._seeds((None, -dm @ (0.7 * m), dm), fibonacci, n_scales, n_dirs)
    rings = seeds[len(fibonacci) :].reshape(n_scales, n_dirs, 3)
    scales = np.geomspace(0.1, 1e-4, n_scales)
    stretch = np.sqrt(1.0 + scales * scales)[:, None, None]
    # each seed is (m + t u) / sqrt(1 + t^2) for u = cos(phi) b1 + sin(phi) b2
    u = (rings * stretch - m) / scales[:, None, None]
    phi = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
    for dirs in u:
        assert np.max(np.abs(dirs @ m)) <= 1e-10
        assert np.max(np.abs(dirs @ dirs.T - np.cos(phi[:, None] - phi[None]))) <= 1e-10
