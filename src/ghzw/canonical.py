"""Five-term generalized Schmidt normal form of a three-qubit pure state.

Any pure state can be brought by local unitaries to

    l0|000> + l1 e^{i a}|001> + l2|010> + l3|100> + l4|111>

with nonnegative l_i, sum of squares 1, and a in [0, pi].  The
construction: pick a unitary on qubit A, diagonalize the resulting A=1
block by the singular bases of B and C (this kills the |101> and |110>
amplitudes), and demand that the transformed A=0 block vanish at the
|011> slot.  That last demand is one complex equation on the CP^1 of
A-unitaries; its roots are located on a dense grid and polished all at
once by Gauss-Newton on the complex residual.  Remaining phases are
absorbed into local Z rotations.

A generic state admits four such decompositions; the returned one is
the representative with alpha in [0, pi], largest l0, then smallest
alpha.  Correctness is certified by the reconstruction residual, not by
trusting the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classify, qcore, states

RESIDUAL_TOL = 1e-8

_AMP_EPS = 1e-10
_ALPHA_SLACK = 1e-9


@dataclass(frozen=True)
class LocalUnitaries:
    u_a: np.ndarray
    u_b: np.ndarray
    u_c: np.ndarray

    def __post_init__(self):
        for u in (self.u_a, self.u_b, self.u_c):
            if np.max(np.abs(u.conj().T @ u - np.eye(2))) > 1e-10:
                raise ValueError("local unitaries must be unitary within 1e-10")

    def apply(self, psi: np.ndarray) -> np.ndarray:
        t = np.einsum(
            "ax,by,cz,xyz->abc", self.u_a, self.u_b, self.u_c, psi.reshape(2, 2, 2)
        )
        return t.reshape(8)


@dataclass(frozen=True)
class CanonicalResult:
    params: states.AcinParams
    unitaries: LocalUnitaries
    residual: float


class DecompositionError(RuntimeError):
    """Raised when no root branch reaches the residual tolerance."""


def _blocks(psi: np.ndarray, t: float, p: float):
    """A-side blocks after the A-unitary with second row (cos t, sin t e^{ip})."""
    tens = psi.reshape(2, 2, 2)
    v0, v1 = np.cos(t), np.sin(t) * np.exp(1j * p)
    u_a = np.array([[np.conj(v1), -np.conj(v0)], [v0, v1]])
    t0 = u_a[0, 0] * tens[0] + u_a[0, 1] * tens[1]
    t1 = u_a[1, 0] * tens[0] + u_a[1, 1] * tens[1]
    return u_a, t0, t1


def _residual(tens: np.ndarray, t, p, sgn):
    """Complex forbidden |011> amplitude at A-angles (t, p), elementwise.

    q is the right singular vector of T1 on branch sgn (+1: the larger
    singular value s, -1: the smaller) and u = T1 q / s its left partner,
    so the amplitude u^dag T0 q equals q^dag (T1^dag T0) q / (|q|^2 s),
    which does not depend on the phase of q.  t, p and sgn broadcast.
    """
    v0 = np.cos(t)
    v1 = np.sin(t) * np.exp(1j * p)
    lead = (4,) + (1,) * v1.ndim
    a, b = tens[0].reshape(lead), tens[1].reshape(lead)
    # entries 00, 01, 10, 11 of the A-side blocks
    # T1 = v0*A0 + v1*A1 and T0 = conj(v1)*A0 - v0*A1
    x = v0 * a + v1 * b
    y = np.conj(v1) * a - v0 * b
    cx = np.conj(x)
    # H = T1^dag T1 and K = T1^dag T0
    h00 = (cx[0] * x[0] + cx[2] * x[2]).real
    h11 = (cx[1] * x[1] + cx[3] * x[3]).real
    h01 = cx[0] * x[1] + cx[2] * x[3]
    k00 = cx[0] * y[0] + cx[2] * y[2]
    k01 = cx[0] * y[1] + cx[2] * y[3]
    k10 = cx[1] * y[0] + cx[3] * y[2]
    k11 = cx[1] * y[1] + cx[3] * y[3]
    delta = 0.5 * (h00 - h11)
    m = (h01 * np.conj(h01)).real
    rad = np.sqrt(delta * delta + m)
    # the eigenvector of H for (h00 + h11)/2 + sgn*rad is (h01, sgn*rad - delta)
    # or (sgn*rad + delta, conj(h01)); the one free of cancellation has the
    # real entry sgn*e, e = rad + |delta|, and |q|^2 = |h01|^2 + e^2
    e = rad + np.abs(delta)
    nsq = m + e * e
    m = np.where(nsq < 1e-300, 1.0, m)  # H proportional to 1: take q = (1, 0)
    nsq = np.where(nsq < 1e-300, 1.0, nsq)
    # q^dag K q / |q|^2 = k11 + (|q0|^2 (k00 - k11) + sgn*e*(conj(h01) k01 + h01 k10)) / |q|^2
    q0_sq = np.where(sgn * delta > 0.0, e * e, m)
    f = k11 + (q0_sq * (k00 - k11) + sgn * e * (np.conj(h01) * k01 + h01 * k10)) / nsq
    s = np.sqrt(np.maximum(0.5 * (h00 + h11) + sgn * rad, 0.0))
    return f / np.where(s > 1e-150, s, 1.0)


_FD_STEP = 1e-7  # forward-difference step of the Jacobian
_MAX_MOVE = 0.05  # longest Gauss-Newton step, in radians of (t, p)
_MIN_MOVE = 1e-9  # a seed whose step radius shrinks below this stops
_POLISH_ITERS = 30
_DONE_SQ = 1e-30  # |r|^2 at which a seed stops moving
_ROOT_SQ = 1e-20  # |r|^2 accepted as a root
_SIGNS = np.array([1.0, -1.0])  # branch 0: the larger singular value of T1


def _linearize(tens: np.ndarray, t: np.ndarray, p: np.ndarray, sgn: np.ndarray):
    """Residual r at each point and its 2x2 real Jacobian d(Re r, Im r)/d(t, p).

    Forward differences, all three evaluations in one kernel call.
    """
    n = t.size
    r = _residual(
        tens,
        np.concatenate([t, t + _FD_STEP, t]),
        np.concatenate([p, p, p + _FD_STEP]),
        np.concatenate([sgn, sgn, sgn]),
    )
    d_t, d_p = (r[n : 2 * n] - r[:n]) / _FD_STEP, (r[2 * n :] - r[:n]) / _FD_STEP
    jac = np.stack([np.stack([d_t.real, d_p.real], -1), np.stack([d_t.imag, d_p.imag], -1)], -2)
    return r[:n], jac


def _polish(tens: np.ndarray, t: np.ndarray, p: np.ndarray, sgn: np.ndarray):
    """Gauss-Newton on (Re r, Im r) from every seed at once.

    The step comes from the pseudo-inverse of the 2x2 Jacobian, so the
    rank-one Jacobians on the flat root ridges of degenerate states still
    give a step onto the ridge.  Each seed clamps its step to a radius
    that starts at _MAX_MOVE.  A step that makes |r| worse is halved
    once; if that is still worse the seed stays put and quarters its
    radius, and a step taken doubles it, up to _MAX_MOVE.  A seed stops
    once |r|^2 <= _DONE_SQ or its radius falls below _MIN_MOVE.  Returns
    the polished (t, p, |r|^2).
    """
    t, p = t.copy(), p.copy()
    r, jac = _linearize(tens, t, p, sgn)
    radius = np.full(t.shape, _MAX_MOVE)
    for _ in range(_POLISH_ITERS):
        idx = np.flatnonzero((radius >= _MIN_MOVE) & (np.abs(r) ** 2 > _DONE_SQ))
        if idx.size == 0:
            break
        n, ri = idx.size, r[idx]
        rhs = np.stack([ri.real, ri.imag], -1)[..., None]
        step = -(np.linalg.pinv(jac[idx]) @ rhs)[..., 0]
        length = np.hypot(step[:, 0], step[:, 1])
        step *= np.minimum(1.0, radius[idx] / np.maximum(length, 1e-300))[:, None]
        # the full step and its halving, evaluated together
        trial = np.concatenate([step, 0.5 * step])
        at = np.concatenate([idx, idx])
        r_try, jac_try = _linearize(tens, t[at] + trial[:, 0], p[at] + trial[:, 1], sgn[at])
        full = np.abs(r_try[:n]) <= np.abs(ri)
        moved = full | (np.abs(r_try[n:]) <= np.abs(ri))
        pick = np.where(full, 0, n) + np.arange(n)
        k, pk = idx[moved], pick[moved]
        t[k] += trial[pk, 0]
        p[k] += trial[pk, 1]
        r[k], jac[k] = r_try[pk], jac_try[pk]
        radius[idx] = np.where(moved, np.minimum(2.0 * radius[idx], _MAX_MOVE), 0.25 * radius[idx])
    return t, p, np.abs(r) ** 2


def _roots(tens: np.ndarray, t: np.ndarray, p: np.ndarray, branch: np.ndarray):
    """Polish seeds on their branches; the distinct roots reached, in seed order."""
    t, p, r_sq = _polish(tens, t, p, _SIGNS[branch])
    p = np.mod(p, 2.0 * np.pi)
    hit = np.flatnonzero(r_sq <= _ROOT_SQ)
    keys = np.round(np.stack([t[hit], p[hit], branch[hit]], axis=1), 8)
    _, first = np.unique(keys, axis=0, return_index=True)
    keep = hit[np.sort(first)]
    return t[keep], p[keep], branch[keep]


def _local_minima(g: np.ndarray) -> np.ndarray:
    """Boolean mask of grid local minima; the p axis is periodic."""
    mask = np.ones_like(g, dtype=bool)
    for shift, axis in [(1, 0), (-1, 0), (1, 1), (-1, 1)]:
        shifted = np.roll(g, shift, axis=axis)
        if axis == 0:  # t axis does not wrap
            if shift == 1:
                shifted[0, :] = np.inf
            else:
                shifted[-1, :] = np.inf
        mask &= g <= shifted
    return mask


# phase-equation rows over x = (a0, a1, b0, b1, c0, c1): the local Z
# rotations add a_qA + b_qB + c_qC to the amplitude phase at each slot
_PHASE_ROWS = {
    (0, 0, 0): np.array([1.0, 0, 1, 0, 1, 0]),
    (0, 1, 0): np.array([1.0, 0, 0, 1, 1, 0]),
    (1, 0, 0): np.array([0.0, 1, 1, 0, 1, 0]),
    (1, 1, 1): np.array([0.0, 1, 0, 1, 0, 1]),
    (0, 0, 1): np.array([1.0, 0, 1, 0, 0, 1]),
}


def _phase_fix(d: np.ndarray):
    """Z rotations making the 000/010/100/111 amplitudes real nonnegative.

    The leftover phase on |001> is the canonical-form alpha; when some
    pinned amplitude vanishes the spare phase freedom clears alpha too.
    """
    pinned = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
    sig = [slot for slot in pinned if abs(d[slot]) > _AMP_EPS]
    rows = [_PHASE_ROWS[slot] for slot in sig]
    targets = [-np.angle(d[slot]) for slot in sig]
    # any subset of the pinned rows is linearly independent, and stays so
    # with the |001> row added unless all four pinned rows are present;
    # with spare freedom the |001> phase is cleared too
    if abs(d[0, 0, 1]) > _AMP_EPS and len(sig) < 4:
        rows = rows + [_PHASE_ROWS[(0, 0, 1)]]
        targets = targets + [-np.angle(d[0, 0, 1])]
    if rows:
        x, *_ = np.linalg.lstsq(np.array(rows), np.array(targets), rcond=None)
    else:
        x = np.zeros(6)
    d_a = np.diag(np.exp(1j * x[0:2]))
    d_b = np.diag(np.exp(1j * x[2:4]))
    d_c = np.diag(np.exp(1j * x[4:6]))
    fixed = np.einsum("ax,by,cz,xyz->abc", d_a, d_b, d_c, d)
    alpha = np.angle(fixed[0, 0, 1]) if abs(fixed[0, 0, 1]) > _AMP_EPS else 0.0
    return fixed, float(alpha), (d_a, d_b, d_c)


def _build_candidate(psi: np.ndarray, t: float, p: float, branch: int) -> CanonicalResult | None:
    u_a, t0, t1 = _blocks(psi, t, p)
    left, sing, right_h = np.linalg.svd(t1)
    q = right_h.conj().T
    order = [1 - branch, branch]
    u_b = left[:, order].conj().T
    u_c = q[:, order].T
    d = np.einsum("by,cz,ayz->abc", u_b, u_c, np.stack([t0, t1]))
    return _candidate_result(psi, d, u_a, u_b, u_c)


def _candidate_result(psi: np.ndarray, d: np.ndarray, u_a, u_b, u_c) -> CanonicalResult | None:
    """Phase-fix d = (u_a x u_b x u_c) psi and read off a certified candidate.

    None when alpha falls outside [0, pi] or the reconstruction residual
    exceeds RESIDUAL_TOL.
    """
    fixed, alpha, (d_a, d_b, d_c) = _phase_fix(d)
    amps = fixed.reshape(8)[list(states.ACIN_SUPPORT)]
    lams = np.hypot(amps.real, amps.imag)  # rounds as scalar abs(); np.abs may not
    alpha = 0.0 if lams[1] <= _AMP_EPS else float(np.mod(alpha, 2.0 * np.pi))
    if alpha > 2.0 * np.pi - _ALPHA_SLACK:
        alpha = 0.0
    if alpha > np.pi + _ALPHA_SLACK:
        return None
    unitaries = LocalUnitaries(d_a @ u_a, d_b @ u_b, d_c @ u_c)
    norm = np.linalg.norm(lams)
    if norm == 0.0:
        return None
    lams = np.clip(lams / norm, 0.0, None)
    lams = lams / np.linalg.norm(lams)
    try:
        params = states.AcinParams(*lams, alpha=min(alpha, np.pi))
    except ValueError:
        return None
    residual = float(np.linalg.norm(unitaries.apply(psi) - states.make_acin(params)))
    if residual > RESIDUAL_TOL:
        return None
    return CanonicalResult(params=params, unitaries=unitaries, residual=residual)


_PRODUCT_EIG_TOL = 1e-15


def _solo_unitary(u: np.ndarray) -> np.ndarray:
    """Unitary whose first row maps the single-qubit ket u to |0>."""
    return np.array([[np.conj(u[0]), np.conj(u[1])], [-u[1], u[0]]])


def _biseparable_candidates(psi: np.ndarray, product_slots) -> list:
    """Direct construction for states product across some cut.

    The pair state's Schmidt values (s0 >= s1) give the max-l0
    representative: the pair block becomes [[s0-s1, e], [e, 0]] with
    e = sqrt(s0*s1), and the solo qubit is rotated to |0>.
    """
    tens = psi.reshape(2, 2, 2)
    out = []
    for slot in product_slots:
        m = qcore._solo_pair(psi, slot)
        _, vecs = np.linalg.eigh(m @ m.conj().T)
        solo = vecs[:, -1]
        chi = np.tensordot(solo.conj(), tens, axes=(0, slot))
        left, sing, right_h = np.linalg.svd(chi)
        s0, s1 = sing
        lam0, e = s0 - s1, np.sqrt(s0 * s1)
        target = np.array([[lam0, e], [e, 0.0]])
        t_left, _, t_right_h = np.linalg.svd(target)
        w1 = t_left @ left.conj().T
        w2 = (right_h.conj().T @ t_right_h).T
        units = [None, None, None]
        units[slot] = _solo_unitary(solo)
        pair = [s for s in range(3) if s != slot]
        units[pair[0]], units[pair[1]] = w1, w2
        d = np.einsum("ax,by,cz,xyz->abc", *units, tens)
        built = _candidate_result(psi, d, *units)
        if built is not None:
            out.append(built)
    return out


def _separated(cand, grid_p: int, dt: int, dp: int, cap: int) -> list:
    """Greedy subset of grid candidates at least (dt, dp) cells apart."""
    kept = []
    for it, ip in cand:
        close = any(
            abs(it - jt) <= dt and min(abs(ip - jp), grid_p - abs(ip - jp)) <= dp
            for jt, jp in kept
        )
        if not close:
            kept.append((int(it), int(ip)))
        if len(kept) >= cap:
            break
    return kept


def acin_decompose(psi, grid_t: int = 96, grid_p: int = 192) -> CanonicalResult:
    """Bring a pure state to the five-term canonical form.

    Evaluates the forbidden |011> amplitude of both singular-value
    branches on a (t, p) grid over the A-unitary sphere, takes up to 48
    well-separated local minima per branch as seeds, and polishes them
    together by batched Gauss-Newton; every root found also seeds the
    other branch.  Returns the valid decomposition with alpha in [0, pi],
    ties broken by larger l0 then smaller alpha.
    """
    psi = states.check_pure(psi)
    spectra = qcore._reduced_spectra(psi)
    product_slots = [slot for slot in range(3) if spectra[slot, 1] <= _PRODUCT_EIG_TOL]
    if product_slots:
        special = _biseparable_candidates(psi, product_slots)
        if special:
            special.sort(key=lambda r: (-r.params.lambda0, r.params.alpha))
            return special[0]
    ts = np.linspace(1e-6, np.pi / 2 - 1e-6, grid_t)
    ps = np.linspace(0.0, 2.0 * np.pi, grid_p, endpoint=False)
    tens = psi.reshape(2, 2, 2)
    grids = np.abs(_residual(tens, ts[:, None], ps[None, :], _SIGNS[:, None, None]))
    seeds = []  # (it, ip, branch), branch 0 first
    for branch in (0, 1):
        g = grids[branch]
        cand = np.argwhere(_local_minima(g) & (g < 0.1))
        # flat valleys (degenerate states) mark whole ridges as minima;
        # keep the best few well-separated candidates
        cand = sorted(cand, key=lambda idx: g[idx[0], idx[1]])
        # two diversity scales: a coarse well-separated subset samples
        # flat ridges of degenerate states across their whole length,
        # while a fine subset keeps distinct roots that sit only a few
        # cells apart (they must not be collapsed into one candidate)
        kept = _separated(cand, grid_p, 4, 8, 24)
        for extra in _separated(cand, grid_p, 1, 2, 32):
            if extra not in kept:
                kept.append(extra)
        seeds += [(it, ip, branch) for it, ip in kept[:48]]
    results: list[CanonicalResult] = []
    if seeds:
        it, ip, branch = np.array(seeds).T
        t, p, branch = _roots(tens, ts[it], ps[ip], branch)
        # a root beside a crossing of the two singular values of T1 can hide
        # the neighbouring root of the other branch from the grid: seed the
        # other branch at every root found
        t2, p2, branch2 = _roots(tens, t, p, 1 - branch)
        for tk, pk, bk in zip(np.append(t, t2), np.append(p, p2), np.append(branch, branch2)):
            built = _build_candidate(psi, float(tk), float(pk), int(bk))
            if built is None:
                continue
            if any(
                np.allclose(built.params.lambdas, r.params.lambdas, atol=1e-7)
                and abs(built.params.alpha - r.params.alpha) < 1e-6
                for r in results
            ):
                continue
            results.append(built)
    if not results:
        raise DecompositionError(
            "no canonical decomposition reached residual tolerance "
            f"{RESIDUAL_TOL}; this indicates a bug, the form is universal"
        )
    results.sort(key=lambda r: (-r.params.lambda0, r.params.alpha))
    return results[0]


def local_unitary_invariants(psi) -> tuple[np.ndarray, float]:
    """Fingerprint preserved by local unitaries.

    Returns the three single-qubit reduced spectra (rows ordered A, B,
    C, each descending) and the three-tangle.
    """
    psi = states.check_pure(psi)
    return qcore._reduced_spectra(psi), classify._three_tangle(psi)
