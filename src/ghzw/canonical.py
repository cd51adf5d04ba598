"""Five-term generalized Schmidt normal form of a three-qubit pure state.

Any pure state can be brought by local unitaries to

    l0|000> + l1 e^{i a}|001> + l2|010> + l3|100> + l4|111>

with nonnegative l_i, sum of squares 1, and a in [0, pi].  The
construction: pick a unitary on qubit A with second row v, diagonalize
the resulting A=1 block T1 by the singular bases of B and C (this kills
the |101> and |110> amplitudes), and demand that the transformed A=0
block vanish at the |011> slot.  T1^dag T1 is affine in the Bloch vector
n of v, so the squared singular values of T1 are
sigma^2 = c0 + g.n +- |D n + d|, and the |011> demand holds exactly at
their critical points on the sphere (the stationary points of Hilling
and Sudbery, J. Math. Phys. 51, 072102 (2010)).  Newton with the
closed-form gradient and Hessian finds them, and a Poincare-Hopf index
count checks that none is missing.  Remaining phases are absorbed into
local Z rotations.

A generic state admits four such decompositions; the returned one is
the representative with alpha in [0, pi], largest l0, then smallest
alpha, then largest l1, l2, l3 and l4, each compared within _TIE_TOL.
Correctness is certified by the reconstruction residual, not by
trusting the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classify, qcore, states

RESIDUAL_TOL = 1e-8

_AMP_EPS = 1e-10
_ALPHA_SLACK = 1e-9
_TIE_TOL = 1e-9  # keys of two representatives this close tie
_UNITARY_TOL = 1e-10  # largest entry of |u^dag u - 1| of a local unitary


@dataclass(frozen=True)
class LocalUnitaries:
    u_a: np.ndarray
    u_b: np.ndarray
    u_c: np.ndarray

    def __post_init__(self):
        for u in (self.u_a, self.u_b, self.u_c):
            if np.max(np.abs(u.conj().T @ u - np.eye(2))) > _UNITARY_TOL:
                raise ValueError(f"local unitaries must be unitary within {_UNITARY_TOL}")

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


# the Pauli basis (1, x, y, z): a Hermitian 2x2 X is sum_k tr(X P_k) P_k / 2
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_SEEDS = (64, 4, 12)  # Fibonacci points, then cone-ring scales and directions
_RETRY_SEEDS = (512, 8, 24)
_NEWTON_STEPS = 16
_MAX_STEP = 0.5  # longest Newton move, as a chord of the unit sphere
_CONE_EPS = 1e-12  # floor of |D n + d| beside the cone point
_ROOT_TOL = 1e-10  # a Newton step this short has landed on a critical point
_SAME_ROOT = 1e-6  # Bloch-vector distance within which two roots are one
_SINGULAR = 1e-8  # |det| / |H|^2 at or below which a tangent Hessian H is singular
_TANGLE_EPS = 1e-12  # three-tangle below which det M(v) = 0 has a double root


def _bloch_form(tens: np.ndarray):
    """(g, d, D) with T1^dag T1 = (c0 + g.n) 1 + (D n + d).sigma.

    n is the Bloch vector (sin 2t cos p, sin 2t sin p, cos 2t) of the
    A-row v.  With Pij = Ai^dag Aj, T1^dag T1 = H0 + sum_k n_k H_k for
    H0 = (P00 + P11)/2, Hx = (P01 + P10)/2, Hy = i(P01 - P10)/2 and
    Hz = (P00 - P11)/2.  The constant c0 moves no critical point.
    """
    a0, a1 = tens
    p00, p11, p01 = a0.conj().T @ a0, a1.conj().T @ a1, a0.conj().T @ a1
    ops = np.stack([p00 + p11, p01 + p01.conj().T, 1j * (p01 - p01.conj().T), p00 - p11])
    comp = np.einsum("kij,lji->kl", ops, _PAULI).real / 4.0
    return comp[1:, 0], comp[0, 1:], comp[1:, 1:].T


def _tangent_basis(n: np.ndarray) -> np.ndarray:
    """Orthonormal tangent bases (N, 3, 2) at the unit rows n.

    The polar and azimuthal unit vectors; at the poles, where the azimuth
    is arbitrary, they are still an orthonormal pair.
    """
    phi = np.arctan2(n[:, 1], n[:, 0])
    cos, sin = np.cos(phi), np.sin(phi)
    polar = np.stack([n[:, 2] * cos, n[:, 2] * sin, -np.hypot(n[:, 0], n[:, 1])], axis=1)
    return np.stack([polar, np.stack([-sin, cos, np.zeros_like(phi)], axis=1)], axis=2)


def _newton(form, n: np.ndarray, sgn: np.ndarray):
    """Newton on the sphere for sigma^2 = c0 + g.n + sgn |D n + d|, all seeds at once.

    With w = D n + d and e = w / |w| the gradient is g + sgn D^T e and the
    Hessian sgn D^T (1 - e e^T) D / |w|; on the sphere the tangent Hessian
    loses (n . gradient).  Where that Hessian is singular (the flat
    critical rings of symmetric states) the step uses its pseudo-inverse,
    H / |H|^2 for rank one, which still steps onto the ring.  A seed stops
    once its step is within _ROOT_TOL, which by quadratic convergence
    leaves it on its root to about the square of that.  Returns the
    points, the length of each one's last step and its index: the sign of
    the tangent-Hessian determinant, 0 where that Hessian is singular.
    """
    g, d, dm = form
    n = n.copy()
    length, index = np.full(len(n), np.inf), np.zeros(len(n))
    for _ in range(_NEWTON_STEPS):
        live = np.flatnonzero(length > _ROOT_TOL)
        x, s = n[live], sgn[live, None]
        w = x @ dm.T + d
        r = np.maximum(np.linalg.norm(w, axis=1, keepdims=True), _CONE_EPS)
        basis = _tangent_basis(x)
        db = dm @ basis
        de = np.einsum("nki,nk->ni", db, w / r)
        grad = np.einsum("nki,k->ni", basis, g) + s * de
        radial = x @ g + s[:, 0] * np.sum((w - d) * w, axis=1) / r[:, 0]
        hess = s[:, :, None] * (db.transpose(0, 2, 1) @ db - de[:, :, None] * de[:, None, :]) / r[:, :, None]
        a, b, c = hess[:, 0, 0] - radial, hess[:, 0, 1], hess[:, 1, 1] - radial
        det, size = a * c - b * b, a * a + 2.0 * b * b + c * c
        flat = np.abs(det) <= _SINGULAR * size
        index[live] = np.where(flat, 0.0, np.sign(det))
        g0, g1 = grad[:, 0], grad[:, 1]
        pinv_step = np.stack([a * g0 + b * g1, b * g0 + c * g1], 1) / np.maximum(size, 1e-300)[:, None]
        newton_step = np.stack([c * g0 - b * g1, a * g1 - b * g0], 1) / np.where(flat, 1.0, det)[:, None]
        move = -np.einsum("nki,ni->nk", basis, np.where(flat[:, None], pinv_step, newton_step))
        length[live] = np.linalg.norm(move, axis=1)
        x = x + move * np.minimum(1.0, _MAX_STEP / np.maximum(length[live], 1e-300))[:, None]
        n[live] = x / np.linalg.norm(x, axis=1, keepdims=True)
    return n, length, index


def _det_zeros(tens: np.ndarray):
    """Bloch vectors where det(v0 A0 + v1 A1) = 0, and whether the root is double.

    det is the binary quadratic qa v0^2 + qb v0 v1 + qc v1^2, whose
    discriminant is Cayley's hyperdeterminant (the three-tangle is 4|disc|).
    Its roots (qc : q) and (q : qa), with q = -(qb + sqrt(disc)) / 2 on the
    sign free of cancellation, are the zeros of the lower branch (Acin et
    al.).
    """
    a0, a1 = tens
    qa, qc = np.linalg.det(a0), np.linalg.det(a1)
    qb = a0[0, 0] * a1[1, 1] + a1[0, 0] * a0[1, 1] - a0[0, 1] * a1[1, 0] - a1[0, 1] * a0[1, 0]
    disc = qb * qb - 4.0 * qa * qc
    root = np.sqrt(complex(disc))
    q = -(qb + root) / 2.0 if (np.conj(qb) * root).real >= 0.0 else -(qb - root) / 2.0
    v = np.array([(qc, q), (q, qa)], dtype=complex)
    v = v[np.linalg.norm(v, axis=1) > 1e-150]
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    cross = np.conj(v[:, 0]) * v[:, 1]
    bloch = np.stack([2.0 * cross.real, 2.0 * cross.imag, np.abs(v[:, 0]) ** 2 - np.abs(v[:, 1]) ** 2], 1)
    return bloch, 4.0 * abs(disc) <= _TANGLE_EPS


def _seeds(form, n_fib: int, n_scales: int, n_dirs: int) -> np.ndarray:
    """Fibonacci-spiral points plus rings around the cone direction n*/|n*|.

    n* = -D^{-1} d is where the branches touch.  When it lies near the
    sphere, roots of both branches crowd beside it, closer than a uniform
    seed set resolves.
    """
    _, d, dm = form
    i = np.arange(n_fib) + 0.5
    z, phi = 1.0 - 2.0 * i / n_fib, np.pi * (1.0 + np.sqrt(5.0)) * i
    rho = np.sqrt(1.0 - z * z)
    seeds = [np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)]
    # a singular D has no single cone point, and n* = 0 no direction
    m = -np.linalg.solve(dm, d) if abs(np.linalg.det(dm)) > 1e-12 else np.zeros(3)
    if np.linalg.norm(m) > 0.0:
        m /= np.linalg.norm(m)
        b1, b2 = _tangent_basis(m[None])[0].T
        phi = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
        ring = np.outer(np.cos(phi), b1) + np.outer(np.sin(phi), b2)
        pts = (m + np.geomspace(0.1, 1e-4, n_scales)[:, None, None] * ring).reshape(-1, 3)
        seeds.append(pts / np.linalg.norm(pts, axis=1, keepdims=True))
    return np.concatenate(seeds)


def _critical_points(tens: np.ndarray):
    """Critical points (Bloch vectors, branches, indices) of sigma_+^2 and sigma_-^2.

    Branch 0 is sigma_+^2, branch 1 sigma_-^2.  The lower branch's zeros
    come first, as minima (index +1); every other point carries the sign
    of its tangent-Hessian determinant, 0 where that Hessian is singular.
    The zeros also seed both branches: on the axis of a symmetric state a
    zero is a critical point of the upper branch too, ringed by critical
    points whose basins the other seeds fall into.  By Poincare-Hopf the
    indices on each branch sum to 2 on a Morse input, one with no singular
    tangent Hessian at a root and no double root of det M(v) = 0 (a
    three-tangle not about 0); when the sum fails there, the search runs
    once more from a denser seed set.
    """
    form = _bloch_form(tens)
    zeros, double = _det_zeros(tens)
    for counts in (_SEEDS, _RETRY_SEEDS):
        seeds = np.concatenate([zeros, _seeds(form, *counts)])
        sgn = np.repeat([1.0, -1.0], len(seeds))
        n, last, index = _newton(form, np.concatenate([seeds, seeds]), sgn)
        found = last <= _ROOT_TOL
        n = np.concatenate([zeros, n[found]])
        branch = np.concatenate([np.ones(len(zeros), dtype=int), (sgn[found] < 0).astype(int)])
        index = np.concatenate([np.ones(len(zeros)), index[found]])
        # most roots are reached from many seeds: drop exact repeats
        # cheaply, then compare the few left pairwise
        _, first = np.unique(np.column_stack([np.round(n / _SAME_ROOT), branch]), axis=0, return_index=True)
        n, branch, index = n[np.sort(first)], branch[np.sort(first)], index[np.sort(first)]
        near = np.linalg.norm(n[:, None] - n[None], axis=2) <= _SAME_ROOT
        keep = ~np.tril(near & (branch[:, None] == branch[None]), -1).any(axis=1)
        n, branch, index = n[keep], branch[keep], index[keep]
        counted = all(np.sum(index[branch == b]) == 2 for b in (0, 1))
        if counted or double or np.any(index == 0):
            break
    return n, branch, index


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
    alpha = float(np.mod(alpha, 2.0 * np.pi))
    if alpha > 2.0 * np.pi - _ALPHA_SLACK:
        alpha = 0.0
    if alpha > np.pi + _ALPHA_SLACK:
        return None
    unitaries = LocalUnitaries(d_a @ u_a, d_b @ u_b, d_c @ u_c)
    norm = np.linalg.norm(lams)
    if norm == 0.0:
        return None
    lams = lams / norm
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
        m = psi[qcore._SOLO_INDEX[slot]]
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


def _pick(results: list) -> CanonicalResult:
    """The representative that comes first by the order in the module docstring.

    Keys within _TIE_TOL tie, so rounding cannot choose between
    representatives that tie, as all do at l0 = 0.
    """
    keys = np.array([[-r.params.lambda0, r.params.alpha, *-r.params.lambdas[1:]] for r in results])
    live = np.arange(len(results))
    for col in keys.T:
        live = live[col[live] <= col[live].min() + _TIE_TOL]
    return results[live[0]]


def acin_decompose(psi) -> CanonicalResult:
    """Bring a pure state to the five-term canonical form.

    States product across a cut take a direct construction.  Otherwise
    every critical point of both singular-value branches on the A-row
    sphere (see :func:`_critical_points`) is built into a candidate and
    checked by its reconstruction residual.  Returns the valid
    decomposition with alpha in [0, pi] that comes first by larger l0,
    then smaller alpha, then larger l1, l2, l3 and l4 (see :func:`_pick`).
    """
    psi = states.check_pure(psi)
    spectra = qcore._reduced_spectra(psi[None])[0]
    product_slots = [slot for slot in range(3) if spectra[slot, 1] <= _PRODUCT_EIG_TOL]
    if product_slots:
        special = _biseparable_candidates(psi, product_slots)
        if special:
            return _pick(special)
    n, branch, _ = _critical_points(psi.reshape(2, 2, 2))
    t = 0.5 * np.arccos(np.clip(n[:, 2], -1.0, 1.0))
    p = np.arctan2(n[:, 1], n[:, 0])
    built = (_build_candidate(psi, float(tk), float(pk), int(bk)) for tk, pk, bk in zip(t, p, branch))
    results = [r for r in built if r is not None]
    if not results:
        raise DecompositionError(
            "no canonical decomposition reached residual tolerance "
            f"{RESIDUAL_TOL}; this indicates a bug, the form is universal"
        )
    return _pick(results)


def local_unitary_invariants(psi) -> tuple[np.ndarray, float]:
    """Fingerprint preserved by local unitaries.

    Returns the three single-qubit reduced spectra (rows ordered A, B,
    C, each descending) and the three-tangle.
    """
    kets = states.check_pure(psi)[None]
    return qcore._reduced_spectra(kets)[0], float(classify._three_tangle(kets)[0])
