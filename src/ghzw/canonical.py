"""Five-term generalized Schmidt normal form of a three-qubit pure state.

Any pure state can be brought by local unitaries to

    l0|000> + l1 e^{i a}|001> + l2|010> + l3|100> + l4|111>

with nonnegative l_i, sum of squares 1, and a in [0, pi].  The
construction: pick a unitary on qubit A, diagonalize the resulting A=1
block by the singular bases of B and C (this kills the |101> and |110>
amplitudes), and demand that the transformed A=0 block vanish at the
|011> slot.  That last demand is one complex equation on the CP^1 of
A-unitaries; its roots are located on a dense grid and polished by a
local search.  Remaining phases are absorbed into local Z rotations.

A generic state admits four such decompositions; the returned one is
the representative with alpha in [0, pi], largest l0, then smallest
alpha.  Correctness is certified by the reconstruction residual, not by
trusting the algebra.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

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


def _forbidden_amp_sq_fn(psi: np.ndarray, branch: int):
    """Objective |would-be 011 amplitude|^2 as a cheap scalar closure.

    Closed form via the eigenvectors of T1^dag T1; pure Python complex
    arithmetic so the refinement loop avoids per-call LAPACK overhead.
    """
    a = [complex(z) for z in psi]
    sgn = 1.0 if branch == 0 else -1.0

    def objective(x) -> float:
        t, p = float(x[0]), float(x[1])
        v0 = math.cos(t)
        v1 = math.sin(t) * cmath.exp(1j * p)
        cv0, cv1 = v0, v1.conjugate()
        # A-side blocks: T1 = v0*A0 + v1*A1, T0 = cv1*A0 - cv0*A1
        t1_00 = v0 * a[0] + v1 * a[4]
        t1_01 = v0 * a[1] + v1 * a[5]
        t1_10 = v0 * a[2] + v1 * a[6]
        t1_11 = v0 * a[3] + v1 * a[7]
        t0_00 = cv1 * a[0] - cv0 * a[4]
        t0_01 = cv1 * a[1] - cv0 * a[5]
        t0_10 = cv1 * a[2] - cv0 * a[6]
        t0_11 = cv1 * a[3] - cv0 * a[7]
        h00 = abs(t1_00) ** 2 + abs(t1_10) ** 2
        h11 = abs(t1_01) ** 2 + abs(t1_11) ** 2
        h01 = t1_00.conjugate() * t1_01 + t1_10.conjugate() * t1_11
        k00 = t1_00.conjugate() * t0_00 + t1_10.conjugate() * t0_10
        k01 = t1_00.conjugate() * t0_01 + t1_10.conjugate() * t0_11
        k10 = t1_01.conjugate() * t0_00 + t1_11.conjugate() * t0_10
        k11 = t1_01.conjugate() * t0_01 + t1_11.conjugate() * t0_11
        delta = 0.5 * (h00 - h11)
        r = math.sqrt(delta * delta + abs(h01) ** 2)
        q0, q1 = h01, sgn * r - delta
        nsq = abs(q0) ** 2 + q1 * q1
        if nsq < 1e-300:
            q0, q1, nsq = 1.0, 0.0, 1.0
        f = q0.conjugate() * (k00 * q0 + k01 * q1) + q1 * (k10 * q0 + k11 * q1)
        f_sq = abs(f) ** 2 / (nsq * nsq)
        mu = 0.5 * (h00 + h11) + sgn * r
        return f_sq / mu if mu > 1e-300 else f_sq

    return objective


def _grid_residuals(psi: np.ndarray, ts: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """|forbidden amplitude| on a (t, p) grid for both branches, vectorized.

    Uses the SVD-free form: q is an eigenvector of T1^dag T1 and the
    residual is |q^dag T1^dag T0 q| / singular value.
    """
    tens = psi.reshape(2, 2, 2)
    tt, pp = np.meshgrid(ts, ps, indexing="ij")
    v0 = np.cos(tt)
    v1 = np.sin(tt) * np.exp(1j * pp)
    t1 = v0[..., None, None] * tens[0] + v1[..., None, None] * tens[1]
    t0 = np.conj(v1)[..., None, None] * tens[0] - np.conj(v0)[..., None, None] * tens[1]
    h = np.swapaxes(t1.conj(), -1, -2) @ t1
    k = np.swapaxes(t1.conj(), -1, -2) @ t0
    h00 = h[..., 0, 0].real
    h11 = h[..., 1, 1].real
    h01 = h[..., 0, 1]
    delta = 0.5 * (h00 - h11)
    r = np.sqrt(delta**2 + np.abs(h01) ** 2)
    out = []
    for sgn in (1.0, -1.0):
        q0 = h01
        q1 = sgn * r - delta
        n = np.sqrt(np.abs(q0) ** 2 + q1**2)
        safe = np.where(n < 1e-150, 1.0, n)
        q0 = np.where(n < 1e-150, 1.0, q0 / safe)
        q1 = np.where(n < 1e-150, 0.0, q1 / safe)
        f = np.abs(
            np.conj(q0) * (k[..., 0, 0] * q0 + k[..., 0, 1] * q1)
            + np.conj(q1) * (k[..., 1, 0] * q0 + k[..., 1, 1] * q1)
        )
        s = np.sqrt(np.maximum(0.5 * (h00 + h11) + sgn * r, 0.0))
        out.append(np.where(s > 1e-150, f / np.where(s == 0.0, 1.0, s), f))
    return np.array(out)


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

    Enumerates the root branches on a (t, p) grid over the A-unitary
    sphere, polishes each local minimum of the forbidden |011>
    amplitude, and returns the valid decomposition with alpha in
    [0, pi], ties broken by larger l0 then smaller alpha.
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
    grids = _grid_residuals(psi, ts, ps)
    results: list[CanonicalResult] = []
    for branch in (0, 1):
        objective = _forbidden_amp_sq_fn(psi, branch)
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
        kept = kept[:48]
        for it, ip in kept:
            res = minimize(
                objective,
                x0=[ts[it], ps[ip]],
                method="Nelder-Mead",
                options={"xatol": 1e-11, "fatol": 1e-26, "maxiter": 1500},
            )
            if res.fun > 1e-20:
                continue
            built = _build_candidate(
                psi, float(res.x[0]), float(np.mod(res.x[1], 2.0 * np.pi)), branch
            )
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
