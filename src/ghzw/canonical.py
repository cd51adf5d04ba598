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

Newton starts from the roots of one polynomial (after Tamaryan, Wei and
Park, Phys. Rev. A 80, 052315 (2009)).  With rho = +-|D n + d| and a
multiplier nu, both branches are critical where (nu - D^T D) n =
rho g + D^T d.  In the eigenbasis of D^T D (eigenvalues s_i; g_i and e_i
the components of g and D^T d; delta = |d|^2) take P = prod(nu - s_i),
P_i = P / (nu - s_i), B = P + sum g_i^2 P_i, C = sum g_i e_i P_i and
M = (nu + delta) B + sum e_i^2 P_i + sum_k (e x g)_k^2 (nu - s_k), and with
A = (nu + delta) P + sum e_i^2 P_i write a = A / P, b = B / P, c = C / P
(so M = P (ab - c^2)).  rho^2 = |D n + d|^2 reads rho^2 b = a and |n| = 1
reads rho^2 b' + 2 rho c' + a' = 0; eliminating rho leaves the monic
G12 = (M'P - MP')^2 + 4 (C'P - CP') (CM' - C'M) = 0 of degree 12.  Each
root gives rho = -(ab)' / (2 b c'), its branch sign(rho), and then
n_i = (rho g_i + e_i) / (nu - s_i).  A real root is accounted when this n,
before it is normalised, lies on the unit sphere within _ON_SPHERE: it
then sits on its critical point.  Where (g_i, e_i) vanishes (a pole),
critical points can sit at nu = s_i itself with n_i free, where no root
of G12 gives them: the hard case of the trust-region subproblem (More and
Sorensen, SIAM J. Sci. Stat. Comput. 4, 553 (1983); Gander, Golub and von
Matt, Linear Algebra Appl. 114/115, 815 (1989)).  There n_j = (rho g_j +
e_j) / (s_i - s_j) for j != i, and rho^2 = |D n + d|^2 on |n| = 1 reads
rho^2 b(s_i) = a(s_i) with the i terms left out; each rho = +-sqrt(a / b)
with sum_j n_j^2 <= 1 gives n_i = +-sqrt(1 - sum_j n_j^2) on branch
sign(rho).  These pole points, at most four per pole, lie on the sphere
as built and are accounted.  Two s_i that nearly meet are one in a turned
basis of their plane, where one axis is a pole (:func:`_root_seeds`).  A
kink circle (D of rank one, d in its range) and an exact pole plane (two
equal s_i, their (g_i, e_i) 0) are read in closed form (:func:`_kink_points`,
:func:`_ring_seeds`).  Elsewhere three stages run, each only where the one
before fails: Newton from the accounted points alone, where each must reach
a point of its own and, with the zeros of det T1 (one where the root is
double), pass the index count (a pole point that reaches a zero or an
accounted root's point is that point, and a lower-branch row left creeping
onto a double zero stands for it); from every root, the pole points and the
zeros, under the same count; from the seed set (:func:`_seeds`), which
always stands.

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
from .qcore import _frozen

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
        _check_unitary(np.array([self.u_a, self.u_b, self.u_c]))

    def apply(self, psi) -> np.ndarray:
        return _apply(np.array([[self.u_a, self.u_b, self.u_c]]), states.check_pure(psi))[0]


@dataclass(frozen=True)
class CanonicalResult:
    params: states.AcinParams
    unitaries: LocalUnitaries
    residual: float


class DecompositionError(RuntimeError):
    """Raised when no root branch reaches the residual tolerance."""


def _check_unitary(us: np.ndarray) -> None:
    """Raise ValueError unless every 2x2 of the stack us is unitary within _UNITARY_TOL."""
    if np.maximum.reduce(np.abs(us.conj().swapaxes(-1, -2) @ us - _EYE2), None, initial=0.0) > _UNITARY_TOL:
        raise ValueError(f"local unitaries must be unitary within {_UNITARY_TOL}")


def _apply(frames: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """(u_a x u_b x u_c) psi, (K, 8), for frames (K, 3, 2, 2), one qubit at a time."""
    t = (frames[:, 0] @ psi.reshape(2, 4)).reshape(-1, 2, 2, 2)
    t = frames[:, 1, None] @ t
    return (t @ frames[:, 2].swapaxes(1, 2)[:, None]).reshape(-1, 8)


# the Pauli basis (1, x, y, z): a Hermitian 2x2 X is sum_k tr(X P_k) P_k / 2
_PAULI = _frozen(np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]))
_EYE2, _EYE3, _ONES = _frozen(np.eye(2)), _frozen(np.eye(3)), _frozen(np.ones(3))
_NEWTON_STEPS = 16
_MAX_STEP = 0.5  # longest Newton move, as a chord of the unit sphere
_CONE_EPS = 1e-12  # floor of |D n + d| beside the cone point
_ROOT_TOL = 1e-10  # a Newton step this short has landed on a critical point
_SAME_ROOT = 1e-6  # Bloch-vector distance within which two roots are one
_DOUBLE_ZERO = 1e-2  # Bloch-vector distance within which a lower-branch seed stands for a double zero
_SINGULAR = 1e-8  # |det| / |T|^2 at or below which a tangent Hessian T is singular
_SINGULAR_D = 1e-12  # |det D| at or below which D has no single cone point
_TANGLE_EPS = 1e-12  # three-tangle below which det M(v) = 0 has a double root
_POLE = 1e-4  # relative gap of the s_i at or below which two are one; a |(g_i, e_i)| this small is a pole
_ON_SPHERE = 1e-3  # largest | |n(nu)| - 1 | of an accounted real root of G12
_EXACT = 1e-12  # relative size at or below which a pole plane, a flat branch or a cone is exact
# G12's companion matrix less its first row, the powers nu^6 ... nu^0, and the derivative weights 4, 3, 2, 1
_COMPANION, _POWERS = _frozen(np.eye(12, k=-1)), _frozen(np.arange(6, -1, -1))
_SLOPE = _frozen(np.arange(4.0, 0.0, -1.0))


def _norms(x: np.ndarray, axis, keepdims: bool = False) -> np.ndarray:
    """numpy.linalg.norm(x, axis=axis, keepdims=keepdims) for one axis: its formula, bit for bit, without its wrapper."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis, keepdims=keepdims))


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


def _newton(form, n: np.ndarray, sgn: np.ndarray):
    """Newton on the sphere for sigma^2 = c0 + g.n + sgn |D n + d|, all seeds at once.

    With w = D n + d and e = w / |w| the gradient is g + sgn D^T e and the
    Hessian H = sgn D^T (1 - e e^T) D / |w|.  With lam = n . gradient and
    P = 1 - n n^T the tangent gradient is q = gradient - lam n and the
    tangent Hessian T = P (H - lam) P, formed entry by entry (|T|^2 by
    cancellation can go negative).  On the tangent plane T is a 2x2 with
    det = (tr^2 T - |T|^2) / 2 and T^{-1} = (tr T - T) / det: the Newton
    move is (T q - tr T q) / det.  Where T is singular (the flat critical
    rings of symmetric states) the move uses its pseudo-inverse, T / |T|^2
    for rank one, which still steps onto the ring.  A seed stops once its
    step is within _ROOT_TOL, which by quadratic convergence leaves it on
    its root to about the square of that.  Returns the points, the length
    of each one's last step and its index: sign(det), 0 where T is singular
    or the point is on the cone (|w| within _CONE_EPS), a kink of sigma^2.
    """
    g, d, dm = form
    gram = dm.T @ dm
    n = n.copy()
    length, index = np.full(len(n), np.inf), np.zeros(len(n))
    for _ in range(_NEWTON_STEPS):
        live = (length > _ROOT_TOL).nonzero()[0]
        if not live.size:
            break
        x, s = n[live], sgn[live, None]
        w = x @ dm.T + d
        r = _norms(w, 1, True)
        cone = r[:, 0] <= _CONE_EPS
        r = np.maximum(r, _CONE_EPS)
        de = (w / r) @ dm
        grad = g + s * de
        lam = np.add.reduce(x * grad, 1)
        q = grad - lam[:, None] * x
        hess = (s / r)[:, :, None] * (gram - de[:, :, None] * de[:, None, :]) - lam[:, None, None] * _EYE3
        proj = _EYE3 - x[:, :, None] * x[:, None, :]
        t = proj @ hess @ proj
        trace, size = t.trace(0, 1, 2), np.add.reduce(t * t, (1, 2))
        det = (trace * trace - size) / 2.0
        flat = np.abs(det) <= _SINGULAR * size
        index[live] = np.where(flat | cone, 0.0, np.sign(det))
        tq = np.einsum("nij,nj->ni", t, q)
        pinv_move = -tq / np.maximum(size, 1e-300)[:, None]
        newton_move = (tq - trace[:, None] * q) / np.where(flat, 1.0, det)[:, None]
        move = np.where(flat[:, None], pinv_move, newton_move)
        length[live] = _norms(move, 1)
        x = x + move * np.minimum(1.0, _MAX_STEP / np.maximum(length[live], 1e-300))[:, None]
        n[live] = x / _norms(x, 1, True)
    return n, length, index


def _det_zeros(tens: np.ndarray):
    """Bloch vectors where det(v0 A0 + v1 A1) = 0.

    det is the binary quadratic qa v0^2 + qb v0 v1 + qc v1^2, whose
    discriminant is Cayley's hyperdeterminant (the three-tangle is 4|disc|).
    Its roots (qc : q) and (q : qa), with q = -(qb + sqrt(disc)) / 2 on the
    sign free of cancellation, are the zeros of the lower branch (Acin et
    al.).  A double root's zeros are one where they meet within _SAME_ROOT.
    """
    a0, a1 = tens
    qa, qc = np.linalg.det(tens)
    qb = a0[0, 0] * a1[1, 1] + a1[0, 0] * a0[1, 1] - a0[0, 1] * a1[1, 0] - a1[0, 1] * a0[1, 0]
    disc = qb * qb - 4.0 * qa * qc
    double = 4.0 * abs(disc) <= _TANGLE_EPS
    # a rounding-level disc is a double root: its square root would move both zeros by ~1e-8
    root = 0.0 if double else np.sqrt(complex(disc))
    q = -(qb + root) / 2.0 if (np.conj(qb) * root).real >= 0.0 else -(qb - root) / 2.0
    v = np.array([(qc, q), (q, qa)], dtype=complex)
    v = v[_norms(v, 1) > 1e-150]
    v /= _norms(v, 1, True)
    cross = np.conj(v[:, 0]) * v[:, 1]
    bloch = np.stack([2.0 * cross.real, 2.0 * cross.imag, np.abs(v[:, 0]) ** 2 - np.abs(v[:, 1]) ** 2], 1)
    if double and len(bloch):
        gap = bloch[0] - bloch[-1]  # numpy's 1-d norm is sqrt(dot), which may round unlike a sum of squares
        bloch = bloch[:1] if np.sqrt(gap.dot(gap)) <= _SAME_ROOT else bloch
    return bloch


def _fibonacci(n: int) -> np.ndarray:
    """n Fibonacci-spiral points (n, 3) on the unit sphere."""
    i = np.arange(n) + 0.5
    z, phi = 1.0 - 2.0 * i / n, np.pi * (1.0 + np.sqrt(5.0)) * i
    rho = np.sqrt(1.0 - z * z)
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


# a union, not one spiral: 512 or 1024 points alone move picks beside the strata to a smaller l0; no 4-scale rings, a raise
_SEEDS = _frozen(np.concatenate([_fibonacci(64), _fibonacci(512)]))
_RING_SCALES = _frozen(np.sort(np.concatenate([np.geomspace(0.1, 1e-4, 4)[1:3], np.geomspace(0.1, 1e-4, 8)]))[::-1])
_RING_DIRS = 24


def _seeds(form) -> np.ndarray:
    """_SEEDS plus rings around the cone direction n*/|n*|, at _RING_SCALES by _RING_DIRS directions.

    n* = -D^{-1} d is where the branches touch.  When it lies near the
    sphere, roots of both branches crowd beside it, closer than a uniform
    seed set resolves.
    """
    _, d, dm = form
    seeds = [_SEEDS]
    # a singular D has no single cone point, and n* = 0 no direction
    m = -np.linalg.solve(dm, d) if abs(np.linalg.det(dm)) > _SINGULAR_D else np.zeros(3)
    size = np.sqrt(m.dot(m))
    if size > 0.0:
        m /= size
        b1, b2 = np.linalg.svd(m[None])[2][1:]  # an orthonormal pair orthogonal to m
        phi = 2.0 * np.pi * np.arange(_RING_DIRS) / _RING_DIRS
        ring = np.outer(np.cos(phi), b1) + np.outer(np.sin(phi), b2)
        pts = (m + _RING_SCALES[:, None, None] * ring).reshape(-1, 3)
        seeds.append(pts / _norms(pts, 1, True))
    return np.concatenate(seeds)


def _kink_points(form, basis):
    """Points (K, 3), branches, indices and the cone points' C frames (K', 2, 2) on a kink circle, or None.

    Where D = sig u w^T and d = sig c u (within _CONE_EPS), |D n + d| =
    sig |w.n + c|.  On side s of the circle w.n = -c, sigma^2 = c0 + t sig c
    + (g + t sig w).n (t = sgn s) is linear, critical at +-v / |v| for
    v = g + t sig w, on branch t s of the side s the point lies on.  On the
    circle sigma^2 = c0 + g.n, critical at -c w +- sqrt(1 - c^2) g_perp /
    |g_perp|: cone points (index 0), on both branches, last.  LAPACK's bases
    are free there; as T1^dag T1 = c0 + g.n + sig (w.n + c) u.sigma, C's is
    u.sigma's eigenbasis, the branch's eigenvector in the |111> slot.
    """
    s, ei, (g, d, dm) = basis[0], basis[3], form
    if s[1] > _EXACT * s[-1] or ei @ ei < (1.0 - _EXACT) * s[-1] * (d @ d):  # D of rank two, or d off its range
        return None
    left, sing, right_h = np.linalg.svd(dm)
    off = d @ left[:, 1:]
    if sing[1] + np.sqrt(off.dot(off)) > _CONE_EPS or sing[0] <= _CONE_EPS:
        return None
    u, w, c = left[:, 0], right_h[0], d @ left[:, 0] / sing[0]
    t = np.array([1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        v, perp = g + np.outer(t[:2], sing[0] * w), g - (g @ w) * w
        ring = -c * w + np.sqrt(1.0 - c * c) * np.outer(t[:2], perp / np.sqrt(perp.dot(perp)))
        n = np.concatenate([v, -v, ring, ring])
        n /= _norms(n, 1, True)  # beside a pole, arccos(n_z) magnifies | |n| - 1 | to sqrt
    side = np.concatenate([np.sign(n[:4] @ w + c), np.ones(4)])
    ok = np.logical_and.reduce(np.isfinite(n), 1) & (side != 0.0)
    e = np.linalg.eigh(np.einsum("k,kij->ij", u, _PAULI[1:]))[1]  # the eigenvectors of u.sigma for -1, +1
    right = np.where(t[4:, None, None] > 0.0, e, e[:, ::-1])
    return n[ok], (t * side < 0.0)[ok].astype(int), np.repeat([1.0, 0.0], 4)[ok], right[ok[4:]]


def _eigenbasis(form):
    """(s, vec, gi, ei, size): eigenvalues and eigenvectors of D^T D, g and D^T d in that basis, and |(g, D^T d)|."""
    g, d, dm = form
    s, vec = np.linalg.eigh(dm.T @ dm)
    gi, ei = g @ vec, (d @ dm) @ vec
    return s, vec, gi, ei, np.sqrt(g @ g + ei @ ei)


def _pole_plane(basis, gap: float, floor: float):
    """The one pair of s_i within gap * s_max (() if none, None if three), and whether its (g_i, e_i) lie within floor."""
    s, _, gi, ei, _ = basis
    close = (s[1:] - s[:-1] <= gap * s[-1]).nonzero()[0]
    pair = close[0] + np.arange(2) if close.size == 1 else None if close.size else ()
    return pair, close.size == 1 and np.maximum.reduce(np.hypot(gi[pair], ei[pair])) <= floor


def _ring_seeds(form, basis):
    """Points (K, 3), branch signs, accounted flags and pole flags (K,) critical on an exact pole plane, or None.

    With the plane as axes i, j, t = n_k and a = s_k - s_P, g.n = g_k t and
    |D n + d|^2 = Q(t) = s_P + delta + a t^2 + 2 e_k t: sigma^2 depends on t
    alone.  It is critical at t = +-1, and on a ring at each root t in (-1, 1)
    of (a - g_k^2) (a t^2 + 2 e_k t) + e_k^2 - g_k^2 (s_P + delta), on branch
    sign(-(a t + e_k) / g_k), or on both at t = -e_k / a where g_k = 0; the
    point sqrt(1 - t^2) v_i + t v_k stands for its ring (a root on the cone,
    Q(t) = 0, is a kink circle, read first).  None unless the plane is exact
    within _EXACT, or on a flat branch (every coefficient within it).
    """
    s, vec, gi, ei, size = basis
    floor = _EXACT * (size + s[-1])
    pair, plane = _pole_plane(basis, _EXACT, floor)
    if not plane:
        return None
    k, sp = 2 if pair[0] == 0 else 0, s[pair].mean()
    a, gk, ek, delta = s[k] - sp, gi[k], ei[k], form[1] @ form[1]
    c2, c1, c0 = (a - gk * gk) * a, 2.0 * (a - gk * gk) * ek, ek * ek - gk * gk * (sp + delta)
    scale = abs(a) + gk * gk + abs(ek) + abs(sp) + delta
    if max(abs(c2), abs(c1), abs(c0)) <= _EXACT * scale * scale:
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        if abs(gk) <= floor:
            t, sgn = np.repeat(-ek / a, 2), np.array([1.0, -1.0])
        else:
            # the roots q / c2 and c0 / q, with q on the sign free of cancellation
            q = -0.5 * (c1 + np.copysign(np.sqrt(c1 * c1 - 4.0 * c2 * c0), c1))
            t = np.array([q / c2, c0 / q])
            sgn = np.sign(-(a * t + ek) * gk)
        keep = np.abs(t) < 1.0
    t, sgn = np.concatenate([[1.0, -1.0, 1.0, -1.0], t[keep]]), np.concatenate([[1.0, 1.0, -1.0, -1.0], sgn[keep]])
    points = np.sqrt(1.0 - t * t)[:, None] * vec[:, pair[0]] + t[:, None] * vec[:, k]
    return points, sgn, np.ones(len(t), dtype=bool), np.zeros(len(t), dtype=bool)


def _root_seeds(form, basis):
    """Seeds (K, 3), branch signs, accounted flags and pole flags (K,) at the roots nu of G12 (module docstring).

    A conjugate pair of complex roots seeds once, from its real part: where
    two s_i nearly meet, true critical points can come back as such pairs.
    Two s_i within _POLE of each other take their mean, and their plane
    turns by the left singular vectors of its (g_i, e_i) block: its second
    axis is then a pole.  None where no pole reads the input: a pole plane
    (:func:`_ring_seeds` reads an exact one), two directions of (g, e) in
    the plane, or three close s_i.
    The points of each pole, a (g_i, e_i) within _POLE of 0, follow the
    roots, accounted and flagged; Newton polishes them where the pole is not exact.
    """
    d, (s, vec, gi, ei, size) = form[1], basis
    floor = _POLE * size
    pair, plane = _pole_plane(basis, _POLE, floor)
    if pair is None or plane:
        return None
    if len(pair):
        turn, sing, _ = np.linalg.svd(np.stack([gi[pair], ei[pair]], 1))
        if sing[1] > floor:
            return None
        s, vec, gi, ei = s.copy(), vec.copy(), gi.copy(), ei.copy()
        vec[:, pair], s[pair] = vec[:, pair] @ turn, s[pair].mean()
        gi[pair], ei[pair] = turn.T @ gi[pair], turn.T @ ei[pair]
    # nu is counted from the middle s_i: rounding then spares the cluster where two s_i come close
    mid, s = s[1], s - s[1]
    s1, s2 = np.add.reduce(s), s[0] * s[1] + s[0] * s[2] + s[1] * s[2]
    p = np.array([1.0, -s1, s2, -np.multiply.reduce(s)])
    p_i = np.stack([_ONES, s - s1, s2 - s * (s1 - s)], 1)  # P / (nu - s_i)
    w = (ei[[1, 2, 0]] * gi[[2, 0, 1]] - ei[[2, 0, 1]] * gi[[1, 2, 0]]) ** 2  # (e x g)_k^2
    b, c = p + np.concatenate([[0.0], gi * gi @ p_i]), gi * ei @ p_i
    m = np.convolve([1.0, d @ d + mid], b) + np.concatenate([[0.0, 0.0], ei * ei @ p_i])
    m += [0, 0, 0, np.add.reduce(w), -w @ s]
    dp, dm_, dc = p[:-1] * _SLOPE[1:], m[:-1] * _SLOPE, c[:-1] * _SLOPE[2:]
    wm, wc = np.convolve(dm_, p) - np.convolve(m, dp), np.convolve(dc, p) - np.convolve(c, dp)
    g12 = np.convolve(wm, wm)
    g12[3:] += 4.0 * np.convolve(wc, np.convolve(c, dm_) - np.convolve(dc, m))
    companion = _COMPANION.copy()  # G12 is monic: np.roots without its trimming
    companion[0] = -g12[1:]
    nu = np.linalg.eigvals(companion)
    nu = nu[nu.imag >= 0.0]
    real, nu = nu.imag == 0.0, nu.real
    powers = nu[:, None] ** _POWERS
    with np.errstate(divide="ignore", invalid="ignore"):
        # rho = -(ab)' / (2 b c') = -(wm P + 2 C wc) / (2 B wc)
        wc_nu = powers[:, 2:] @ wc
        rho = -(powers @ wm * (powers[:, 3:] @ p) + 2.0 * (powers[:, 4:] @ c) * wc_nu)
        rho /= 2.0 * (powers[:, 3:] @ b) * wc_nu
        n = ((rho[:, None] * gi + ei) / (nu[:, None] - s)) @ vec.T
        norm = _norms(n, 1)
        n /= norm[:, None]
    accounted, roots = real & (np.abs(norm - 1.0) <= _ON_SPHERE), len(n)
    # the points of the hard case nu = s[i] + mid at each pole (module docstring), on the sphere as built
    for i in (np.hypot(gi, ei) <= floor).nonzero()[0]:
        j = np.arange(3) != i
        with np.errstate(divide="ignore", invalid="ignore"):
            a = 1.0 / (s[i] - s[j])
            rho_sq = (s[i] + d @ d + mid + a @ (ei[j] * ei[j])) / (1.0 + a @ (gi[j] * gi[j]))
            rho_i = np.sqrt(rho_sq) * np.array([1.0, 1.0, -1.0, -1.0])
            pts = np.zeros((4, 3))
            pts[:, j] = (rho_i[:, None] * gi[j] + ei[j]) * a
            pts[:, i] = np.sqrt(1.0 - np.add.reduce(pts * pts, 1)) * [1.0, -1.0, 1.0, -1.0]
            n, rho = np.concatenate([n, pts @ vec.T]), np.concatenate([rho, rho_i])
        accounted = np.concatenate([accounted, np.ones(4, dtype=bool)])
    ok = np.logical_and.reduce(np.isfinite(n), 1) & (rho != 0.0)
    return n[ok], np.sign(rho[ok]), accounted[ok], ok.nonzero()[0] >= roots


def _critical_points(tens: np.ndarray):
    """Critical points (Bloch vectors, branches, indices) of sigma_+^2 and sigma_-^2, and C frames.

    Branch 0 is sigma_+^2, branch 1 sigma_-^2.  The C frames of the last
    points are None but on a kink circle, whose points (:func:`_kink_points`)
    stand alone, as do an exact pole plane's (:func:`_ring_seeds`) and zeros.
    Elsewhere the zeros come first, as lower-branch minima (index +1); every
    other point carries the sign of its tangent-Hessian determinant, 0 where
    that is singular, and by Poincare-Hopf each branch sums to 2 where none
    is.  Three stages run in turn until one stands.  The accounted roots of
    G12 and pole points (:func:`_root_seeds`), each on its own branch, stand
    where each root converges to a point of its own, none a zero, and the
    sums hold with no singular Hessian (a pole point that Newton brings within
    _SAME_ROOT of a zero or of an accounted root's point of its branch is that
    point; at planted l0 = 0 a pole's lower pair is the two zeros); all the
    roots and pole points, with the zeros on both branches, where the sums
    hold so.  Newton creeps onto a double zero only linearly: a lower-branch
    seed of a root stage, or accounted row left unconverged, within _DOUBLE_ZERO
    of it stands for it.  The last stage, the Fibonacci and cone-ring seeds of
    :func:`_seeds` with the zeros, on both branches, always stands.
    """
    form = _bloch_form(tens)
    basis = _eigenbasis(form)
    kink = _kink_points(form, basis)
    if kink is not None:
        return kink
    zeros = _det_zeros(tens)
    ring = _ring_seeds(form, basis)
    roots = ring if ring is not None else _root_seeds(form, basis)
    # the last stage stands: a ring's points stand alone
    stages = ("accounted",) if ring is not None else ("seeds",) if roots is None else ("accounted", "roots", "seeds")
    for stage in stages:
        if stage == "accounted":
            seeds, sgn, pole = roots[0][roots[2]], roots[1][roots[2]], roots[3][roots[2]]
        elif stage == "seeds":
            seeds = np.concatenate([zeros, _seeds(form)])
            sgn = np.repeat([1.0, -1.0], len(seeds))
            seeds = np.concatenate([seeds, seeds])
        else:
            seeds = np.concatenate([zeros, zeros, roots[0]])
            sgn = np.concatenate([np.repeat([1.0, -1.0], len(zeros)), roots[1]])
            pole = np.concatenate([np.zeros(2 * len(zeros), dtype=bool), roots[3]])
        if len(zeros) == 1 and ring is None and stage != "seeds":  # a double zero, which Newton reaches slowly
            far = (sgn > 0.0) | (_norms(seeds - zeros, 1) > _DOUBLE_ZERO)
            seeds, sgn, pole = seeds[far], sgn[far], pole[far]
        n, last, index = _newton(form, seeds, sgn)
        found = last <= _ROOT_TOL
        if ring is not None:  # Newton moves an exact point only where its tangent Hessian is 0: it stays, index 0
            stay = _norms(n - seeds, 1) <= _ROOT_TOL
            n, index, found = np.where(stay[:, None], n, seeds), np.where(stay, index, 0.0), np.ones_like(stay)
        settled = found  # rows that reached a point, or that a counted point holds
        if stage == "accounted" and (len(zeros) == 1 and ring is None or np.count_nonzero(pole)):
            # rows a counted point holds: pole points at a zero or a root's point, rows creeping onto a double zero
            dist = _norms(n[:, None] - np.concatenate([zeros, n[~pole]])[None], 2)
            same = np.concatenate([-_ONES[: len(zeros)], sgn[~pole]]) == sgn[:, None]
            held = pole & np.logical_or.reduce(same & (dist <= _SAME_ROOT), 1)
            if len(zeros) == 1:
                held |= ~found & (sgn < 0.0) & (dist[:, 0] <= _DOUBLE_ZERO)
            settled, found = found | held, found & ~held
        n = np.concatenate([zeros, n[found]])
        branch = np.concatenate([_ONES[: len(zeros)], sgn[found] < 0.0]).astype(int)
        index = np.concatenate([_ONES[: len(zeros)], index[found]])
        # most roots are reached from many seeds: keep the first of each run of exact repeats in a
        # stable sort (np.unique(axis=0) keeps the same but costs more), then compare the few left pairwise
        key = np.concatenate([np.rint(n / _SAME_ROOT), branch[:, None]], 1)
        order = np.lexsort(key.T)
        key = key[order]
        starts = np.ones(len(key), dtype=bool)
        starts[1:] = np.logical_or.reduce(key[1:] != key[:-1], 1)
        first = order[starts]
        first.sort()
        n, branch, index = n[first], branch[first], index[first]
        near = _norms(n[:, None] - n[None], 2) <= _SAME_ROOT
        rank = np.arange(len(n))
        keep = ~np.logical_or.reduce(near & (branch[:, None] == branch) & (rank[:, None] > rank), 1)
        n, branch, index = n[keep], branch[keep], index[keep]
        counted = np.add.reduce(index[branch == 0]) == 2 and np.add.reduce(index[branch == 1]) == 2
        # the accounted roots count only where each reaches a point of its own
        own = np.logical_and.reduce(settled) and len(n) == len(zeros) + np.count_nonzero(found)
        counted &= stage != "accounted" or own
        if counted and not np.logical_or.reduce(index == 0):
            break
    return n, branch, index, None


# coefficients of the support phases (000, 001, 010, 100, 111) in alpha;
# local Z rotations shift the phase at slot (qA, qB, qC) by a_qA + b_qB + c_qC,
# which this combination cancels
_ALPHA_COEF = _frozen(np.array([-2.0, 1.0, 1.0, 1.0, -1.0]))
_PINNED = _frozen(np.array([0, 2, 3, 4]))  # the slots made real nonnegative
# the Z-rotation phases (a0, a1, b0, b1, c0, c1) in the support phases: a0 = b0 = 0,
# a1 = p000 - p100, b1 = p000 - p010, c0 = -p000, c1 = p100 + p010 - 2 p000 - p111
_Z_PHASES = _frozen(np.array([[0] * 5, [1, 0, 0, -1, 0], [0] * 5, [1, 0, -1, 0, 0], [-1, 0, 0, 0, 0], [-2, 0, 1, 1, -1]])).T


def _phase_fix(amps: np.ndarray):
    """Alphas (K,) and Z-rotation diagonals (K, 3, 2) that make 000/010/100/111 real nonnegative.

    amps are K rows of the five support amplitudes (000, 001, 010, 100,
    111).  The phase left on |001> is alpha = arg d001 - 2 arg d000 +
    arg d010 + arg d100 - arg d111, taken into [0, 2 pi); when a pinned
    amplitude vanishes its free phase is spent on setting alpha to 0, and
    alpha is 0 when d001 itself vanishes.
    """
    ph = np.arctan2(amps.imag, amps.real)
    alpha = ph @ _ALPHA_COEF
    small = np.abs(amps) <= _AMP_EPS
    idle = small[:, _PINNED]
    spent = np.logical_or.reduce(idle, 1)
    first = _PINNED[idle.argmax(axis=1)]  # the first vanishing pinned slot, where one is
    shift = np.where(spent, alpha / _ALPHA_COEF[first], 0.0)  # of that slot's phase
    alpha[spent | small[:, 1]] = 0.0
    z_phases = ph @ _Z_PHASES - shift[:, None] * _Z_PHASES[first]
    return np.mod(alpha, 2.0 * np.pi), np.exp(1j * z_phases).reshape(-1, 3, 2)


def _read(psi: np.ndarray, frames: np.ndarray, amps: np.ndarray) -> CanonicalResult | None:
    """The certified candidate that comes first, of K frames read at once.

    frames (K, 3, 2, 2) hold (u_a, u_b, u_c) and amps (K, 5) the support
    amplitudes of each frame applied to psi: the lambdas are their moduli
    and alpha follows from their phases (:func:`_phase_fix`).  A candidate
    certifies when alpha falls in [0, pi], its lambdas pass the checks of
    states.AcinParams and its reconstruction residual, Z rotations
    included, is within RESIDUAL_TOL.  The winner is the first by the
    order in the module docstring; keys within _TIE_TOL tie, so rounding
    cannot choose between representatives that tie, as all do at l0 = 0.
    Only the winner is built; None when no candidate certifies.
    """
    alpha, zs = _phase_fix(amps)
    alpha[alpha > 2.0 * np.pi - _ALPHA_SLACK] = 0.0
    lams = np.hypot(amps.real, amps.imag)  # rounds as scalar abs(); np.abs may not
    lams /= np.maximum(_norms(lams, 1), 1e-300)[:, None]  # all-zero rows fail the sum
    # AcinParams' checks: >= is False on NaN, and an infinite entry fails the sum
    ok = (alpha <= np.pi + _ALPHA_SLACK) & np.logical_and.reduce(lams >= 0.0, 1)
    ok &= np.abs(np.add.reduce(lams * lams, 1) - 1.0) <= states._ACIN_NORM_TOL
    alpha = np.minimum(alpha, np.pi)
    units = zs[..., None] * frames
    _check_unitary(units)
    residual = _norms(_apply(units, psi) - states._acin_kets(lams, alpha), 1)
    live = (ok & (residual <= RESIDUAL_TOL)).nonzero()[0]
    if not live.size:
        return None
    for col in (-lams[:, 0], alpha, *-lams[:, 1:].T):
        if live.size == 1:
            break
        live = live[col[live] <= np.minimum.reduce(col[live]) + _TIE_TOL]
    k = live[0]
    params = states.AcinParams(*lams[k].tolist(), alpha=float(alpha[k]))
    return CanonicalResult(params=params, unitaries=LocalUnitaries(*units[k]), residual=float(residual[k]))


def _critical_frames(psi: np.ndarray, n: np.ndarray, branch: np.ndarray, right=None):
    """Frames (K, 3, 2, 2) and support amplitudes (K, 5) at the critical points n (K, 3).

    The A-row is v = (cos t, sin t e^{ip}), n its Bloch vector.  The
    singular bases of B and C, in branch order, turn the A=1 block T1 into
    diag(sing[order]), so only the A=0 block's support amplitudes change.
    right (K', 2, 2), where given, holds the last K' points' C bases by columns.
    """
    t = 0.5 * np.arccos(np.minimum(np.maximum(n[:, 2], -1.0), 1.0))
    v0, v1 = np.cos(t), np.sin(t) * np.exp(1j * np.arctan2(n[:, 1], n[:, 0]))
    u_a = np.array([[np.conj(v1), -np.conj(v0)], [v0, v1]]).transpose(2, 0, 1)
    # entry by entry, not by matmul: T1's singular vectors scale its rounding by 1 / (singular gap)
    blocks = np.add.reduce(u_a[..., None, None] * psi.reshape(2, 2, 2), 2)
    left, sing, right_h = np.linalg.svd(blocks[:, 1])
    # branch 0 takes the singular pair in the order (smaller, larger)
    flip = branch == 0
    u_b = np.where(flip[:, None, None], left[:, :, ::-1], left).conj().swapaxes(1, 2)
    u_c = np.where(flip[:, None, None], right_h[:, ::-1], right_h).conj()
    d1 = np.where(flip[:, None], sing[:, ::-1], sing)
    if right is not None:  # the last points' C bases are given: B's is the unitary polar factor of T1 right
        k = len(n) - len(right)
        left, _, right_h = np.linalg.svd(blocks[k:, 1] @ right)
        u_b[k:], u_c[k:] = (left @ right_h).conj().swapaxes(1, 2), right.swapaxes(1, 2)
        d1 = np.concatenate([d1[:k], (u_b[k:] @ blocks[k:, 1] @ right).diagonal(0, 1, 2)])
    d0 = u_b @ blocks[:, 0] @ u_c.swapaxes(1, 2)
    amps = np.concatenate([d0.reshape(-1, 4)[:, :3], d1], axis=1)
    return np.array([u_a, u_b, u_c]).swapaxes(0, 1), amps


_PRODUCT_EIG_TOL = 1e-15
# by solo slot: which of the (solo, first pair, second pair) frames qubits A, B and C take,
# and which of the slots 001, 010 and 100 hold e, the ones with the solo qubit at 0
_PLACE = _frozen(np.array([[0, 1, 2], [1, 0, 2], [1, 2, 0]]))
_PAIR_SLOTS = _frozen(np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]]))
_SCHMIDT_FLOOR = 1e-14  # pair Schmidt values s1 <= this * s0 are rounding, taken as 0


def _biseparable_frames(psi: np.ndarray, slots: np.ndarray):
    """Frames (S, 3, 2, 2) and support amplitudes (S, 5) of the direct construction, one per product cut.

    The pair state's Schmidt values (s0 >= s1) give the max-l0
    representative: the solo qubit is rotated to |0> and the pair block
    becomes [[s0-s1, e], [e, 0]] with e = sqrt(s0*s1).  That block is
    R diag(s0, s1) M^T for the reflection R = [[c, s], [s, -c]] and the
    rotation M = [[c, -s], [s, c]], with c^2 = s0 / (s0 + s1) and
    s^2 = s1 / (s0 + s1), so R and M follow the Schmidt bases.  An s1 at
    the rounding level of s0 is taken as 0: its square root would put
    ~1e-8 on lambdas that are exactly 0.
    """
    solo_left, solo_sing, solo_right_h = np.linalg.svd(psi[qcore._SOLO_INDEX[slots]], full_matrices=False)
    # the pair state is solo^dag psi
    left, sing, right_h = np.linalg.svd((solo_sing[:, :1] * solo_right_h[:, 0]).reshape(-1, 2, 2))
    s0, s1 = sing[:, 0], sing[:, 1]
    s1 = np.where(s1 <= _SCHMIDT_FLOOR * s0, 0.0, s1)
    c, s = np.sqrt(s0 / (s0 + s1)), np.sqrt(s1 / (s0 + s1))
    refl, rot = np.array([c, s, s, -c, c, -s, s, c]).T.reshape(-1, 2, 2, 2).swapaxes(0, 1)
    # the solo frame's first row, solo^dag, maps the solo ket to |0>
    ordered = np.array([solo_left.conj().swapaxes(1, 2), refl @ left.conj().swapaxes(1, 2), rot @ right_h.conj()])
    amps = np.zeros((len(slots), 5))
    amps[:, 0] = s0 - s1
    amps[:, 1:4] = np.sqrt(s0 * s1)[:, None] * _PAIR_SLOTS[slots]  # the reader's residual checks these
    return ordered.swapaxes(0, 1)[np.arange(len(slots))[:, None], _PLACE[slots]], amps


def acin_decompose(psi) -> CanonicalResult:
    """Bring a pure state to the five-term canonical form.

    States product across a cut take a direct construction.  Otherwise
    every critical point of both singular-value branches on the A-row
    sphere (see :func:`_critical_points`) gives a candidate, and all are
    certified by their reconstruction residuals at once.  Returns the
    valid decomposition with alpha in [0, pi] that comes first by larger
    l0, then smaller alpha, then larger l1, l2, l3 and l4 (see
    :func:`_read`).
    """
    psi = states.check_pure(psi)
    spectra = qcore._reduced_spectra(psi[None])[0]
    product_slots = (spectra[:, 1] <= _PRODUCT_EIG_TOL).nonzero()[0]
    if product_slots.size:
        result = _read(psi, *_biseparable_frames(psi, product_slots))
        if result is not None:
            return result
    n, branch, _, right = _critical_points(psi.reshape(2, 2, 2))
    result = _read(psi, *_critical_frames(psi, n, branch, right))
    if result is None:
        raise DecompositionError(
            "no canonical decomposition reached residual tolerance "
            f"{RESIDUAL_TOL}; this indicates a bug, the form is universal"
        )
    return result


def local_unitary_invariants(psi) -> tuple[np.ndarray, float]:
    """Fingerprint preserved by local unitaries.

    Returns the three single-qubit reduced spectra (rows ordered A, B,
    C, each descending) and the three-tangle.
    """
    kets = states.check_pure(psi)[None]
    return qcore._reduced_spectra(kets)[0], float(classify._three_tangle(kets)[0])
