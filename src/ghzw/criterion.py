"""The GHZ/W detection criterion.

Each witness family is minimized over its phase parameters; a state is
"detected" when some member of a family reaches an expectation below
-BOUNDARY_TOL (see :func:`detects`).  Pure states admit closed-form
minima; every density matrix, rank 1 included, takes the mixed route: a
closed form for the GHZ family and, for the W family, the roots of a
sextic that holds every stationary phase.  Each minimum is an array
kernel over a batch, (N, 8) kets or (N, 8, 8) density matrices, and the
public functions are its N = 1 wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import states
from .qcore import _frozen

#: minima within this band of zero are boundary cases: not detected, and
#: not asserted either way in equivalence tests
BOUNDARY_TOL = 1e-12

W_SECTOR = (1, 2, 4)  # basis indices |001>, |010>, |100>

#: amplitudes and coherences below this carry no phase: the optimal
#: phase is then fixed to 0 by convention
_PHASE_EPS = 1e-15


def detects(value: float, tol: float = BOUNDARY_TOL) -> bool:
    """The detection rule: a witness-family minimum below -tol."""
    return value < -tol


@dataclass(frozen=True)
class CriterionVerdict:
    ghz_min: float
    ghz_opt_phi: float
    w_min: float
    w_opt_gamma: float
    w_opt_beta: float

    @property
    def detected_by_ghz(self) -> bool:
        return detects(self.ghz_min)

    @property
    def detected_by_w(self) -> bool:
        return detects(self.w_min)

    @property
    def detected(self) -> bool:
        return self.detected_by_ghz or self.detected_by_w

    def to_dict(self) -> dict:
        return {
            "ghz_min": self.ghz_min,
            "ghz_opt_phi": self.ghz_opt_phi,
            "w_min": self.w_min,
            "w_opt_gamma": self.w_opt_gamma,
            "w_opt_beta": self.w_opt_beta,
            "detected_by_ghz": self.detected_by_ghz,
            "detected_by_w": self.detected_by_w,
            "detected": self.detected,
        }


def min_ghz_expectation_pure(psi) -> tuple[float, float]:
    """Exact minimum over phi of the GHZ-family expectation on a pure state.

    |<GHZ(phi)|psi>| = |c0 + e^{-i phi} c7| / sqrt(2) is maximized by
    aligning the two terms, so the minimum expectation is
    1/2 - (|c0| + |c7|)^2 / 2 at phi = arg(c7) - arg(c0).
    """
    verdict = _pure_verdict(states.check_pure(psi))
    return verdict.ghz_min, verdict.ghz_opt_phi


def min_w_expectation_pure(psi) -> tuple[float, float, float]:
    """Exact minimum over (gamma, beta) of the W-family expectation.

    The two phases independently align the three W-sector amplitudes,
    giving 2/3 - (|c1| + |c2| + |c4|)^2 / 3.
    """
    verdict = _pure_verdict(states.check_pure(psi))
    return verdict.w_min, verdict.w_opt_gamma, verdict.w_opt_beta


def _pure_minima(kets: np.ndarray) -> tuple:
    """Both pure-state minima with their phases on validated (N, 8) kets.

    Arrays (N,) of ghz_min, ghz_opt_phi, w_min, w_opt_gamma and w_opt_beta,
    in the order of :class:`CriterionVerdict`'s fields.  A phase whose
    amplitudes vanish (below _PHASE_EPS) is 0 by convention.
    """
    mod = np.hypot(kets.real, kets.imag)  # rounds as scalar abs(); np.abs may not
    arg = np.angle(kets)
    ghz = 0.5 - np.square(mod[:, 0] + mod[:, 7]) / 2.0
    w = 2.0 / 3.0 - np.square(mod[:, 1] + mod[:, 2] + mod[:, 4]) / 3.0
    phased = mod > _PHASE_EPS
    phi = np.where((mod[:, 0] >= _PHASE_EPS) & (mod[:, 7] >= _PHASE_EPS), arg[:, 7] - arg[:, 0], 0.0)
    gamma = np.where(phased[:, 1] & phased[:, 2], arg[:, 2] - arg[:, 1], 0.0)
    beta = np.where(phased[:, 1] & phased[:, 4], arg[:, 4] - arg[:, 1], 0.0)
    return ghz, phi, w, gamma, beta


def ghz_condition(p: states.AcinParams) -> bool:
    """Canonical-form detection condition for the GHZ family: (l0+l4)^2 > 1."""
    return (p.lambda0 + p.lambda4) ** 2 > 1.0


def w_condition(p: states.AcinParams) -> bool:
    """Canonical-form detection condition for the W family: (l1+l2+l3)^2 > 2."""
    return (p.lambda1 + p.lambda2 + p.lambda3) ** 2 > 2.0


def min_ghz_expectation_mixed(rho) -> tuple[float, float]:
    """Minimum over phi of Tr(W_GHZ(phi) rho), in closed form.

    <GHZ(phi)|rho|GHZ(phi)> = (rho_00 + rho_77 + 2 Re(e^{i phi} rho_07))/2
    peaks at phi = -arg(rho_07).
    """
    value, phi = _ghz_min(states.check_density_matrix(rho)[None])
    return float(value[0]), float(phi[0])


def _ghz_min(rhos: np.ndarray) -> tuple:
    """GHZ minima and their phases, arrays (N,), of validated (N, 8, 8) matrices."""
    r07 = rhos[:, 0, 7]
    mod = np.hypot(r07.real, r07.imag)
    value = 0.5 - (rhos[:, 0, 0].real + rhos[:, 7, 7].real + 2.0 * mod) / 2.0
    return value, np.where(mod > _PHASE_EPS, -np.arctan2(r07.imag, r07.real), 0.0)


def min_w_expectation_mixed(rho) -> tuple[float, float, float]:
    """Minimum over (gamma, beta) of Tr(W_W(gamma, beta) rho).

    With m the 3x3 W-sector block, the overlap is

        (s + 2 Re(m01 e^{i gamma}) + 2 Re((m02 + m12 e^{-i gamma}) e^{i beta})) / 3

    so for fixed gamma the beta maximum is a modulus, leaving a
    one-dimensional profile in gamma.  Its maximum is a root of the slope,
    which squared is a sextic in e^{i gamma}, or the kink where the modulus
    vanishes; every such point is evaluated (see :func:`_w_min`).
    """
    value, gamma, beta = _w_min(states.check_density_matrix(rho)[None])
    return float(value[0]), float(gamma[0]), float(beta[0])


#: the companion matrix of a monic sextic less its first row
_SHIFT = _frozen(np.eye(6, k=-1, dtype=complex))

#: |c6| at or below this fraction of max(|c5|, |c3|) counts as 0: the m01 b = 0
#: limit's closed-form roots then move w_min by up to about half the ratio, while
#: the companion, whose unit-circle roots pair up there, errs by about 1e-24 / ratio
#: and overflows as c6 nears underflow; the two meet near 1e-12 (measured)
_FLAT_SEXTIC = 1e-12


def _w_min(rhos: np.ndarray) -> tuple:
    """W minima and their phases (gamma, beta), arrays (N,), of validated (N, 8, 8) matrices.

    Each row's profile in gamma is evaluated at nine candidates: 0, the
    kink arg(-b) of |m02 + m12 e^{-i gamma}|, the peak -arg(m01) of the
    m01 term alone and the angles of the sextic's six roots, all taken by
    one eigensolve of the stacked companion matrices (a root off the unit
    circle only adds a harmless candidate).  With z = e^{i gamma} and
    b = conj(m02) m12 the slope vanishes where Im(m01 z) |m02 + m12 / z|
    = Im(b / z); squared and times z^3 that is the sextic.  For
    S = |m02|^2 + |m12|^2 its coefficients, highest power first, are

        c6 = m01^2 conj(b),  c5 = m01^2 S - conj(b)^2,
        c4 = m01^2 b - 2 |m01|^2 conj(b),  c3 = 2 |b|^2 - 2 |m01|^2 S

    and c_k = conj(c_{6-k}).  As m01 b -> 0 both end coefficients vanish,
    and the sextic tends to a constant times z (u - conj(u) z^2)^2 with
    u = b as m01 -> 0 and u = conj(m01) as b -> 0.  Rows with c6 negligible
    (_FLAT_SEXTIC) take its roots +-e^{i arg u}, which add one candidate,
    arg(b): arg(-b) is the kink, -arg(m01) is fixed, and pi - arg(m01) is
    the profile's minimum when b = 0.  When m02 = m12 = 0 as well the
    sextic vanishes identically and the maximum is at -arg(m01).  Around the
    _FLAT_SEXTIC crossover the companion roots and the closed-form limit
    each carry only about half their digits, so rows with |c6| at most
    sqrt(_FLAT_SEXTIC) max(|c5|, |c3|) give their best candidate one Newton
    step on the slope, kept where it raises the profile (above that band
    the step raised it by no more than rounding, measured).
    """
    n = len(rhos)
    i, j, k = W_SECTOR
    s = rhos[:, i, i].real + rhos[:, j, j].real + rhos[:, k, k].real
    m01, m02, m12 = rhos[:, i, j], rhos[:, i, k], rhos[:, j, k]
    b = m02.conj() * m12
    sq01, norm01 = m01 * m01, (m01 * m01.conj()).real
    size = (m02 * m02.conj()).real + (m12 * m12.conj()).real
    c6 = sq01 * b.conj()
    c5 = sq01 * size - b.conj() ** 2
    c4 = sq01 * b - 2.0 * norm01 * b.conj()
    c3 = 2.0 * ((b * b.conj()).real - norm01 * size)
    gammas = np.zeros((n, 9))
    gammas[:, 1] = np.arctan2(-b.imag, -b.real)
    gammas[:, 2] = -np.arctan2(m01.imag, m01.real)
    lead, scale = np.abs(c6), np.maximum(np.abs(c5), np.abs(c3))
    flat = lead <= _FLAT_SEXTIC * scale
    live = slice(None)
    if np.logical_or.reduce(flat):
        live = ~flat
        # the other root slots stay at gamma = 0, already a candidate
        gammas[flat, 3] = np.arctan2(b[flat].imag, b[flat].real)
    # the first row of each monic companion, -(c5, ..., c0) / c6
    top = -np.array([c5, c4, c3, c4.conj(), c5.conj(), c6.conj()]).T[live] / c6[live, None]
    companion = np.empty(top.shape + (6,), dtype=complex)
    companion[:] = _SHIFT
    companion[:, 0] = top
    roots = np.linalg.eigvals(companion)
    gammas[live, 3:] = np.arctan2(roots.imag, roots.real)
    rot = np.exp(1j * gammas)
    combined = m02[:, None] + m12[:, None] * rot.conj()
    profile = 2.0 * (m01[:, None] * rot).real + 2.0 * np.abs(combined)
    pick = np.arange(n), np.argmax(profile, axis=1)
    gamma, best, combined = gammas[pick], profile[pick], combined[pick]
    # Im(lift) is half the profile's slope and curve minus half its curvature;
    # |c| is floored at _PHASE_EPS, and a point that is not concave takes no step
    near = (lead <= _FLAT_SEXTIC**0.5 * scale).nonzero()[0]
    if len(near):
        rot, mod = rot[pick][near], np.maximum(np.abs(combined[near]), _PHASE_EPS)
        kink = b[near] / rot / mod
        lift = kink + (m01[near] * rot).conj()
        curve = lift.real + kink.imag**2 / mod
        newton = gamma[near] + lift.imag / np.where(curve > 0.0, curve, np.inf)
        rot = np.exp(1j * newton)
        moved = m02[near] + m12[near] / rot
        raised = 2.0 * ((m01[near] * rot).real + np.abs(moved))
        up = raised > best[near]
        gamma[near[up]], best[near[up]], combined[near[up]] = newton[up], raised[up], moved[up]
    beta = np.where(np.abs(combined) > _PHASE_EPS, -np.arctan2(combined.imag, combined.real), 0.0)
    return 2.0 / 3.0 - (s + best) / 3.0, np.mod(gamma, 2.0 * np.pi), np.mod(beta, 2.0 * np.pi)


def ghzw_criterion(rho) -> CriterionVerdict:
    """Run both family minimizations on a density matrix.

    Every input, rank 1 included, takes the mixed minimizations; on a
    projector they agree with :func:`ghzw_criterion_pure` to rounding.
    """
    rhos = states.check_density_matrix(rho)[None]
    return CriterionVerdict(*(float(m[0]) for m in _ghz_min(rhos) + _w_min(rhos)))


def ghzw_criterion_pure(psi) -> CriterionVerdict:
    """Criterion verdict for a pure state via the closed forms."""
    return _pure_verdict(states.check_pure(psi))


def _pure_verdict(psi: np.ndarray) -> CriterionVerdict:
    return CriterionVerdict(*(float(m[0]) for m in _pure_minima(psi[None])))
