"""The GHZ/W detection criterion.

Each witness family is minimized over its phase parameters; a state is
"detected" when some member of a family reaches an expectation below
-BOUNDARY_TOL (see :func:`detects`).  Pure states admit closed-form
minima; every density matrix, rank 1 included, takes the mixed route: a
closed form for the GHZ family and, for the W family, the roots of a
sextic that holds every stationary phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import states

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


def _squares(x: np.ndarray) -> np.ndarray:
    # Python's ** (libm pow) can round x**2 one ulp away from numpy's x*x;
    # squaring as the scalar closed forms always did keeps outputs stable
    return np.array([v**2 for v in x.tolist()])


def _pure_minima(kets: np.ndarray) -> tuple:
    """Both pure-state minima with their phases on validated (N, 8) kets.

    Arrays (N,) of ghz_min, ghz_opt_phi, w_min, w_opt_gamma and w_opt_beta,
    in the order of :class:`CriterionVerdict`'s fields.  A phase whose
    amplitudes vanish (below _PHASE_EPS) is 0 by convention.
    """
    mod = np.hypot(kets.real, kets.imag)  # rounds as scalar abs(); np.abs may not
    arg = np.angle(kets)
    ghz = 0.5 - _squares(mod[:, 0] + mod[:, 7]) / 2.0
    w = 2.0 / 3.0 - _squares(mod[:, 1] + mod[:, 2] + mod[:, 4]) / 3.0
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
    return value, np.where(mod > _PHASE_EPS, -np.angle(r07), 0.0)


def min_w_expectation_mixed(rho) -> tuple[float, float, float]:
    """Minimum over (gamma, beta) of Tr(W_W(gamma, beta) rho).

    With m the 3x3 W-sector block, the overlap is

        (s + 2 Re(m01 e^{i gamma}) + 2 Re((m02 + m12 e^{-i gamma}) e^{i beta})) / 3

    so for fixed gamma the beta maximum is a modulus, leaving a
    one-dimensional profile in gamma.  Its maximum is a root of the slope,
    which squared is a sextic in e^{i gamma}, or the kink where the modulus
    vanishes; every such point is evaluated.  When m02 = m12 = 0 the
    sextic vanishes identically and the maximum is at gamma = -arg(m01).
    """
    return _w_min(states.check_density_matrix(rho))


def _w_min(rho: np.ndarray) -> tuple[float, float, float]:
    m = rho[np.ix_(W_SECTOR, W_SECTOR)]
    s = m[0, 0].real + m[1, 1].real + m[2, 2].real
    m01, m02, m12 = m[0, 1], m[0, 2], m[1, 2]
    b = np.conj(m02) * m12

    def profile(gamma):
        return 2.0 * (m01 * np.exp(1j * gamma)).real + 2.0 * np.abs(
            m02 + m12 * np.exp(-1j * gamma)
        )

    # Laurent coefficients in z = e^{i gamma} of 2i Im(m01 z), |c|^2 and
    # 2i Im(B z^-1), lowest power first; the slope vanishes where
    # Im(m01 z)|c| = Im(B z^-1), so its square is z^-3 times a sextic
    im_a = np.array([-np.conj(m01), 0.0, m01])
    mod_c = np.array([b, abs(m02) ** 2 + abs(m12) ** 2, np.conj(b)])
    im_b = np.array([b, 0.0, -np.conj(b)])
    sextic = np.convolve(np.convolve(im_a, im_a), mod_c) - np.pad(np.convolve(im_b, im_b), 1)
    # every root's angle is a candidate (one off the unit circle only adds a
    # harmless one), as are gamma = 0, the kink of |c| at c = 0 and the peak
    # of the m01 term alone, the maximum when the sextic vanishes identically
    gammas = np.concatenate([[0.0, np.angle(-b), -np.angle(m01)], np.angle(np.roots(sextic[::-1]))])
    gamma = float(gammas[int(np.argmax(profile(gammas)))])
    overlap = (s + float(profile(gamma))) / 3.0
    combined = m02 + m12 * np.exp(-1j * gamma)
    beta = float(-np.angle(combined)) if abs(combined) > _PHASE_EPS else 0.0
    gamma = float(np.mod(gamma, 2.0 * np.pi))
    beta = float(np.mod(beta, 2.0 * np.pi))
    return float(2.0 / 3.0 - overlap), gamma, beta


def ghzw_criterion(rho) -> CriterionVerdict:
    """Run both family minimizations on a density matrix.

    Every input, rank 1 included, takes the mixed minimizations; on a
    projector they agree with :func:`ghzw_criterion_pure` to rounding.
    """
    rho = states.check_density_matrix(rho)
    value, phi = _ghz_min(rho[None])
    return CriterionVerdict(float(value[0]), float(phi[0]), *_w_min(rho))


def ghzw_criterion_pure(psi) -> CriterionVerdict:
    """Criterion verdict for a pure state via the closed forms."""
    return _pure_verdict(states.check_pure(psi))


def _pure_verdict(psi: np.ndarray) -> CriterionVerdict:
    return CriterionVerdict(*(float(m[0]) for m in _pure_minima(psi[None])))
