"""Constructors for the three-qubit states used throughout the toolkit.

Everything returns plain numpy arrays: pure states as unit-norm kets of
dimension 8, density matrices as 8x8 Hermitian PSD unit-trace matrices.
Amplitude ordering follows the basis convention in :mod:`ghzw.qcore`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import qcore

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)
SQRT5 = np.sqrt(5.0)

#: basis indices of the five-term generalized Schmidt support
ACIN_SUPPORT = (0, 1, 2, 4, 7)

NORM_TOL = 1e-12  # slack of a ket's norm^2 and of mixture weights' sum
DM_TOL = 1e-10  # slack of a density matrix's trace and lowest eigenvalue
HERMITICITY_TOL = 1e-10  # largest |rho - rho^H| entry of a density matrix
_ACIN_NORM_TOL = 1e-10  # slack of the canonical form's sum of lambda_i^2


@dataclass(frozen=True)
class AcinParams:
    """Five nonnegative amplitudes and one phase of the canonical form.

    Constraints: sum of lambda_i^2 equals 1, alpha in [0, pi].
    """

    lambda0: float
    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float
    alpha: float = 0.0

    def __post_init__(self):
        lams = self.lambdas
        if not np.isfinite(lams).all() or not np.isfinite(self.alpha):
            raise ValueError("AcinParams entries must be finite")
        if (lams < 0).any():
            raise ValueError("lambda_i must be nonnegative")
        if abs((lams**2).sum() - 1.0) > _ACIN_NORM_TOL:
            raise ValueError(f"sum of lambda_i^2 must equal 1 within {_ACIN_NORM_TOL}")
        if not (0.0 <= self.alpha <= np.pi):
            raise ValueError("alpha must lie in [0, pi]")

    @property
    def lambdas(self) -> np.ndarray:
        return np.array(
            [self.lambda0, self.lambda1, self.lambda2, self.lambda3, self.lambda4]
        )


def check_pure(psi) -> np.ndarray:
    """Validate one unit-norm ket of 8 amplitudes, in any shape: check_kets on a batch of one."""
    psi = np.asarray(psi, dtype=complex)
    return check_kets(psi.reshape(1, psi.size))[0]


def check_kets(kets) -> np.ndarray:
    """Validate an (N, 8) batch of kets: shape, finiteness and unit norm, each once.

    The package's one ket check.  Public entry points call it (or
    check_pure) once; the kernels behind them check nothing again.
    """
    kets = np.asarray(kets, dtype=complex)
    if kets.ndim != 2 or kets.shape[1] != 8:
        raise ValueError(f"kets must hold 8 amplitudes each, got shape {kets.shape}")
    if not np.isfinite(kets).all():
        raise ValueError("ket amplitudes must be finite")
    norm_sq = (kets * kets.conj()).real.sum(axis=1)
    if (np.abs(norm_sq - 1.0) > NORM_TOL).any():
        raise ValueError(f"state norm^2 deviates from 1 by more than {NORM_TOL}")
    return kets


def check_density_matrix(rho) -> np.ndarray:
    """Validate an 8x8 Hermitian, PSD, unit-trace matrix and return it unchanged.

    The package's one density-matrix check: shape, finiteness,
    Hermiticity, trace and spectrum, each once.  Code given its result
    checks nothing again.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (8, 8):
        raise ValueError(f"operator must be 8x8, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("operator entries must be finite")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValueError(f"density matrix is not Hermitian within {HERMITICITY_TOL}")
    if abs(np.trace(rho).real - 1.0) > DM_TOL:
        raise ValueError(f"density matrix trace deviates from 1 by more than {DM_TOL}")
    if np.linalg.eigvalsh(qcore._hermitian_part(rho))[0] < -DM_TOL:
        raise ValueError(f"density matrix has an eigenvalue below {-DM_TOL}")
    return rho


def make_ghz(phi=0.0) -> np.ndarray:
    """(|000> + e^{i phi}|111>)/sqrt(2); an array of phases gives one ket per entry."""
    phi = np.asarray(phi, dtype=float)
    psi = np.zeros(phi.shape + (8,), dtype=complex)
    psi[..., 0] = 1.0 / SQRT2
    psi[..., 7] = np.exp(1j * phi) / SQRT2
    return psi


def make_w(gamma=0.0, beta=0.0) -> np.ndarray:
    """(|001> + e^{i gamma}|010> + e^{i beta}|100>)/sqrt(3); phases broadcast as make_ghz's."""
    gamma, beta = np.asarray(gamma, dtype=float), np.asarray(beta, dtype=float)
    psi = np.zeros(np.broadcast_shapes(gamma.shape, beta.shape) + (8,), dtype=complex)
    psi[..., 1] = 1.0 / SQRT3
    psi[..., 2] = np.exp(1j * gamma) / SQRT3
    psi[..., 4] = np.exp(1j * beta) / SQRT3
    return psi


def make_acin(p: AcinParams) -> np.ndarray:
    """Five-term canonical-form state from its parameters: _acin_kets on a batch of one."""
    return _acin_kets(p.lambdas, p.alpha)


def _acin_kets(lams, alpha) -> np.ndarray:
    """Five-term kets (..., 8) from lambdas (..., 5) and alphas (...), the phase e^{i alpha} on |001>."""
    lams = np.asarray(lams, dtype=float)
    psi = np.zeros(lams.shape[:-1] + (8,), dtype=complex)
    psi[..., ACIN_SUPPORT] = lams
    psi[..., 1] *= np.exp(1j * np.asarray(alpha))
    return psi


def make_xi() -> np.ndarray:
    """The equal-weight five-term state that evades both witness families."""
    return _acin_kets(np.full(5, 1.0 / SQRT5), 0.0)


def make_superposition(a_sq, phi=0.0, gamma=0.0, beta=0.0, rel_phase_ab=0.0) -> np.ndarray:
    """sqrt(a_sq) GHZ(phi) + sqrt(1 - a_sq) e^{i rel_phase_ab} W(gamma, beta).

    Unit norm, since GHZ and W are orthogonal.  Broadcasts over its
    arguments: an array of a_sq gives kets of shape a_sq.shape + (8,).
    Raises ValueError unless every a_sq lies in [0, 1].
    """
    a_sq = np.asarray(a_sq, dtype=float)
    if not ((a_sq >= 0.0) & (a_sq <= 1.0)).all():
        raise ValueError("a_sq must lie in [0, 1]")
    a = np.sqrt(a_sq)[..., None]
    b = (np.sqrt(1.0 - a_sq) * np.exp(1j * np.asarray(rel_phase_ab)))[..., None]
    return a * make_ghz(phi) + b * make_w(gamma, beta)


def haar_random_pure(seed: int) -> np.ndarray:
    """Haar-random three-qubit pure state, deterministic per seed."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return amps / np.linalg.norm(amps)


def mix(components) -> np.ndarray:
    """Density matrix of a convex mixture of pure states.

    `components` is a sequence of (weight, ket) pairs with finite,
    nonnegative weights summing to 1.
    """
    weights = np.array([float(p) for p, _ in components])
    # a NaN weight fails neither comparison below
    if not np.all(np.isfinite(weights)):
        raise ValueError("mixture weights must be finite")
    if np.any(weights < 0):
        raise ValueError("mixture weights must be nonnegative")
    if abs(weights.sum() - 1.0) > NORM_TOL:
        raise ValueError(f"mixture weights must sum to 1 within {NORM_TOL}")
    kets = np.array([check_pure(psi) for _, psi in components])
    return _mix(weights[None], kets[None])[0]


def _mix(weights: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Density matrices (M, 8, 8) from (M, K) weights and (M, K, 8) checked kets.

    Projectors are added in component order; an einsum would round differently.
    """
    projectors = kets[:, :, :, None] * kets[:, :, None, :].conj()
    rhos = np.zeros((len(kets), 8, 8), dtype=complex)
    for k in range(kets.shape[1]):
        rhos += weights[:, k, None, None] * projectors[:, k]
    return rhos


# ---------------------------------------------------------------------------
# JSON file formats (shared with the CLI): {"dims": [2, 2, 2]} plus the
# "amplitudes" of a ket or the "matrix" of a density matrix, each entry an
# [re, im] pair


def _parse_pairs(obj, key: str, shape: tuple, what: str) -> np.ndarray:
    """The complex array of the given shape under obj[key], a nest of [re, im] pairs."""
    dims = obj.get("dims") if isinstance(obj, dict) else None
    if dims != [2, 2, 2]:
        raise ValueError(f"{what} file dims must be [2, 2, 2], got {dims!r}")
    pairs = np.array(obj.get(key))
    if pairs.shape != shape + (2,) or pairs.dtype.kind not in "biuf":
        size = " x ".join(map(str, shape))
        raise ValueError(f"{what} file {key!r} must hold {size} [re, im] number pairs")
    # a view of (re, im) float pairs as complex is exactly complex(re, im)
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


def state_from_dict(obj: dict) -> np.ndarray:
    return check_pure(_parse_pairs(obj, "amplitudes", (8,), "state"))


def rho_from_dict(obj: dict) -> np.ndarray:
    return check_density_matrix(_parse_pairs(obj, "matrix", (8, 8), "density"))


def _atomic_write(path: str, text: str) -> None:
    """Write text to path through a sibling temp file and a rename.

    The temp file is opened with mode 0o666, so the umask applies as it
    would for open(path, "w"); mkstemp's 0o600 would leak into path.  An
    OSError names path, never the temp file, and keeps the failed call's errno.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f"tmp{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc


def load_state(path: str) -> np.ndarray:
    with open(path) as fh:
        return state_from_dict(json.load(fh))


def load_rho(path: str) -> np.ndarray:
    with open(path) as fh:
        return rho_from_dict(json.load(fh))
