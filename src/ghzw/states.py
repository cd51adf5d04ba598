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

NORM_TOL = 1e-12  # slack of a ket's norm^2, of |a|^2 + |b|^2 and of mixture weights' sum
DM_TOL = 1e-10  # slack of a density matrix's trace and lowest eigenvalue (Hermiticity: qcore)
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
        if not np.all(np.isfinite(lams)) or not np.isfinite(self.alpha):
            raise ValueError("AcinParams entries must be finite")
        if np.any(lams < 0):
            raise ValueError("lambda_i must be nonnegative")
        if abs(np.sum(lams**2) - 1.0) > _ACIN_NORM_TOL:
            raise ValueError(f"sum of lambda_i^2 must equal 1 within {_ACIN_NORM_TOL}")
        if not (0.0 <= self.alpha <= np.pi):
            raise ValueError("alpha must lie in [0, pi]")

    @property
    def lambdas(self) -> np.ndarray:
        return np.array(
            [self.lambda0, self.lambda1, self.lambda2, self.lambda3, self.lambda4]
        )


@dataclass(frozen=True)
class SuperpositionParams:
    """Complex weights and phases of a GHZ/W superposition."""

    a: complex
    b: complex
    phi: float = 0.0
    gamma: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if abs(abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0) > NORM_TOL:
            raise ValueError(f"|a|^2 + |b|^2 must equal 1 within {NORM_TOL}")


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

    The package's one density-matrix check: shape and finiteness
    (qcore.as_operator), Hermiticity, trace and spectrum, each once.
    Code given its result checks nothing again.
    """
    rho = qcore.as_operator(rho, dim=8)
    sym = qcore._hermitian_part(rho, "density matrix")
    if abs(np.trace(rho).real - 1.0) > DM_TOL:
        raise ValueError(f"density matrix trace deviates from 1 by more than {DM_TOL}")
    if np.linalg.eigvalsh(sym)[0] < -DM_TOL:
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
    """Five-term canonical-form state from its parameters."""
    psi = np.zeros(8, dtype=complex)
    psi[0] = p.lambda0
    psi[1] = p.lambda1 * np.exp(1j * p.alpha)
    psi[2] = p.lambda2
    psi[4] = p.lambda3
    psi[7] = p.lambda4
    return psi


def make_xi() -> np.ndarray:
    """The equal-weight five-term state that evades both witness families."""
    psi = np.zeros(8, dtype=complex)
    psi[list(ACIN_SUPPORT)] = 1.0 / SQRT5
    return psi


def make_superposition(s: SuperpositionParams) -> np.ndarray:
    """a*GHZ(phi) + b*W(gamma, beta); unit norm since GHZ and W are orthogonal."""
    return s.a * make_ghz(s.phi) + s.b * make_w(s.gamma, s.beta)


def haar_random_pure(seed: int) -> np.ndarray:
    """Haar-random three-qubit pure state, deterministic per seed."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return amps / np.linalg.norm(amps)


def mix(components) -> np.ndarray:
    """Density matrix of a convex mixture of pure states.

    `components` is a sequence of (weight, ket) pairs with nonnegative
    weights summing to 1.
    """
    weights = np.array([float(p) for p, _ in components])
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
# JSON file formats (shared with the CLI)


def state_to_dict(psi) -> dict:
    psi = check_pure(psi)
    return {"dims": [2, 2, 2], "amplitudes": [[z.real, z.imag] for z in psi]}


def state_from_dict(obj: dict) -> np.ndarray:
    if obj.get("dims") != [2, 2, 2]:
        raise ValueError(f"state file dims must be [2, 2, 2], got {obj.get('dims')!r}")
    amps = obj.get("amplitudes")
    if not isinstance(amps, list) or len(amps) != 8:
        raise ValueError("state file must carry exactly 8 [re, im] amplitude pairs")
    psi = np.array([complex(re, im) for re, im in amps])
    return check_pure(psi)


def rho_to_dict(rho) -> dict:
    rho = check_density_matrix(rho)
    return {
        "dims": [2, 2, 2],
        "matrix": [[[z.real, z.imag] for z in row] for row in rho],
    }


def rho_from_dict(obj: dict) -> np.ndarray:
    if obj.get("dims") != [2, 2, 2]:
        raise ValueError(f"density file dims must be [2, 2, 2], got {obj.get('dims')!r}")
    rows = obj.get("matrix")
    if not isinstance(rows, list) or len(rows) != 8 or any(len(r) != 8 for r in rows):
        raise ValueError("density file must carry an 8x8 matrix of [re, im] pairs")
    rho = np.array([[complex(re, im) for re, im in row] for row in rows])
    return check_density_matrix(rho)


def _atomic_write(path: str, text: str) -> None:
    """Write text to path through a sibling temp file and a rename.

    The temp file is opened with mode 0o666, so the umask applies as it
    would for open(path, "w"); mkstemp's 0o600 would leak into path.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f"tmp{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_state(psi, path: str) -> None:
    _atomic_write(path, json.dumps(state_to_dict(psi)))


def load_state(path: str) -> np.ndarray:
    with open(path) as fh:
        return state_from_dict(json.load(fh))


def save_rho(rho, path: str) -> None:
    _atomic_write(path, json.dumps(rho_to_dict(rho)))


def load_rho(path: str) -> np.ndarray:
    with open(path) as fh:
        return rho_from_dict(json.load(fh))
