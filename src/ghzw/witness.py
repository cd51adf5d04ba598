"""Witness operators of the form Lambda*I - |psi><psi|.

The constant Lambda is the maximum squared overlap between the
reference state and the biseparable set (states product across at least
one bipartition).  Two independent routes compute it: a closed form via
reduced-state eigenvalues, and a seeded search that runs all its
alternating ascents over biseparable product states as one array batch.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import qcore, states


@dataclass(frozen=True)
class Witness:
    """Reference pure state plus the constant of Lambda*I - |psi><psi|."""

    reference: np.ndarray
    lambda_const: float

    def __post_init__(self):
        object.__setattr__(self, "reference", states.check_pure(self.reference))
        if not 0.0 <= self.lambda_const <= 1.0:
            raise ValueError("lambda_const must lie in [0, 1]")

    def matrix(self) -> np.ndarray:
        return self.lambda_const * np.eye(8) - qcore.outer(self.reference)


def ghz_witness(phi: float = 0.0) -> Witness:
    """Optimal witness for the GHZ family: 1/2 - |GHZ(phi)><GHZ(phi)|."""
    return Witness(states.make_ghz(phi), 0.5)


def w_witness(gamma: float = 0.0, beta: float = 0.0) -> Witness:
    """Optimal witness for the W family: 2/3 - |W><W|."""
    return Witness(states.make_w(gamma, beta), 2.0 / 3.0)


def expectation(w: Witness, rho) -> float:
    """Tr(W rho) = lambda_const - <ref|rho|ref>."""
    rho = qcore.as_operator(rho)
    ref = w.reference
    return float(w.lambda_const - np.vdot(ref, rho @ ref).real)


def expectation_pure(w: Witness, psi) -> float:
    """Witness expectation on a pure state, lambda_const - |<ref|psi>|^2."""
    psi = states.check_pure(psi)
    return float(w.lambda_const - abs(np.vdot(w.reference, psi)) ** 2)


def lambda_bound_analytic(psi) -> float:
    """Max squared overlap of psi with the biseparable set, in closed form.

    Across a fixed cut the best biseparable pure state realizes the
    largest squared Schmidt coefficient, i.e. the top eigenvalue of the
    solo qubit's reduced state; the overall bound is the max over the
    three cuts.
    """
    return float(qcore._reduced_spectra(states.check_pure(psi)[None])[0, :, 0].max())


def _unit(x: np.ndarray) -> np.ndarray:
    """Columns x (K, n, 1) over their norms, each rounded as np.linalg.norm; zero columns stay zero."""
    norm = np.sqrt(sum(part.transpose(0, 2, 1) @ part for part in (x.real, x.imag)))
    return x / np.where(norm == 0.0, 1.0, norm)


def _ascend(mats: np.ndarray, starts: np.ndarray, iters: int) -> np.ndarray:
    """Overlaps (K,) of alternating ascents of |<u (x) v|m>|^2, one per cut matrix.

    Ascent k climbs on mats[k] (2x4) from the ket starts[k]: u <- m v*, then
    v* <- m^H u, each normalised, until its gain falls below 1e-15 or `iters`
    steps pass; a stopped ascent stays frozen.  A vanishing norm leaves zero
    columns, so that ascent ends at overlap 0 without a division by zero.
    """
    overlap = np.zeros(len(mats))
    live = np.ones(len(mats), dtype=bool)
    adj = mats.conj().transpose(0, 2, 1)
    m_vbar = mats @ _unit(starts.conj()[..., None])
    for _ in range(iters):
        u = _unit(m_vbar)
        m_vbar = mats @ _unit(adj @ u)
        new = np.abs(u.conj().transpose(0, 2, 1) @ m_vbar)[:, 0, 0] ** 2
        gain = new - overlap
        overlap = np.where(live, new, overlap)
        live &= gain >= 1e-15
        if not live.any():
            break
    return overlap


def lambda_bound_stochastic(psi, seed: int, restarts: int = 32, iters: int = 500) -> float:
    """Seeded hill-climbing estimate of the biseparable overlap bound.

    Restart r draws from default_rng(seed + r) one start ket per
    solo-vs-pair cut; all 3 * restarts ascents run as one batch, each with
    its own stop rule, and the bound is the largest overlap reached.  The
    stacked products make the BLAS calls of one ascent alone, so the bound
    agrees with running them one at a time to within 1e-15, in practice
    bit for bit.  seed must be >= 0; restarts and iters must be >= 1.

    Each ascent is a power iteration whose ratio is the ratio of the cut's
    two squared Schmidt values, so near-equal values converge slowly and
    stop at the `iters` cap short of the analytic bound: on
    cos t|000> + sin t|111> with seed 7 the shortfall is 4.2e-8 at
    cos^2 t = 0.501, 1.5e-7 at 0.5001 and 1e-14 at 0.51.
    """
    seed, restarts, iters = operator.index(seed), operator.index(restarts), operator.index(iters)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if restarts < 1 or iters < 1:
        raise ValueError("restarts and iters must be >= 1")
    psi = states.check_pure(psi)
    draws = np.stack([np.random.default_rng(seed + r).standard_normal((3, 2, 4)) for r in range(restarts)])
    starts = (draws[:, :, 0] + 1j * draws[:, :, 1]).reshape(-1, 4)
    return float(_ascend(np.tile(psi[qcore._SOLO_INDEX], (restarts, 1, 1)), starts, iters).max())


def custom_witness(psi) -> Witness:
    """Witness with reference psi and the analytic biseparable bound."""
    return Witness(psi, lambda_bound_analytic(psi))
