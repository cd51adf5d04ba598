"""Witness operators of the form Lambda*I - |psi><psi|.

The constant Lambda is the maximum squared overlap between the
reference state and the biseparable set (states product across at least
one bipartition).  Two independent routes compute it: a closed form via
reduced-state eigenvalues, and a seeded alternating-ascent search over
biseparable product states.
"""

from __future__ import annotations

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
    rho = qcore.as_operator(rho, dim=8)
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


def _ascend_cut(psi: np.ndarray, slot: int, rng: np.random.Generator, iters: int) -> float:
    """Alternating ascent of |<u (x) v|psi>|^2 over one solo-vs-pair cut."""
    m = psi[qcore._SOLO_INDEX[slot]]
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    overlap = 0.0
    for _ in range(iters):
        u = m @ v.conj()
        nu = np.linalg.norm(u)
        if nu == 0.0:
            break
        u /= nu
        v = (m.conj().T @ u).conj()
        nv = np.linalg.norm(v)
        if nv == 0.0:
            break
        v /= nv
        new = abs(np.vdot(u, m @ v.conj())) ** 2
        if new - overlap < 1e-15:
            overlap = new
            break
        overlap = new
    return overlap


def lambda_bound_stochastic(psi, seed: int, restarts: int = 32, iters: int = 500) -> float:
    """Seeded hill-climbing estimate of the biseparable overlap bound.

    Each restart alternates exact conditional optima between the solo
    ket and the pair ket (power iteration on the cut's Gram matrix);
    restarts cycle over the three cuts with per-restart seeds derived
    as seed + restart index.
    """
    if restarts < 1 or iters < 1:
        raise ValueError("restarts and iters must be >= 1")
    psi = states.check_pure(psi)
    best = 0.0
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        for slot in range(3):
            best = max(best, _ascend_cut(psi, slot, rng, iters))
    return best


def custom_witness(psi) -> Witness:
    """Witness with reference psi and the analytic biseparable bound."""
    return Witness(psi, lambda_bound_analytic(psi))
