"""Witness operators of the form Lambda*I - |psi><psi|.

The constant Lambda is the maximum squared overlap between the
reference state and the biseparable set (states product across at least
one bipartition).  Two routes read it off the same cut matrices
(``qcore._SOLO_INDEX``) and share nothing else: the reduced spectra in
closed form (hypot top value, Lagrange-identity determinant), and seeded
alternating ascents, at the default budget the power method on each
cut's Gram matrix G = m m^H by matmul; the starts matter only at small iters.
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
    """Tr(W rho) = lambda_const - <ref|rho|ref> on a density matrix rho (states.check_density_matrix)."""
    rho = states.check_density_matrix(rho)
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


#: a trace-normalised Gram power that one squaring moves by no more than this
#: is a fixed point (a projector, or half the identity at a tie), so every
#: later factor of the power is the same matrix
_FIXED_POINT_TOL = 1e-15


def _ascents(mats: np.ndarray, starts: np.ndarray, iters: int) -> np.ndarray:
    """Overlaps (..., K) of `iters`-step alternating ascents of |<u (x) v|m>|^2.

    An ascent on cut matrix mats[k] (2x4) from the ket starts[..., k] steps
    u <- m v*, then v* <- m^H u, each normalised.  With G = m m^H its step i
    reaches the Rayleigh quotient of G at G^(i-1) m v0*, so the kernel forms
    G^(iters-1) of each cut once, by squaring G over its trace until a fixed
    point, and applies it to every start in one product.  A start with
    m v0* = 0 ends at overlap 0.
    """
    gram = mats @ mats.conj().swapaxes(-1, -2)
    power, square, n = np.eye(2), gram, iters - 1
    while n:
        if n & 1:
            power = square @ power
        n >>= 1
        if n:
            last, square = square, square @ square
            # the complex trace: a rounding phase left on the top eigenvalue would double per squaring
            square = square / np.trace(square, axis1=-2, axis2=-1)[..., None, None]
            if np.abs(square - last).max() <= _FIXED_POINT_TOL:
                power = square @ power
                break
    x = (power @ (mats @ starts.conj()[..., None]))[..., 0]
    norm = (x.real**2 + x.imag**2).sum(-1)
    return (x.conj() * (gram @ x[..., None])[..., 0]).real.sum(-1) / np.where(norm == 0.0, 1.0, norm)


def lambda_bound_stochastic(psi, seed: int, restarts: int = 32, iters: int = 2**60) -> float:
    """Seeded alternating-ascent estimate of the biseparable overlap bound.

    Restart r takes draws 24r to 24r + 23 of one default_rng(seed) stream,
    one start ket per solo-vs-pair cut, so the starts of k restarts are a
    prefix of those of more.  The bound is the largest overlap that the
    3 * restarts ascents reach after `iters` power steps each (see
    :func:`_ascents`: matrix products only, no step-by-step loop).  The
    default budget resolves a gap between a cut's two squared Schmidt
    values down to rounding, so the bound meets the analytic one to
    rounding even where they nearly tie.  seed must be >= 0; restarts
    and iters must be >= 1.
    """
    seed, restarts, iters = operator.index(seed), operator.index(restarts), operator.index(iters)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if restarts < 1 or iters < 1:
        raise ValueError("restarts and iters must be >= 1")
    psi = states.check_pure(psi)
    draws = np.random.default_rng(seed).standard_normal((restarts, 3, 2, 4))
    return float(_ascents(psi[qcore._SOLO_INDEX], draws[:, :, 0] + 1j * draws[:, :, 1], iters).max())


def custom_witness(psi) -> Witness:
    """Witness with reference psi and the analytic biseparable bound."""
    return Witness(psi, lambda_bound_analytic(psi))
