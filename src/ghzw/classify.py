"""Pure-state entanglement certification.

Bipartition Schmidt data, genuine tripartite entanglement, the
three-tangle (Cayley hyperdeterminant invariant), and a partial
transpose sanity check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qcore, states

CUTS = ("A", "B", "C")

DEFAULT_BISEP_TOL = 1e-9


@dataclass(frozen=True)
class EntanglementReport:
    schmidt_by_cut: dict
    genuinely_entangled: bool
    biseparable_cuts: list = field(default_factory=list)
    three_tangle: float = 0.0

    def to_dict(self) -> dict:
        return {
            "genuinely_entangled": self.genuinely_entangled,
            "biseparable_cuts": list(self.biseparable_cuts),
            "three_tangle": self.three_tangle,
            "schmidt_by_cut": {k: list(v) for k, v in self.schmidt_by_cut.items()},
        }


def bipartition_schmidt(psi, cut) -> tuple[float, float]:
    """Squared Schmidt coefficients of the solo-vs-pair cut, descending."""
    hi, lo = qcore._reduced_spectra(states.check_pure(psi)[None])[0, qcore.qubit_slot(cut)]
    return float(hi), float(lo)


def three_tangle(psi) -> float:
    """Three-tangle 4|Hdet| of the amplitude tensor, in [0, 1].

    Hdet is Cayley's 2x2x2 hyperdeterminant; it vanishes on product and
    W-class states and reaches 1/4 on GHZ.
    """
    return float(_three_tangle(states.check_pure(psi)[None])[0])


def _tangle(c0, c1, c2, c3, c4, c5, c6, c7) -> float:
    """Three-tangle 4|d1 - 2 d2 + 4 d3|, at most 1, of eight complex amplitudes.

    Hdet = d1 - 2 d2 + 4 d3 is Cayley's hyperdeterminant, with amplitude
    c_k at basis index k = 4a + 2b + c.  A d1 term is (c_i c_i)(c_j c_j),
    a d2 or d3 term the product of its factors from left to right, and
    each sum runs in the order written.
    """
    d1 = (c0 * c0) * (c7 * c7) + (c1 * c1) * (c6 * c6) + (c2 * c2) * (c5 * c5) + (c4 * c4) * (c3 * c3)
    d2 = (
        c0 * c7 * c3 * c4 + c0 * c7 * c5 * c2 + c0 * c7 * c6 * c1 + c3 * c4 * c5 * c2 + c3 * c4 * c6 * c1 + c5 * c2 * c6 * c1
    )
    d3 = c0 * c6 * c5 * c3 + c7 * c1 * c2 * c4
    return min(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3), 1.0)


def _three_tangle(kets: np.ndarray) -> np.ndarray:
    """Three-tangles (N,) of validated (N, 8) kets, one ket at a time in Python complex arithmetic."""
    return np.array([_tangle(*c) for c in kets.tolist()], dtype=float)


def _biseparable(spectra: np.ndarray, tol: float = DEFAULT_BISEP_TOL) -> np.ndarray:
    """Which cuts of (..., 3, 2) reduced spectra are biseparable: second value <= tol."""
    return spectra[..., 1] <= tol


def is_genuinely_entangled_pure(psi, tol: float = DEFAULT_BISEP_TOL) -> EntanglementReport:
    """Certify genuine tripartite entanglement of a pure state.

    A cut is biseparable when its second squared Schmidt coefficient is
    at most `tol`; the state is genuinely entangled when no cut is.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")
    kets = states.check_pure(psi)[None]
    spectra = qcore._reduced_spectra(kets)[0]
    bisep = [cut for cut, flag in zip(CUTS, _biseparable(spectra, tol)) if flag]
    return EntanglementReport(
        schmidt_by_cut={cut: tuple(pair) for cut, pair in zip(CUTS, spectra.tolist())},
        genuinely_entangled=not bisep,
        biseparable_cuts=bisep,
        three_tangle=float(_three_tangle(kets)[0]),
    )


def ppt_min_eigenvalue(rho, cut) -> float:
    """Minimum eigenvalue of the partial transpose across the cut.

    Nonnegative (within numerical slack) for states separable across
    that cut; negative values flag entanglement across it.
    """
    return _ppt_min_eigenvalue(states.check_density_matrix(rho), cut)


def _ppt_min_eigenvalue(rho: np.ndarray, cut) -> float:
    """ppt_min_eigenvalue of a checked rho; its partial transpose keeps rho's Hermitian slack."""
    return float(np.linalg.eigvalsh(qcore._hermitian_part(qcore._partial_transpose(rho, cut)))[0])
