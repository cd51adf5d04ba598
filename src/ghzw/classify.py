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
            "schmidt_by_cut": {k: list(v) for k, v in self.schmidt_by_cut.items()},
            "genuinely_entangled": self.genuinely_entangled,
            "biseparable_cuts": list(self.biseparable_cuts),
            "three_tangle": self.three_tangle,
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


#: factors of the hyperdeterminant's terms by basis index 4a + 2b + c:
#: the four squared pairs of d1, then the six quartics of d2 and two of d3
_HDET_FACTORS = np.array(
    [[0, 0, 7, 7], [1, 1, 6, 6], [2, 2, 5, 5], [4, 4, 3, 3], [0, 7, 3, 4], [0, 7, 5, 2]]
    + [[0, 7, 6, 1], [3, 4, 5, 2], [3, 4, 6, 1], [5, 2, 6, 1], [0, 6, 5, 3], [7, 1, 2, 4]]
)


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Complex x * y rounded as numpy's scalar product; the array loop fuses multiply-adds."""
    return (x.real * y.real - x.imag * y.imag) + 1j * (x.real * y.imag + x.imag * y.real)


def _three_tangle(kets: np.ndarray) -> np.ndarray:
    """Three-tangles (N,) of validated (N, 8) kets: 4|d1 - 2 d2 + 4 d3|, at most 1.

    A d1 term is (c_i c_i)(c_j c_j), a d2 or d3 term the product of its
    factors from left to right, and each sum runs in table order.
    """
    f = kets.T[_HDET_FACTORS]
    head = _mul(f[:, 0], f[:, 1])
    d1 = _mul(head[:4], _mul(f[:4, 2], f[:4, 3]))
    q = _mul(_mul(head[4:], f[4:, 2]), f[4:, 3])
    hdet = np.add.accumulate(d1)[-1] - 2.0 * np.add.accumulate(q[:6])[-1] + 4.0 * (q[6] + q[7])
    return np.minimum(4.0 * np.hypot(hdet.real, hdet.imag), 1.0)


def _biseparable(spectra: np.ndarray, tol: float = DEFAULT_BISEP_TOL) -> np.ndarray:
    """Which cuts of (..., 3, 2) reduced spectra are biseparable: second value <= tol."""
    return spectra[..., 1] <= tol


def is_genuinely_entangled_pure(psi, tol: float = DEFAULT_BISEP_TOL) -> EntanglementReport:
    """Certify genuine tripartite entanglement of a pure state.

    A cut is biseparable when its second squared Schmidt coefficient is
    at most `tol`; the state is genuinely entangled when no cut is.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
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
