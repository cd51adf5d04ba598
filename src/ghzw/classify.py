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
    hi, lo = qcore._reduced_spectra(states.check_pure(psi))[qcore.qubit_slot(cut)]
    return float(hi), float(lo)


def three_tangle(psi) -> float:
    """Three-tangle 4|Hdet| of the amplitude tensor, in [0, 1].

    Hdet is Cayley's 2x2x2 hyperdeterminant; it vanishes on product and
    W-class states and reaches 1/4 on GHZ.
    """
    return _three_tangle(states.check_pure(psi))


def _three_tangle(psi: np.ndarray) -> float:
    c = psi.reshape(2, 2, 2)
    d1 = (
        c[0, 0, 0] ** 2 * c[1, 1, 1] ** 2
        + c[0, 0, 1] ** 2 * c[1, 1, 0] ** 2
        + c[0, 1, 0] ** 2 * c[1, 0, 1] ** 2
        + c[1, 0, 0] ** 2 * c[0, 1, 1] ** 2
    )
    d2 = (
        c[0, 0, 0] * c[1, 1, 1] * c[0, 1, 1] * c[1, 0, 0]
        + c[0, 0, 0] * c[1, 1, 1] * c[1, 0, 1] * c[0, 1, 0]
        + c[0, 0, 0] * c[1, 1, 1] * c[1, 1, 0] * c[0, 0, 1]
        + c[0, 1, 1] * c[1, 0, 0] * c[1, 0, 1] * c[0, 1, 0]
        + c[0, 1, 1] * c[1, 0, 0] * c[1, 1, 0] * c[0, 0, 1]
        + c[1, 0, 1] * c[0, 1, 0] * c[1, 1, 0] * c[0, 0, 1]
    )
    d3 = (
        c[0, 0, 0] * c[1, 1, 0] * c[1, 0, 1] * c[0, 1, 1]
        + c[1, 1, 1] * c[0, 0, 1] * c[0, 1, 0] * c[1, 0, 0]
    )
    hdet = d1 - 2.0 * d2 + 4.0 * d3
    return float(np.clip(4.0 * abs(hdet), 0.0, 1.0))


def is_genuinely_entangled_pure(psi, tol: float = DEFAULT_BISEP_TOL) -> EntanglementReport:
    """Certify genuine tripartite entanglement of a pure state.

    A cut is biseparable when its second squared Schmidt coefficient is
    at most `tol`; the state is genuinely entangled when no cut is.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    psi = states.check_pure(psi)
    spectra = qcore._reduced_spectra(psi)
    schmidt = {cut: (float(hi), float(lo)) for cut, (hi, lo) in zip(CUTS, spectra)}
    bisep = [cut for cut in CUTS if schmidt[cut][1] <= tol]
    return EntanglementReport(
        schmidt_by_cut=schmidt,
        genuinely_entangled=not bisep,
        biseparable_cuts=bisep,
        three_tangle=_three_tangle(psi),
    )


def ppt_min_eigenvalue(rho, cut) -> float:
    """Minimum eigenvalue of the partial transpose across the cut.

    Nonnegative (within numerical slack) for states separable across
    that cut; negative values flag entanglement across it.
    """
    return _ppt_min_eigenvalue(states.check_density_matrix(rho), cut)


def _ppt_min_eigenvalue(rho: np.ndarray, cut) -> float:
    return float(qcore.hermitian_eigs(qcore.partial_transpose(rho, cut))[0])
