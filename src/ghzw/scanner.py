"""Parameter sweeps over the GHZ/W superposition family.

Reproduces the fooling window: states a*GHZ + b*W with
1/3 <= |a|^2 <= 1/2 evade both witness families, and seeded random
mixtures drawn from that window stay unwitnessed.

The window in closed form.  Let x = |a|^2, with any phases phi, gamma,
beta and any relative phase of a and b.  The amplitudes have moduli
sqrt(x/2) on |000>, |111> and sqrt((1 - x)/3) on |001>, |010>, |100>, so
the pure minima (1 - (|c0| + |c7|)^2)/2 and 2/3 - (|c1| + |c2| + |c4|)^2/3
are

    ghz_min = 1/2 - x,    w_min = x - 1/3,

and no member of either family detects the state exactly when
1/3 <= x <= 1/2, for every phase.  In each cut's 2x4 matrix (rows r0, r1)
one cross term survives, |r0^H r1| = |a||b|/sqrt(6), so the reduced
spectra carry no phase: every cut has

    det = |r0|^2 |r1|^2 - |r0^H r1|^2 = 2/9 - x/9 + 5x^2/36,

and the small squared Schmidt value (1 - sqrt(1 - 4 det))/2, where
1 - 4 det = (1 - x)(1 + 5x)/9.  det is least at x = 2/5, which is xi,
where det = 1/5: every superposition of the family is genuinely
entangled, and xi is its least entangled member, with small value
(1 - 1/sqrt(5))/2 ~ 0.2764 on every cut.

Closure under mixing.  ghz_min and w_min are minima over phases of
expectations linear in rho, so each is concave in rho.  A mixture
sum_k p_k rho_k of window states therefore has
ghz_min >= sum_k p_k ghz_min(rho_k) >= 0, and likewise w_min >= 0:
every such mixture is unwitnessed, which sample_unwitnessed_mixtures
checks on random draws.  The check needs only the least W minimum.  A
closed-form floor, every phase aligned, certifies that most mixtures lie
above it; only those whose floor does not clear it get the exact W minimum.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import classify, criterion, qcore, states


@dataclass(frozen=True)
class ScanConfig:
    grid_points: int = 1001
    phase_phi: float = 0.0
    phase_gamma: float = 0.0
    phase_beta: float = 0.0
    rel_phase_ab: float = 0.0
    seed: int = 0
    tol: float = criterion.BOUNDARY_TOL

    def __post_init__(self):
        if not isinstance(self.grid_points, (int, np.integer)) or self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be finite and positive")


class ScanRow(NamedTuple):
    """One grid point of a sweep; the fields are the table's columns, in order."""

    a_sq: float
    ghz_min: float
    w_min: float
    detected_by_ghz: bool
    detected_by_w: bool
    detected: bool
    genuinely_entangled: bool

    def to_dict(self) -> dict:
        return self._asdict()


CSV_COLUMNS = ScanRow._fields


@dataclass(frozen=True)
class MixtureReport:
    n_mixtures: int
    n_components: int
    min_ghz_min: float
    max_ghz_violation: float
    min_w_min: float
    max_w_violation: float
    all_unwitnessed: bool
    worst_mixture_index: int

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def family_state(a_sq, cfg: ScanConfig) -> np.ndarray:
    """The superposition with |a|^2 = a_sq and the config's phases.

    An array of a_sq gives one ket per entry, of shape a_sq.shape + (8,).
    """
    return states.make_superposition(a_sq, cfg.phase_phi, cfg.phase_gamma, cfg.phase_beta, cfg.rel_phase_ab)


def scan_superposition_family(cfg: ScanConfig) -> list[ScanRow]:
    """Sweep |a|^2 over [0, 1] and evaluate the criterion on each state.

    The grid's kets are built, validated and evaluated as one (N, 8) batch.
    """
    grid = np.linspace(0.0, 1.0, cfg.grid_points)
    kets = states.check_kets(family_state(grid, cfg))
    ghz_min, _, w_min, _, _ = criterion._pure_minima(kets)
    by_ghz = criterion.detects(ghz_min, cfg.tol)
    by_w = criterion.detects(w_min, cfg.tol)
    genuine = ~classify._biseparable(qcore._reduced_spectra(kets)).any(axis=1)
    columns = (grid, ghz_min, w_min, by_ghz, by_w, by_ghz | by_w, genuine)
    return list(map(ScanRow._make, zip(*(col.tolist() for col in columns))))


#: mixtures built at once, which bounds the memory of a long run
_MIXTURE_BLOCK = 512

#: a W floor this far above a block's least W ceiling clears it: far above
#: rounding, the only gap between floor and minimum on a rank-one state
_W_FLOOR_SLACK = 1e-12


def _window_mixtures(seeds, n_components: int) -> np.ndarray:
    """Density matrices (len(seeds), 8, 8) of random mixtures from the window.

    Each mixture draws 6 n_components - 1 uniforms from default_rng(seed):
    the cuts whose sorted spacings are its simplex weights, then one row per
    component that sets a_sq in [1/3, 1/2] and the phases (phi, gamma, beta,
    rel_phase_ab) in [0, 2 pi), as Generator.uniform scales them.
    """
    n = n_components
    u = np.array([np.random.default_rng(seed).random(6 * n - 1) for seed in seeds])
    weights = np.diff(np.sort(u[:, : n - 1], axis=1), axis=1, prepend=0.0, append=1.0)
    rows = u[:, n - 1 :].reshape(-1, 5)
    a_sq = 1.0 / 3.0 + (0.5 - 1.0 / 3.0) * rows[:, 0]
    kets = states.check_kets(states.make_superposition(a_sq, *(2.0 * np.pi * rows[:, 1:]).T))
    return states._mix(weights, kets.reshape(len(u), n, 8))


def _w_bounds(rhos: np.ndarray) -> tuple:
    """A floor and a ceiling, arrays (N,), on the W minima of (N, 8, 8) matrices.

    No phase in criterion._w_min's profile beats aligning all three coherences:
    the floor 2/3 - (s + 2 |m01| + 2 |m02| + 2 |m12|) / 3.  The ceiling is the
    profile at gamma = -arg(m01), 0 where m01 = 0, with beta aligned.
    """
    i, j, k = criterion.W_SECTOR
    m01, m02, m12 = rhos[:, i, j], rhos[:, i, k], rhos[:, j, k]
    aligned = rhos[:, i, i].real + rhos[:, j, j].real + rhos[:, k, k].real + 2.0 * np.abs(m01)
    floor = 2.0 / 3.0 - (aligned + 2.0 * (np.abs(m02) + np.abs(m12))) / 3.0
    ceiling = 2.0 / 3.0 - (aligned + 2.0 * np.abs(m02 + m12 * np.exp(1j * np.angle(m01)))) / 3.0
    return floor, ceiling


def sample_unwitnessed_mixtures(
    cfg: ScanConfig, n_mixtures: int, n_components: int
) -> MixtureReport:
    """Mix random states from the unwitnessed window and re-test them.

    Components are drawn uniformly from a_sq in [1/3, 1/2] with random
    phases; per-mixture seeds derive as cfg.seed + index.  Only mixtures
    whose W floor (_w_bounds) lies within _W_FLOOR_SLACK of their block's
    least ceiling get their exact W minimum.  Any other lies above its
    block's least W minimum, so it cannot set min_w_min, and for
    worst_mixture_index its GHZ minimum alone counts.
    """
    if not all(isinstance(n, (int, np.integer)) and n >= 1 for n in (n_mixtures, n_components)):
        raise ValueError("n_mixtures and n_components must be >= 1")
    seeds = range(cfg.seed, cfg.seed + n_mixtures)
    ghz_min, w_min = [], []
    for start in range(0, n_mixtures, _MIXTURE_BLOCK):
        # mixtures of checked kets are valid density matrices
        rhos = _window_mixtures(seeds[start : start + _MIXTURE_BLOCK], n_components)
        ghz_min.extend(criterion._ghz_min(rhos)[0].tolist())
        floor, ceiling = _w_bounds(rhos)
        solve = floor <= ceiling.min() + _W_FLOOR_SLACK
        w = np.full(len(rhos), np.inf)
        w[solve] = criterion._w_min(rhos[solve])[0]
        w_min.extend(w.tolist())
    min_ghz, min_w = min(ghz_min), min(w_min)
    return MixtureReport(
        n_mixtures=n_mixtures,
        n_components=n_components,
        min_ghz_min=min_ghz,
        max_ghz_violation=max(0.0, -min_ghz),
        min_w_min=min_w,
        max_w_violation=max(0.0, -min_w),
        all_unwitnessed=not (
            criterion.detects(min_ghz, cfg.tol) or criterion.detects(min_w, cfg.tol)
        ),
        worst_mixture_index=int(np.argmin(np.minimum(ghz_min, w_min))),
    )


def _fmt(value) -> str:
    """A ScanRow field, a bool or a float, as a CSV and JSON token."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return format(value, ".17g")


def rows_to_csv(rows) -> str:
    # no field needs quoting: names, numbers and true/false
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(map(_fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> str:
    # hand-rolled so floats appear as JSON numbers at 17 significant digits
    parts = []
    for row in rows:
        fields = ", ".join(f'"{col}": {_fmt(v)}' for col, v in zip(CSV_COLUMNS, row))
        parts.append("{" + fields + "}")
    return "[" + ", ".join(parts) + "]"


def emit_table(rows, format: str, destination) -> None:
    """Write rows as CSV or JSON to a path or file-like destination.

    Paths are written atomically (temp file + rename).
    """
    if format == "csv":
        text = rows_to_csv(rows)
    elif format == "json":
        text = rows_to_json(rows) + "\n"
    else:
        raise ValueError(f"unknown table format {format!r}")
    if hasattr(destination, "write"):
        destination.write(text)
        return
    states._atomic_write(os.fspath(destination), text)
