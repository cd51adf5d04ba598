"""Parameter sweeps over the GHZ/W superposition family.

Reproduces the fooling window: states a*GHZ + b*W with
1/3 <= |a|^2 <= 1/2 evade both witness families, and seeded random
mixtures drawn from that window stay unwitnessed.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import classify, criterion, states

CSV_COLUMNS = (
    "a_sq",
    "ghz_min",
    "w_min",
    "detected_by_ghz",
    "detected_by_w",
    "detected",
    "genuinely_entangled",
)


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
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class ScanRow:
    a_sq: float
    ghz_min: float
    w_min: float
    detected_by_ghz: bool
    detected_by_w: bool
    detected: bool
    genuinely_entangled: bool

    def to_dict(self) -> dict:
        return {col: getattr(self, col) for col in CSV_COLUMNS}


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


def family_state(a_sq: float, cfg: ScanConfig) -> np.ndarray:
    """The superposition with |a|^2 = a_sq and the config's phases."""
    a = np.sqrt(a_sq)
    b = np.sqrt(1.0 - a_sq) * np.exp(1j * cfg.rel_phase_ab)
    params = states.SuperpositionParams(
        a=a, b=b, phi=cfg.phase_phi, gamma=cfg.phase_gamma, beta=cfg.phase_beta
    )
    return states.make_superposition(params)


def scan_superposition_family(cfg: ScanConfig) -> list[ScanRow]:
    """Sweep |a|^2 over [0, 1] and evaluate the criterion on each state."""
    rows = []
    for a_sq in np.linspace(0.0, 1.0, cfg.grid_points):
        psi = family_state(float(a_sq), cfg)
        verdict = criterion.ghzw_criterion_pure(psi)
        report = classify.is_genuinely_entangled_pure(psi)
        by_ghz = criterion.detects(verdict.ghz_min, cfg.tol)
        by_w = criterion.detects(verdict.w_min, cfg.tol)
        rows.append(
            ScanRow(
                a_sq=float(a_sq),
                ghz_min=verdict.ghz_min,
                w_min=verdict.w_min,
                detected_by_ghz=by_ghz,
                detected_by_w=by_w,
                detected=by_ghz or by_w,
                genuinely_entangled=report.genuinely_entangled,
            )
        )
    return rows


def _simplex_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform weights on the simplex via sorted-uniform spacings."""
    if n == 1:
        return np.array([1.0])
    cuts = np.sort(rng.random(n - 1))
    return np.diff(np.concatenate([[0.0], cuts, [1.0]]))


def sample_unwitnessed_mixtures(
    cfg: ScanConfig, n_mixtures: int, n_components: int
) -> MixtureReport:
    """Mix random states from the unwitnessed window and re-test them.

    Components are drawn uniformly from a_sq in [1/3, 1/2] with random
    phases; per-mixture seeds derive as cfg.seed + index.
    """
    if n_mixtures < 1 or n_components < 1:
        raise ValueError("n_mixtures and n_components must be >= 1")
    min_ghz = np.inf
    min_w = np.inf
    worst = -1
    for idx in range(n_mixtures):
        rng = np.random.default_rng(cfg.seed + idx)
        components = []
        for weight in _simplex_weights(rng, n_components):
            a_sq = rng.uniform(1.0 / 3.0, 0.5)
            phases = rng.uniform(0.0, 2.0 * np.pi, size=4)
            sub = ScanConfig(
                grid_points=cfg.grid_points,
                phase_phi=phases[0],
                phase_gamma=phases[1],
                phase_beta=phases[2],
                rel_phase_ab=phases[3],
                seed=cfg.seed,
                tol=cfg.tol,
            )
            components.append((float(weight), family_state(a_sq, sub)))
        rho = states.mix(components)
        # mix() builds a valid density matrix from checked kets
        ghz_min, _ = criterion._ghz_min(rho)
        w_min, _, _ = criterion._w_min(rho)
        if min(ghz_min, w_min) < min(min_ghz, min_w):
            worst = idx
        min_ghz = min(min_ghz, ghz_min)
        min_w = min(min_w, w_min)
    return MixtureReport(
        n_mixtures=n_mixtures,
        n_components=n_components,
        min_ghz_min=float(min_ghz),
        max_ghz_violation=float(max(0.0, -min_ghz)),
        min_w_min=float(min_w),
        max_w_violation=float(max(0.0, -min_w)),
        all_unwitnessed=not (
            criterion.detects(min_ghz, cfg.tol) or criterion.detects(min_w, cfg.tol)
        ),
        worst_mixture_index=worst,
    )


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(getattr(row, col)) for col in CSV_COLUMNS])
    return buf.getvalue()


def rows_to_json(rows) -> str:
    # hand-rolled so floats appear as JSON numbers at 17 significant digits
    parts = []
    for row in rows:
        fields = ", ".join(
            f'"{col}": '
            + (
                format(v, ".17g")
                if isinstance(v, float)
                else ("true" if v is True else "false" if v is False else json.dumps(v))
            )
            for col, v in row.to_dict().items()
        )
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
    path = os.fspath(destination)
    try:
        states._atomic_write(path, text)
    except OSError as exc:
        raise OSError(f"failed writing table to {path}: {exc}") from exc
