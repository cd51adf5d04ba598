"""Library-independent checks of ghzw answers.

Everything here is plain numpy and never imports ghzw: the kets, the
witness expectations, partial transposes and invariants are rebuilt
from their definitions.  Each ``check_*`` function returns a list of
error strings; an empty list means the answer passed.

Qubit order: basis index of |q_A q_B q_C> is 4*q_A + 2*q_B + q_C.
"""

from __future__ import annotations

import numpy as np

#: dense phase grid used for "no point does better" checks
GRID = 128
#: how far a grid point may beat a reported minimum
GRID_SLACK = 1e-12
#: reported minimum vs the expectation at the reported phases
VALUE_TOL = 1e-12
#: Schmidt data, lambda bounds and PPT eigenvalues vs numpy
EIG_TOL = 1e-10
#: canonical-form reconstruction, as the library promises
RECON_TOL = 1e-8
#: invariants compared between the input and the canonical ket
INVARIANT_TOL = 1e-7

XI_GHZ_MIN = 0.1
XI_W_MIN = 1.0 / 15.0
XI_TANGLE = 0.8
XI_LAMBDA = (1.0 + 1.0 / np.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# kets and operators built from their definitions


def ghz_kets(phi) -> np.ndarray:
    """(|000> + e^{i phi}|111>)/sqrt(2), one row per phase."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    kets = np.zeros((phi.size, 8), dtype=complex)
    kets[:, 0] = 1.0
    kets[:, 7] = np.exp(1j * phi)
    return kets / np.sqrt(2.0)


def w_kets(gamma, beta) -> np.ndarray:
    """(|001> + e^{i gamma}|010> + e^{i beta}|100>)/sqrt(3), one row per pair."""
    gamma, beta = np.broadcast_arrays(
        np.atleast_1d(np.asarray(gamma, dtype=float)), np.atleast_1d(np.asarray(beta, dtype=float))
    )
    kets = np.zeros((gamma.size, 8), dtype=complex)
    kets[:, 1] = 1.0
    kets[:, 2] = np.exp(1j * gamma.ravel())
    kets[:, 4] = np.exp(1j * beta.ravel())
    return kets / np.sqrt(3.0)


def xi_ket() -> np.ndarray:
    psi = np.zeros(8, dtype=complex)
    psi[[0, 1, 2, 4, 7]] = 1.0 / np.sqrt(5.0)
    return psi


def acin_ket(lambdas, alpha) -> np.ndarray:
    """l0|000> + l1 e^{i alpha}|001> + l2|010> + l3|100> + l4|111>."""
    l0, l1, l2, l3, l4 = lambdas
    psi = np.zeros(8, dtype=complex)
    psi[0], psi[1], psi[2], psi[4], psi[7] = l0, l1 * np.exp(1j * alpha), l2, l3, l4
    return psi


def family_ket(a_sq, phi, gamma, beta, rel_phase_ab) -> np.ndarray:
    """sqrt(a_sq) GHZ(phi) + sqrt(1 - a_sq) e^{i rel} W(gamma, beta), one row per a_sq."""
    a_sq = np.atleast_1d(np.asarray(a_sq, dtype=float))
    a = np.sqrt(a_sq)[:, None]
    b = (np.sqrt(1.0 - a_sq) * np.exp(1j * rel_phase_ab))[:, None]
    return a * ghz_kets(phi) + b * w_kets(gamma, beta)


def density(kets, weights) -> np.ndarray:
    kets = np.asarray(kets)
    return np.einsum("k,ki,kj->ij", np.asarray(weights, dtype=float), kets, kets.conj())


def partial_transpose(rho, slot: int) -> np.ndarray:
    t = np.asarray(rho).reshape((2,) * 6)
    axes = list(range(6))
    axes[slot], axes[slot + 3] = axes[slot + 3], axes[slot]
    return t.transpose(axes).reshape(8, 8)


def schmidt_sq(psi) -> np.ndarray:
    """Squared singular values of each solo-vs-pair cut, rows A, B, C, descending.

    A batch of kets (shape (N, 8)) gives shape (N, 3, 2).
    """
    psi = np.asarray(psi)
    t = psi.reshape(psi.shape[:-1] + (2, 2, 2))
    lead = psi.ndim - 1
    cuts = [
        np.linalg.svd(np.moveaxis(t, lead + s, lead).reshape(psi.shape[:-1] + (2, 4)), compute_uv=False) ** 2
        for s in range(3)
    ]
    return np.stack(cuts, axis=-2)


def tangle(psi) -> float:
    """4|b^2 - 4ac| with det(c0 + x c1) = a + b x + c x^2."""
    c0, c1 = np.asarray(psi).reshape(2, 2, 2)
    a = np.linalg.det(c0)
    c = np.linalg.det(c1)
    b = c0[0, 0] * c1[1, 1] + c1[0, 0] * c0[1, 1] - c0[0, 1] * c1[1, 0] - c1[0, 1] * c0[1, 0]
    return float(4.0 * abs(b * b - 4.0 * a * c))


def ghz_values(state, phi) -> np.ndarray:
    """1/2 - <GHZ(phi)|state|GHZ(phi)> for a ket or a density matrix."""
    return 0.5 - _overlaps(state, ghz_kets(phi))


def w_values(state, gamma, beta) -> np.ndarray:
    """2/3 - <W(gamma,beta)|state|W(gamma,beta)> for a ket or a density matrix."""
    return 2.0 / 3.0 - _overlaps(state, w_kets(gamma, beta))


def _overlaps(state, kets) -> np.ndarray:
    state = np.asarray(state)
    if state.ndim == 1:
        return np.abs(kets.conj() @ state) ** 2
    return np.sum((kets.conj() @ state) * kets, axis=1).real


# ---------------------------------------------------------------------------
# checks


def check_family_minima(state, ghz_min, phi, w_min, gamma, beta) -> list[str]:
    """Minima reached at the reported phases and not beaten on a dense grid."""
    errs = []
    at_phi = float(ghz_values(state, phi)[0])
    if abs(at_phi - ghz_min) > VALUE_TOL:
        errs.append(f"ghz_min {ghz_min!r} but Tr(W rho) at phi={phi!r} is {at_phi!r}")
    at_gb = float(w_values(state, gamma, beta)[0])
    if abs(at_gb - w_min) > VALUE_TOL:
        errs.append(f"w_min {w_min!r} but Tr(W rho) at ({gamma!r}, {beta!r}) is {at_gb!r}")
    grid = np.linspace(0.0, 2.0 * np.pi, GRID, endpoint=False)
    best_ghz = float(ghz_values(state, grid).min())
    if best_ghz < ghz_min - GRID_SLACK:
        errs.append(f"ghz grid reaches {best_ghz!r} below reported {ghz_min!r}")
    gg, bb = np.meshgrid(grid, grid, indexing="ij")
    best_w = float(w_values(state, gg.ravel(), bb.ravel()).min())
    if best_w < w_min - GRID_SLACK:
        errs.append(f"w grid reaches {best_w!r} below reported {w_min!r}")
    return errs


def check_pure_analysis(psi, verdict: dict, schmidt: dict, tangle_value, lam_analytic, lam_stochastic=None) -> list[str]:
    """Pure criterion, classification and lambda bounds of one ket.

    ``verdict`` holds ghz_min, ghz_opt_phi, w_min, w_opt_gamma, w_opt_beta;
    ``schmidt`` maps cut 'A'/'B'/'C' to (hi, lo) squared Schmidt values.
    """
    errs = check_family_minima(
        psi,
        verdict["ghz_min"],
        verdict["ghz_opt_phi"],
        verdict["w_min"],
        verdict["w_opt_gamma"],
        verdict["w_opt_beta"],
    )
    ref = schmidt_sq(psi)
    for row, cut in zip(ref, "ABC"):
        got = np.asarray(schmidt[cut], dtype=float)
        if np.max(np.abs(got - row)) > EIG_TOL:
            errs.append(f"schmidt {cut} {got.tolist()} vs svd {row.tolist()}")
    ref_tangle = tangle(psi)
    if abs(tangle_value - ref_tangle) > EIG_TOL:
        errs.append(f"three-tangle {tangle_value!r} vs {ref_tangle!r}")
    lam = float(ref[:, 0].max())
    if abs(lam_analytic - lam) > EIG_TOL:
        errs.append(f"analytic lambda {lam_analytic!r} vs svd {lam!r}")
    if lam_stochastic is not None and not (lam - 1e-9 <= lam_stochastic <= lam + 1e-12):
        errs.append(f"stochastic lambda {lam_stochastic!r} outside [{lam - 1e-9!r}, {lam + 1e-12!r}]")
    return errs


def check_xi(verdict: dict, tangle_value, lam_analytic) -> list[str]:
    errs = []
    for name, got, want in (
        ("ghz_min", verdict["ghz_min"], XI_GHZ_MIN),
        ("w_min", verdict["w_min"], XI_W_MIN),
        ("three_tangle", tangle_value, XI_TANGLE),
        ("lambda", lam_analytic, XI_LAMBDA),
    ):
        if abs(got - want) > VALUE_TOL:
            errs.append(f"xi {name} {got!r}, want {want!r}")
    return errs


def check_sweep(phases, grid_points: int, rows: list[dict], tol: float) -> list[str]:
    """One family sweep: closed-form minima, the window, and genuine entanglement.

    ``phases`` is (phi, gamma, beta, rel_phase_ab); each row carries the
    ScanRow fields.
    """
    if len(rows) != grid_points:
        return [f"{len(rows)} rows for {grid_points} grid points"]
    a_sq = np.array([r["a_sq"] for r in rows])
    errs = []
    if np.max(np.abs(a_sq - np.linspace(0.0, 1.0, grid_points))) > 0.0:
        errs.append("a_sq column is not the uniform grid on [0, 1]")
    ghz = np.array([r["ghz_min"] for r in rows])
    w = np.array([r["w_min"] for r in rows])
    bad = np.flatnonzero(np.abs(ghz - (0.5 - a_sq)) > VALUE_TOL)
    if bad.size:
        errs.append(f"ghz_min != 1/2 - a^2 at a^2={a_sq[bad[0]]!r}: {ghz[bad[0]]!r}")
    bad = np.flatnonzero(np.abs(w - (a_sq - 1.0 / 3.0)) > VALUE_TOL)
    if bad.size:
        errs.append(f"w_min != a^2 - 1/3 at a^2={a_sq[bad[0]]!r}: {w[bad[0]]!r}")
    window = (a_sq >= 1.0 / 3.0 - 1e-9) & (a_sq <= 0.5 + 1e-9)
    detected = np.array([r["detected"] for r in rows], dtype=bool)
    if np.any(detected == window):
        i = int(np.flatnonzero(detected == window)[0])
        errs.append(f"detected={bool(detected[i])} at a^2={a_sq[i]!r}")
    for col, want in (("detected_by_ghz", ghz < -tol), ("detected_by_w", w < -tol)):
        got = np.array([r[col] for r in rows], dtype=bool)
        if np.any(got != want):
            errs.append(f"{col} disagrees with its minimum at a^2={a_sq[np.argmax(got != want)]!r}")
    kets = family_ket(a_sq, *phases)
    genuine = schmidt_sq(kets)[:, :, 1].min(axis=1) > 1e-9
    got = np.array([r["genuinely_entangled"] for r in rows], dtype=bool)
    if np.any(got != genuine):
        errs.append(f"genuinely_entangled wrong at a^2={a_sq[np.argmax(got != genuine)]!r}")
    return errs


def check_mixed_analysis(rho, verdict: dict, ppt: dict, leading=None) -> list[str]:
    """Mixed criterion and PPT values of one density matrix.

    ``leading`` is the leading eigenvector when the input has rank 1: the
    verdict must then equal the pure verdict on that ket.
    """
    errs = check_family_minima(
        rho,
        verdict["ghz_min"],
        verdict["ghz_opt_phi"],
        verdict["w_min"],
        verdict["w_opt_gamma"],
        verdict["w_opt_beta"],
    )
    for slot, cut in enumerate("ABC"):
        want = float(np.linalg.eigvalsh(partial_transpose(rho, slot))[0])
        if abs(ppt[cut] - want) > EIG_TOL:
            errs.append(f"ppt {cut} {ppt[cut]!r} vs eigvalsh {want!r}")
    if leading is not None:
        c = np.asarray(leading)
        ghz_pure = 0.5 - (abs(c[0]) + abs(c[7])) ** 2 / 2.0
        w_pure = 2.0 / 3.0 - (abs(c[1]) + abs(c[2]) + abs(c[4])) ** 2 / 3.0
        if abs(verdict["ghz_min"] - ghz_pure) > EIG_TOL or abs(verdict["w_min"] - w_pure) > EIG_TOL:
            errs.append("rank-1 verdict differs from the pure verdict on the leading eigenvector")
        if verdict["detected"] != (ghz_pure < 0.0 or w_pure < 0.0):
            errs.append("rank-1 detected flag differs from the pure verdict")
    return errs


def check_mixture_report(report: dict, n_mixtures: int, n_components: int, tol: float) -> list[str]:
    """Window mixtures stay unwitnessed: by linearity both minima are >= -tol."""
    errs = []
    if report["n_mixtures"] != n_mixtures or report["n_components"] != n_components:
        errs.append(f"report sizes {report['n_mixtures']}x{report['n_components']}")
    for key in ("min_ghz_min", "min_w_min"):
        if not report[key] >= -tol:
            errs.append(f"{key} {report[key]!r} below -{tol}")
    if report["all_unwitnessed"] is not True:
        errs.append("all_unwitnessed is not true")
    if not 0 <= report["worst_mixture_index"] < n_mixtures:
        errs.append(f"worst_mixture_index {report['worst_mixture_index']!r} out of range")
    return errs


def check_decomposition(psi, lambdas, alpha, unitaries) -> list[str]:
    """Five-term canonical form of psi, checked without the library."""
    errs = []
    lambdas = np.asarray(lambdas, dtype=float)
    for name, u in zip("abc", unitaries):
        u = np.asarray(u)
        if u.shape != (2, 2) or np.max(np.abs(u.conj().T @ u - np.eye(2))) > 1e-10:
            errs.append(f"u_{name} is not unitary")
    if errs:
        return errs
    if lambdas.shape != (5,) or np.any(lambdas < 0.0):
        errs.append(f"lambdas {lambdas.tolist()} not five nonnegative numbers")
        return errs
    if abs(np.sum(lambdas**2) - 1.0) > 1e-10:
        errs.append(f"sum of lambda^2 is {np.sum(lambdas**2)!r}")
    if not 0.0 <= alpha <= np.pi:
        errs.append(f"alpha {alpha!r} outside [0, pi]")
    u_a, u_b, u_c = (np.asarray(u) for u in unitaries)
    target = acin_ket(lambdas, alpha)
    moved = np.kron(np.kron(u_a, u_b), u_c) @ psi
    gap = float(np.linalg.norm(moved - target))
    if gap > RECON_TOL:
        errs.append(f"(u_a x u_b x u_c) psi misses the five-term ket by {gap!r}")
    spec_gap = float(np.max(np.abs(schmidt_sq(psi) - schmidt_sq(target))))
    if spec_gap > INVARIANT_TOL:
        errs.append(f"single-qubit spectra differ by {spec_gap!r}")
    tangle_gap = abs(tangle(psi) - tangle(target))
    if tangle_gap > INVARIANT_TOL:
        errs.append(f"three-tangle differs by {tangle_gap!r}")
    return errs


def check_canonical_ghz(lambdas, alpha, residual) -> list[str]:
    """GHZ(phi) has tangle 1 = 4 l0^2 l4^2, which pins l0 = l4 = 1/sqrt(2)."""
    want = np.array([1.0, 0.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    errs = []
    if np.max(np.abs(np.asarray(lambdas) - want)) > RECON_TOL:
        errs.append(f"GHZ canonical lambdas {list(lambdas)}")
    if not (0.0 <= alpha <= np.pi and 0.0 <= residual <= RECON_TOL):
        errs.append(f"GHZ canonical alpha {alpha!r} / residual {residual!r}")
    return errs
