"""The benchmark's checkers accept right answers and reject wrong ones.

    python3 -m pytest perfbench

Kept out of the tier-1 ``tests/`` path; the right answers come from
ghzw itself, the wrong ones are those answers perturbed.
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import worker  # noqa: E402
from ghzw import canonical, classify, criterion, scanner, witness  # noqa: E402


def haar(seed):
    return worker.haar_ket(np.random.default_rng(seed))


def decomposition(psi):
    res = canonical.acin_decompose(psi)
    u = res.unitaries
    return res.params.lambdas.copy(), res.params.alpha, (u.u_a, u.u_b, u.u_c)


def test_canonical_checker_accepts_and_rejects_a_perturbed_lambda():
    psi = np.kron(np.kron(worker.haar_unitary(np.random.default_rng(1)), np.eye(2)), np.eye(2)) @ haar(3)
    lams, alpha, units = decomposition(psi)
    assert checks.check_decomposition(psi, lams, alpha, units) == []
    bent = lams.copy()
    bent[0] += 1e-6
    bent /= np.linalg.norm(bent)
    errs = checks.check_decomposition(psi, bent, alpha, units)
    assert any("five-term ket" in e for e in errs)
    bent = lams.copy()
    bent[2] += 1e-6
    assert any("sum of lambda^2" in e for e in checks.check_decomposition(psi, bent, alpha, units))


def test_canonical_checker_rejects_a_non_unitary():
    psi = haar(4)
    lams, alpha, (u_a, u_b, u_c) = decomposition(psi)
    errs = checks.check_decomposition(psi, lams, alpha, (1.001 * u_a, u_b, u_c))
    assert errs == ["u_a is not unitary"]


def pure_answer(psi, stochastic=False):
    verdict = criterion.ghzw_criterion_pure(psi).to_dict()
    report = classify.is_genuinely_entangled_pure(psi)
    lam = witness.lambda_bound_analytic(psi)
    stoch = witness.lambda_bound_stochastic(psi, seed=5) if stochastic else None
    return verdict, report.schmidt_by_cut, report.three_tangle, lam, stoch


def test_window_checker_rejects_a_raised_w_minimum():
    psi = haar(7)
    verdict, schmidt, tangle, lam, stoch = pure_answer(psi, stochastic=True)
    assert checks.check_pure_analysis(psi, verdict, schmidt, tangle, lam, stoch) == []
    raised = dict(verdict, w_min=verdict["w_min"] + 1e-6)
    errs = checks.check_pure_analysis(psi, raised, schmidt, tangle, lam, stoch)
    assert any(e.startswith("w_min") for e in errs)
    errs = checks.check_pure_analysis(psi, verdict, schmidt, tangle, lam, lam + 1e-9)
    assert any("stochastic" in e for e in errs)


def test_window_checker_knows_xi():
    xi = checks.xi_ket()
    verdict, _, tangle, lam, _ = pure_answer(xi)
    assert checks.check_xi(verdict, tangle, lam) == []
    assert checks.check_xi(dict(verdict, w_min=verdict["w_min"] + 1e-6), tangle, lam) != []


def test_sweep_checker_rejects_a_flipped_verdict():
    phases = (0.3, 1.1, 2.9, 4.2)
    cfg = scanner.ScanConfig(grid_points=61, phase_phi=0.3, phase_gamma=1.1, phase_beta=2.9, rel_phase_ab=4.2)
    rows = [r.to_dict() for r in scanner.scan_superposition_family(cfg)]
    assert checks.check_sweep(phases, 61, rows, cfg.tol) == []
    inside = next(i for i, r in enumerate(rows) if 0.4 < r["a_sq"] < 0.45)
    rows[inside] = dict(rows[inside], detected=True)
    assert any("detected=True" in e for e in checks.check_sweep(phases, 61, rows, cfg.tol))


def mixed_rho(seed):
    rng = np.random.default_rng(seed)
    return checks.density([worker.haar_ket(rng) for _ in range(8)], rng.dirichlet(np.ones(8)))


def mixed_answer(rho):
    verdict = criterion.ghzw_criterion(rho).to_dict()
    return verdict, {cut: classify.ppt_min_eigenvalue(rho, cut) for cut in "ABC"}


def test_mixed_checker_rejects_a_raised_w_minimum_and_a_swapped_cut():
    rho = mixed_rho(11)
    verdict, ppt = mixed_answer(rho)
    assert checks.check_mixed_analysis(rho, verdict, ppt) == []
    raised = dict(verdict, w_min=verdict["w_min"] + 1e-6)
    assert any(e.startswith("w_min") for e in checks.check_mixed_analysis(rho, raised, ppt))
    swapped = dict(ppt, A=ppt["B"], B=ppt["A"])
    errs = checks.check_mixed_analysis(rho, verdict, swapped)
    assert any(e.startswith("ppt A") for e in errs) and any(e.startswith("ppt B") for e in errs)


def test_mixed_checker_compares_rank_one_with_the_pure_verdict():
    psi = haar(12)
    rho = np.outer(psi, psi.conj())
    verdict, ppt = mixed_answer(rho)
    assert checks.check_mixed_analysis(rho, verdict, ppt, psi) == []
    moved = dict(verdict, ghz_min=verdict["ghz_min"] + 1e-6)
    assert any("rank-1" in e for e in checks.check_mixed_analysis(rho, moved, ppt, psi))


def test_mixture_checker_rejects_a_witnessed_mixture():
    report = scanner.sample_unwitnessed_mixtures(scanner.ScanConfig(seed=9), 10, 4).to_dict()
    assert checks.check_mixture_report(report, 10, 4, 1e-12) == []
    bad = dict(report, min_w_min=-1e-6, all_unwitnessed=False)
    assert len(checks.check_mixture_report(bad, 10, 4, 1e-12)) == 2


@pytest.fixture
def cli_workload():
    wl = worker.Cli(5, worker.Clock())
    yield wl
    wl.close()


def test_cli_checker_rejects_a_non_zero_exit(cli_workload):
    op = worker.Op("ppt", 0.1, 0.1, (2, b"", b"error: malformed density file"))
    assert cli_workload.check(op) == ["ppt exited 2: error: malformed density file"]


def test_cli_checker_accepts_a_real_run_and_rejects_changed_output(cli_workload):
    argv = dict(cli_workload.commands)["ppt"]
    first = cli_workload.clock.timed("ppt", cli_workload._invoke, argv, None)
    assert cli_workload.check(first) == []
    payload = json.loads(first.payload[1])
    payload["A"], payload["B"] = payload["B"], payload["A"]
    swapped = worker.Op("ppt", 0.1, 0.1, (0, json.dumps(payload, indent=2).encode() + b"\n", b""))
    errs = cli_workload.check(swapped)
    assert "ppt stdout differs from its first invocation" in errs
    assert any(e.startswith("ppt A") for e in errs)
