"""Acceptance gate: one test (and one pass/fail line) per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get the per-criterion
verdict lines.
"""

import json
import time

import numpy as np
from unitaries import haar_unitary

from ghzw import (
    canonical,
    classify,
    cli,
    criterion,
    qcore,
    scanner,
    states,
    witness,
)


def _report(name):
    print(f"[acceptance] {name}: PASS")


def test_criterion_1_witness_constants():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for _ in range(50):
        phi, gamma, beta = rng.uniform(0.0, 2.0 * np.pi, size=3)
        assert abs(witness.lambda_bound_analytic(states.make_ghz(phi)) - 0.5) < 1e-12
        assert abs(witness.lambda_bound_analytic(states.make_w(gamma, beta)) - 2 / 3) < 1e-12
    sg = witness.lambda_bound_stochastic(states.make_ghz(0.0), seed=7, restarts=64, iters=1000)
    sw = witness.lambda_bound_stochastic(states.make_w(0.0, 0.0), seed=7, restarts=64, iters=1000)
    assert abs(sg - 0.5) < 1e-6
    assert abs(sw - 2 / 3) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"witness-constant check took {elapsed:.2f}s"
    _report("criterion 1, witness constants")


def test_criterion_2_self_detection():
    for phi in (0.0, 0.7, np.pi, 4.2):
        w = witness.ghz_witness(phi)
        assert abs(witness.expectation_pure(w, states.make_ghz(phi)) + 0.5) < 1e-12
    for gamma, beta in [(0.0, 0.0), (1.1, 2.3), (5.9, 0.4)]:
        w = witness.w_witness(gamma, beta)
        assert abs(witness.expectation_pure(w, states.make_w(gamma, beta)) + 1 / 3) < 1e-12
    _report("criterion 2, self-detection")


def test_criterion_3_counterexample_state():
    xi = states.make_xi()
    verdict = criterion.ghzw_criterion_pure(xi)
    assert abs(verdict.ghz_min - 0.1) < 1e-9
    assert abs(verdict.w_min - 1 / 15) < 1e-9
    assert verdict.detected_by_ghz is False
    assert verdict.detected_by_w is False
    report = classify.is_genuinely_entangled_pure(xi)
    assert report.genuinely_entangled is True
    assert all(lo > 0.1 for _, lo in report.schmidt_by_cut.values())
    _report("criterion 3, counterexample state")


def test_criterion_4_fooling_window():
    cfg = scanner.ScanConfig(grid_points=10001)
    rows = scanner.scan_superposition_family(cfg)
    step = 1.0 / (cfg.grid_points - 1)
    for row in rows:
        assert abs(row.ghz_min - (0.5 - row.a_sq)) < 1e-12
        assert abs(row.w_min - (2 / 3 - (1.0 - row.a_sq))) < 1e-12
    undetected = [i for i, row in enumerate(rows) if not row.detected]
    assert undetected == list(range(undetected[0], undetected[-1] + 1))
    assert abs(rows[undetected[0]].a_sq - 1 / 3) <= step + 1e-12
    assert abs(rows[undetected[-1]].a_sq - 0.5) <= step + 1e-12
    _report("criterion 4, fooling window")


def test_criterion_5_condition_equivalence():
    rng = np.random.default_rng(99)
    phis = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    checked_ghz = checked_w = 0
    for i in range(1000):
        lams = np.abs(rng.standard_normal(5))
        lams /= np.linalg.norm(lams)
        p = states.AcinParams(*lams, alpha=rng.uniform(0.0, np.pi))
        psi = states.make_acin(p)
        g_min, _ = criterion.min_ghz_expectation_pure(psi)
        w_min, _, _ = criterion.min_w_expectation_pure(psi)
        if abs(g_min) > 1e-12:
            assert criterion.ghz_condition(p) == (g_min < 0.0)
            checked_ghz += 1
        if abs(w_min) > 1e-12:
            assert criterion.w_condition(p) == (w_min < 0.0)
            checked_w += 1
        # a dense phase grid never beats the closed form by more than 1e-6
        grid_vals = 0.5 - np.abs(psi[0] + np.exp(-1j * phis) * psi[7]) ** 2 / 2
        assert grid_vals.min() >= g_min - 1e-6
        if i < 20:  # spot-check the vectorized grid against the operator route
            w_op = witness.ghz_witness(float(phis[i]))
            assert abs(witness.expectation_pure(w_op, psi) - grid_vals[i]) < 1e-12
    assert checked_ghz > 900 and checked_w > 900
    _report("criterion 5, condition equivalence")


def test_criterion_6_mixture_closure():
    start = time.perf_counter()
    report = scanner.sample_unwitnessed_mixtures(scanner.ScanConfig(seed=42), 500, 4)
    elapsed = time.perf_counter() - start
    assert report.min_ghz_min >= -1e-12
    assert report.min_w_min >= -1e-12
    assert report.all_unwitnessed
    assert elapsed < 10.0, f"mixture closure took {elapsed:.2f}s"
    _report("criterion 6, mixture closure")


def test_criterion_7_canonical_round_trip():
    for seed in range(1000):
        psi = states.haar_random_pure(seed)
        result = canonical.acin_decompose(psi)
        assert result.residual <= 1e-8
        p = result.params
        assert np.all(p.lambdas >= 0.0)
        assert abs(np.sum(p.lambdas**2) - 1.0) < 1e-10
        assert 0.0 <= p.alpha <= np.pi
        spec_in, tangle_in = canonical.local_unitary_invariants(psi)
        spec_out, tangle_out = canonical.local_unitary_invariants(states.make_acin(p))
        assert np.max(np.abs(spec_in - spec_out)) < 1e-8
        assert abs(tangle_in - tangle_out) < 1e-8

    # planted parameters scrambled by local unitaries: the five lambdas
    # of the canonical representative are recovered within 1e-7
    rng = np.random.default_rng(7)
    for _ in range(30):
        lams = np.abs(rng.standard_normal(5)) + 0.1
        lams /= np.linalg.norm(lams)
        planted = states.AcinParams(*lams, alpha=rng.uniform(0.0, np.pi))
        psi = states.make_acin(planted)
        reference = canonical.acin_decompose(psi).params
        u = [haar_unitary(2, random_state=rng) for _ in range(3)]
        scrambled = canonical.LocalUnitaries(*u).apply(psi)
        recovered = canonical.acin_decompose(scrambled).params
        assert np.max(np.abs(recovered.lambdas - reference.lambdas)) < 1e-7
    _report("criterion 7, canonical round trip")


def test_criterion_8_ppt_sanity():
    bell_with_spectator = np.zeros(8, dtype=complex)
    bell_with_spectator[0] = bell_with_spectator[6] = 1 / np.sqrt(2)
    rho = qcore.outer(bell_with_spectator)
    assert abs(classify.ppt_min_eigenvalue(rho, "A") + 0.5) < 1e-12

    rng = np.random.default_rng(13)
    for _ in range(200):
        components = []
        weights = rng.dirichlet(np.ones(4))
        for wgt in weights:
            kets = []
            for _ in range(3):
                v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                kets.append(v / np.linalg.norm(v))
            components.append((float(wgt), np.kron(np.kron(kets[0], kets[1]), kets[2])))
        mixture = states.mix(components)
        for cut in ("A", "B", "C"):
            assert classify.ppt_min_eigenvalue(mixture, cut) >= -1e-10
    _report("criterion 8, PPT sanity")


def test_criterion_9_cli_conformance(tmp_path, capsys):
    code = cli.run(["analyze", "--builtin", "xi"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["detected"] is False
    assert abs(payload["ghz_min"] - 0.1) < 1e-9
    assert abs(payload["w_min"] - 1 / 15) < 1e-9

    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    argv = ["scan-family", "--grid", "1001", "--format", "csv"]
    assert cli.run(argv + ["--output", str(p1)]) == 0
    assert cli.run(argv + ["--output", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    _report("criterion 9, CLI conformance")
