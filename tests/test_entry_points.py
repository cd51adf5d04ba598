"""Validation once per public entry point, one detection rule, atomic output."""

import json
import os
import subprocess
import sys

import numpy as np

import ghzw
from ghzw import classify, cli, criterion, scanner, states


def _counting(monkeypatch, name):
    calls = []
    original = getattr(states, name)

    def counted(arg):
        calls.append(1)
        return original(arg)

    monkeypatch.setattr(states, name, counted)
    return calls


def test_ghzw_criterion_validates_full_rank_rho_once(monkeypatch):
    kets = [states.haar_random_pure(seed) for seed in range(8)]
    rho = states.mix([(1.0 / 8.0, psi) for psi in kets])
    assert np.linalg.matrix_rank(rho) == 8
    calls = _counting(monkeypatch, "check_density_matrix")
    criterion.ghzw_criterion(rho)
    assert len(calls) == 1


def test_is_genuinely_entangled_pure_validates_ket_once(monkeypatch):
    calls = _counting(monkeypatch, "check_pure")
    classify.is_genuinely_entangled_pure(states.haar_random_pure(3))
    assert len(calls) == 1


def test_verdict_and_scan_row_agree_at_window_edge(monkeypatch):
    cfg = scanner.ScanConfig(grid_points=2)
    psi = scanner.family_state(0.5 + 5e-13, cfg)
    verdict = criterion.ghzw_criterion_pure(psi)
    assert -criterion.BOUNDARY_TOL < verdict.ghz_min < 0.0
    monkeypatch.setattr(scanner, "family_state", lambda a_sq, cfg: np.tile(psi, (len(a_sq), 1)))
    for row in scanner.scan_superposition_family(cfg):
        assert row.ghz_min == verdict.ghz_min
        assert row.detected_by_ghz == verdict.detected_by_ghz
        assert row.detected == verdict.detected


def test_cli_output_is_atomic(tmp_path, monkeypatch, capsys):
    target = tmp_path / "report.json"
    target.write_text("old contents\n")

    def failing_replace(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(os, "replace", failing_replace)
    code = cli.run(["analyze", "--builtin", "xi", "--output", str(target)])
    assert code != 0
    assert target.read_text() == "old contents\n"
    assert list(tmp_path.glob("*.tmp")) == []


def test_cli_output_mode_follows_umask(tmp_path):
    target = tmp_path / "report.json"
    assert cli.run(["lambda", "--builtin", "w", "--output", str(target)]) == 0
    umask = os.umask(0)
    os.umask(umask)
    assert target.stat().st_mode & 0o777 == 0o666 & ~umask


def test_cli_ppt_validates_rho_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "rho.json"
    rho = states.mix([(0.5, states.make_ghz()), (0.5, states.make_w())])
    path.write_text(json.dumps({"dims": [2, 2, 2], "matrix": [[[z.real, z.imag] for z in row] for row in rho]}))
    calls = _counting(monkeypatch, "check_density_matrix")
    assert cli.run(["ppt", "--rho", str(path)]) == 0
    assert len(calls) == 1


def test_runtime_path_imports_no_scipy():
    code = (
        "import sys, ghzw\n"
        "from ghzw import canonical, criterion, states\n"
        "canonical.acin_decompose(states.haar_random_pure(0))\n"
        "criterion.ghzw_criterion(states.mix([(0.5, states.make_ghz()), (0.5, states.make_w())]))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(ghzw.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
