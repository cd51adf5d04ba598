import json
import os
import subprocess
import sys

import numpy as np

import ghzw
from ghzw import cli, qcore, scanner, states


def write_state(path, psi):
    path.write_text(json.dumps({"dims": [2, 2, 2], "amplitudes": [[z.real, z.imag] for z in psi]}))


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_analyze_builtin_xi(capsys):
    code, payload = run_json(capsys, ["analyze", "--builtin", "xi"])
    assert code == 0
    assert abs(payload["ghz_min"] - 0.1) < 1e-9
    assert abs(payload["w_min"] - 1 / 15) < 1e-9
    assert payload["detected"] is False
    assert payload["genuinely_entangled"] is True


def test_analyze_payload_key_order(capsys):
    """stdout lists the criterion's fields, then the entanglement report's, in this order"""
    _, payload = run_json(capsys, ["analyze", "--builtin", "xi"])
    assert list(payload) == [
        "ghz_min", "ghz_opt_phi", "w_min", "w_opt_gamma", "w_opt_beta",
        "detected_by_ghz", "detected_by_w", "detected",
        "genuinely_entangled", "biseparable_cuts", "three_tangle", "schmidt_by_cut",
    ]


def test_analyze_superposition_window(capsys):
    code, payload = run_json(capsys, ["analyze", "--builtin", "superposition", "--a-sq", "0.4"])
    assert code == 0
    assert payload["detected"] is False
    assert payload["genuinely_entangled"] is True


def test_analyze_state_file(tmp_path, capsys):
    path = tmp_path / "ghz.json"
    write_state(path, states.make_ghz(1.3))
    code, payload = run_json(capsys, ["analyze", "--state", str(path)])
    assert code == 0
    assert payload["detected_by_ghz"] is True
    assert abs(payload["ghz_min"] + 0.5) < 1e-12


def test_analyze_rho_file(tmp_path, capsys):
    path = tmp_path / "rho.json"
    rho = states.mix([(0.5, states.make_ghz(0.0)), (0.5, states.make_w(0.0, 0.0))])
    path.write_text(json.dumps({"dims": [2, 2, 2], "matrix": [[[z.real, z.imag] for z in row] for row in rho]}))
    code, payload = run_json(capsys, ["analyze", "--rho", str(path)])
    assert code == 0
    assert "criterion" in payload


def test_lambda_builtin_ghz(capsys):
    code, payload = run_json(capsys, ["lambda", "--builtin", "ghz"])
    assert code == 0
    assert abs(payload["lambda_analytic"] - 0.5) < 1e-12


def test_lambda_stochastic_cross_check(capsys):
    code, payload = run_json(
        capsys,
        ["lambda", "--builtin", "w", "--stochastic", "--restarts", "8", "--iters", "200"],
    )
    assert code == 0
    assert abs(payload["lambda_analytic"] - 2 / 3) < 1e-12
    assert abs(payload["lambda_stochastic"] - payload["lambda_analytic"]) < 1e-6


def test_lambda_stochastic_seed_is_validated(capsys):
    argv = ["lambda", "--builtin", "w", "--stochastic", "--restarts", "8", "--seed"]
    assert cli.run([*argv, "-3"]) == 2
    assert capsys.readouterr().err == "error: seed must be a non-negative integer\n"
    code, payload = run_json(capsys, [*argv, str(2**63 - 5)])
    assert code == 0
    assert abs(payload["lambda_stochastic"] - 2 / 3) < 1e-9
    assert cli.run([*argv, "2.0"]) == 2
    assert "invalid int value" in capsys.readouterr().err


def test_canonical_subcommand(capsys):
    code, payload = run_json(capsys, ["canonical", "--builtin", "ghz"])
    assert code == 0
    lams = payload["lambdas"]
    assert abs(lams[0] - 1 / np.sqrt(2)) < 1e-8
    assert abs(lams[4] - 1 / np.sqrt(2)) < 1e-8
    assert payload["residual"] <= 1e-8


def test_ppt_subcommand(capsys):
    code, payload = run_json(capsys, ["ppt", "--builtin", "ghz"])
    assert code == 0
    for cut in ("A", "B", "C"):
        assert abs(payload[cut] + 0.5) < 1e-12


def test_scan_family_csv_output(tmp_path):
    path = tmp_path / "scan.csv"
    code = cli.run(
        ["scan-family", "--grid", "101", "--format", "csv", "--output", str(path)]
    )
    assert code == 0
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 102
    assert lines[0].startswith("a_sq,")


def test_scan_family_stdout_json(capsys):
    code, rows = run_json(capsys, ["scan-family", "--grid", "11"])
    assert code == 0
    assert len(rows) == 11


def test_scan_family_rel_phase_ab_reaches_the_scan(capsys, monkeypatch):
    seen = []
    scan = scanner.scan_superposition_family
    monkeypatch.setattr(scanner, "scan_superposition_family", lambda cfg: seen.append(cfg) or scan(cfg))
    argv = ["scan-family", "--grid", "41", "--phi", "0.4", "--gamma", "-1.2", "--beta", "2.9", "--rel-phase-ab", "1.7"]
    code, rows = run_json(capsys, argv)
    assert code == 0
    assert seen[0].rel_phase_ab == 1.7
    cfg = scanner.ScanConfig(grid_points=41, phase_phi=0.4, phase_gamma=-1.2, phase_beta=2.9, rel_phase_ab=1.7)
    assert rows == [row.to_dict() for row in scan(cfg)]


def test_python_dash_m_runs_the_cli(capsys):
    src = os.path.dirname(os.path.dirname(ghzw.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["analyze", "--builtin", "xi"]
    out = subprocess.run([sys.executable, "-m", "ghzw", *argv], env=env, capture_output=True, text=True)
    assert out.returncode == 0
    assert cli.run(argv) == 0
    assert out.stdout == capsys.readouterr().out


def test_mixtures_subcommand(capsys):
    code, payload = run_json(
        capsys, ["mixtures", "--n-mixtures", "10", "--n-components", "3"]
    )
    assert code == 0
    assert payload["all_unwitnessed"] is True


def test_output_flag_writes_file(tmp_path):
    path = tmp_path / "verdict.json"
    code = cli.run(["analyze", "--builtin", "xi", "--output", str(path)])
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["detected"] is False


def test_output_into_a_missing_directory_names_the_path(tmp_path, capsys):
    # the path is the user's fault: an input error, not an internal one
    path = str(tmp_path / "missing" / "verdict.json")
    assert cli.run(["analyze", "--builtin", "xi", "--output", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(path) in err and ".tmp" not in err


def test_a_state_path_that_is_a_directory_is_an_input_error(tmp_path, capsys):
    assert cli.run(["canonical", "--state", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and repr(str(tmp_path)) in captured.err


def test_missing_state_is_input_error(capsys):
    assert cli.run(["analyze"]) == 2
    assert "state" in capsys.readouterr().err


def test_conflicting_state_flags(tmp_path):
    path = tmp_path / "s.json"
    write_state(path, states.make_ghz(0.0))
    assert cli.run(["analyze", "--builtin", "ghz", "--state", str(path)]) == 2


def test_rho_excludes_builtin_and_state(tmp_path, capsys):
    rho = tmp_path / "rho.json"
    m = qcore.outer(states.make_ghz(0.0))
    rho.write_text(json.dumps({"dims": [2, 2, 2], "matrix": [[[z.real, z.imag] for z in row] for row in m]}))
    state = tmp_path / "s.json"
    write_state(state, states.make_w(0.0, 0.0))
    for cmd in ("analyze", "ppt"):
        for other in (["--builtin", "w"], ["--state", str(state)], ["--state", str(tmp_path / "nothere.json")]):
            assert cli.run([cmd, "--rho", str(rho), *other]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "--rho" in captured.err
        assert cli.run([cmd, "--rho", str(rho)]) == 0
        capsys.readouterr()


def test_nan_tol_exits_2(capsys):
    for argv in (
        ["analyze", "--builtin", "ghz", "--tol", "nan"],
        ["scan-family", "--grid", "5", "--tol", "nan"],
        ["mixtures", "--n-mixtures", "3", "--tol", "nan"],
    ):
        assert cli.run(argv) == 2
        assert capsys.readouterr().out == ""


def test_analyze_rejects_a_bad_tol_on_every_route(tmp_path, capsys):
    rho = tmp_path / "rho.json"
    m = qcore.outer(states.make_ghz(0.0))
    rho.write_text(json.dumps({"dims": [2, 2, 2], "matrix": [[[z.real, z.imag] for z in row] for row in m]}))
    state = tmp_path / "s.json"
    write_state(state, states.make_w(0.0, 0.0))
    for route in (["--rho", str(rho)], ["--builtin", "ghz"], ["--state", str(state)]):
        for tol in ("nan", "inf", "0", "-5"):
            assert cli.run(["analyze", *route, "--tol", tol]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "tol" in captured.err
        assert cli.run(["analyze", *route, "--tol", "1e-9"]) == 0
        capsys.readouterr()


def test_scan_family_default_grid_is_the_library_default():
    args = cli.build_parser().parse_args(["scan-family"])
    assert args.grid == scanner.ScanConfig().grid_points


def test_missing_file_is_input_error(tmp_path):
    assert cli.run(["analyze", "--state", str(tmp_path / "nope.json")]) == 2


def test_malformed_state_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.run(["analyze", "--state", str(path)]) == 2
    path.write_text(json.dumps({"dims": [2, 2, 2], "amplitudes": [[1.0, 0.0]] * 8}))
    assert cli.run(["analyze", "--state", str(path)]) == 2  # unnormalized
    path.write_text("[1.0]")  # valid JSON that is not an object
    assert cli.run(["analyze", "--state", str(path)]) == 2
    path.write_text(json.dumps({"dims": [2, 2, 2], "amplitudes": [["1", "0"]] + [[0.0, 0.0]] * 7}))
    assert cli.run(["analyze", "--state", str(path)]) == 2  # strings, not numbers


def test_bad_a_sq_rejected():
    assert cli.run(["analyze", "--builtin", "superposition", "--a-sq", "1.5"]) == 2


def test_unknown_subcommand_exits_2():
    assert cli.run(["frobnicate"]) == 2
