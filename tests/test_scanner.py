import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzw import criterion, qcore, scanner, states


def test_scan_config_validation():
    with pytest.raises(ValueError):
        scanner.ScanConfig(grid_points=1)
    with pytest.raises(ValueError):
        scanner.ScanConfig(tol=0.0)


@pytest.mark.parametrize("seed", [-1, 1.5, "3"])
def test_scan_config_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        scanner.ScanConfig(seed=seed)


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_scan_config_rejects_non_finite_tol(tol):
    with pytest.raises(ValueError):
        scanner.ScanConfig(tol=tol)


def test_family_state_endpoints():
    cfg = scanner.ScanConfig()
    assert np.allclose(scanner.family_state(1.0, cfg), states.make_ghz(0.0))
    assert np.allclose(scanner.family_state(0.0, cfg), states.make_w(0.0, 0.0))


def test_scan_rows_at_endpoints():
    rows = scanner.scan_superposition_family(scanner.ScanConfig(grid_points=11))
    assert len(rows) == 11
    assert rows[0].a_sq == 0.0
    assert abs(rows[0].w_min + 1 / 3) < 1e-12
    assert rows[0].detected_by_w and rows[0].detected
    assert rows[-1].a_sq == 1.0
    assert abs(rows[-1].ghz_min + 0.5) < 1e-12
    assert rows[-1].detected_by_ghz


def test_scan_matches_closed_family_laws():
    rows = scanner.scan_superposition_family(scanner.ScanConfig(grid_points=101))
    for row in rows:
        assert abs(row.ghz_min - (0.5 - row.a_sq)) < 1e-12
        assert abs(row.w_min - (2 / 3 - (1.0 - row.a_sq))) < 1e-12


@settings(max_examples=200, deadline=None)
@given(x=st.floats(0.0, 1.0), phases=st.tuples(*[st.floats(0.0, 2 * math.pi)] * 4))
def test_window_family_in_closed_form(x, phases):
    # the closed forms of the scanner docstring, at any |a|^2 and phases
    kets = states.check_kets(scanner.family_state(np.array([x]), scanner.ScanConfig(2, *phases)))
    ghz_min, _, w_min, _, _ = criterion._pure_minima(kets)
    # the kernels read the rounded amplitudes: up to 1.17e-15 from x's forms on 1e7 random points
    assert abs(ghz_min[0] - (0.5 - x)) <= 2e-15
    assert abs(w_min[0] - (x - 1 / 3)) <= 2e-15
    # sqrt(1 - 4 det) in factored form, exact at x = 1 where the cuts tie
    root = math.sqrt((1.0 - x) * (1.0 + 5.0 * x)) / 3.0
    spectra = qcore._reduced_spectra(kets)[0]
    assert np.abs(spectra - [(1.0 + root) / 2.0, (1.0 - root) / 2.0]).max() <= 1e-14
    assert spectra[:, 1].min() >= (1.0 - 1.0 / math.sqrt(5.0)) / 2.0 - 1e-15


def test_scan_fooling_window_at_coarse_grid():
    cfg = scanner.ScanConfig(grid_points=1001)
    rows = scanner.scan_superposition_family(cfg)
    undetected = [row.a_sq for row in rows if not row.detected]
    step = 1.0 / (cfg.grid_points - 1)
    assert undetected  # window is nonempty
    assert abs(min(undetected) - 1 / 3) <= step + 1e-12
    assert abs(max(undetected) - 0.5) <= step + 1e-12
    # the undetected set is one contiguous block
    idx = [i for i, row in enumerate(rows) if not row.detected]
    assert idx == list(range(idx[0], idx[-1] + 1))
    # and everything inside it is still genuinely entangled
    assert all(row.genuinely_entangled for row in rows if not row.detected)


def test_single_window_state_is_unwitnessed():
    psi = scanner.family_state(0.4, scanner.ScanConfig())
    rho = states.mix([(1.0, psi)])
    assert criterion.min_ghz_expectation_mixed(rho)[0] >= 0.0
    assert criterion.min_w_expectation_mixed(rho)[0] >= -1e-12


def test_mixture_report_small_run():
    report = scanner.sample_unwitnessed_mixtures(scanner.ScanConfig(seed=42), 25, 4)
    assert report.all_unwitnessed
    assert report.min_ghz_min >= -1e-12
    assert report.min_w_min >= -1e-12
    assert report.max_ghz_violation == 0.0
    assert 0 <= report.worst_mixture_index < 25


def test_mixture_outside_window_is_detected():
    # precondition matters: a weight-1 component at a_sq = 0.9 is detected
    rho = states.mix([(1.0, scanner.family_state(0.9, scanner.ScanConfig()))])
    ghz_min, _ = criterion.min_ghz_expectation_mixed(rho)
    assert ghz_min < -1e-6
    assert abs(ghz_min - (0.5 - 0.9)) < 1e-12


def test_mixture_args_validated():
    with pytest.raises(ValueError):
        scanner.sample_unwitnessed_mixtures(scanner.ScanConfig(), 0, 4)


@pytest.mark.parametrize("field", ["grid_points", "n_mixtures", "n_components"])
def test_counts_that_are_not_integers_are_rejected(field):
    # a float count would otherwise reach np.linspace, range or
    # Generator.random and fail there with a TypeError
    counts = {"grid_points": 3, "n_mixtures": 2, "n_components": 2, field: 2.5}
    with pytest.raises(ValueError, match=field):
        cfg = scanner.ScanConfig(grid_points=counts["grid_points"])
        scanner.sample_unwitnessed_mixtures(cfg, counts["n_mixtures"], counts["n_components"])


def _tiny_rows():
    return scanner.scan_superposition_family(scanner.ScanConfig(grid_points=3))


def test_csv_shape():
    text = scanner.rows_to_csv(_tiny_rows())
    lines = text.strip().split("\n")
    assert len(lines) == 4
    assert lines[0] == ",".join(scanner.CSV_COLUMNS)
    assert "true" in text and "false" in text


def test_json_shape_and_round_trip():
    rows = _tiny_rows()
    parsed = json.loads(scanner.rows_to_json(rows))
    assert len(parsed) == 3
    for row, obj in zip(rows, parsed):
        for col in scanner.CSV_COLUMNS:
            assert obj[col] == getattr(row, col)  # bit-exact float round trip


def test_emit_table_to_stream_and_path(tmp_path):
    rows = _tiny_rows()
    buf = io.StringIO()
    scanner.emit_table(rows, "csv", buf)
    path = tmp_path / "rows.csv"
    scanner.emit_table(rows, "csv", str(path))
    assert path.read_text() == buf.getvalue()
    with pytest.raises(ValueError):
        scanner.emit_table(rows, "yaml", buf)


def test_emit_table_into_a_missing_directory_names_the_path(tmp_path):
    path = str(tmp_path / "missing" / "rows.csv")
    with pytest.raises(FileNotFoundError) as info:
        scanner.emit_table(_tiny_rows(), "csv", path)
    assert info.value.filename == path
    assert ".tmp" not in str(info.value)


def test_emit_table_deterministic(tmp_path):
    cfg = scanner.ScanConfig(grid_points=51)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    scanner.emit_table(scanner.scan_superposition_family(cfg), "csv", str(p1))
    scanner.emit_table(scanner.scan_superposition_family(cfg), "csv", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


# The table as written by csv.writer and per-row dicts, with the column
# order spelled out: the references for the tuple-based writers.
REFERENCE_COLUMNS = (
    "a_sq",
    "ghz_min",
    "w_min",
    "detected_by_ghz",
    "detected_by_w",
    "detected",
    "genuinely_entangled",
)


def _reference_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REFERENCE_COLUMNS)
    for row in rows:
        writer.writerow([scanner._fmt(getattr(row, col)) for col in REFERENCE_COLUMNS])
    return buf.getvalue()


def _reference_json(rows):
    parts = []
    for row in rows:
        obj = {col: getattr(row, col) for col in REFERENCE_COLUMNS}
        parts.append("{" + ", ".join(f'"{col}": {scanner._fmt(v)}' for col, v in obj.items()) + "}")
    return "[" + ", ".join(parts) + "]"


@pytest.mark.parametrize("grid", [2, 3, 121, 1001])
def test_tables_match_the_reference_writers(grid):
    rng = np.random.default_rng(grid)
    for phases in [(0.0, 0.0, 0.0, 0.0), *rng.uniform(-np.pi, 2 * np.pi, (3, 4))]:
        phi, gamma, beta, rel = map(float, phases)
        cfg = scanner.ScanConfig(
            grid_points=grid, phase_phi=phi, phase_gamma=gamma, phase_beta=beta, rel_phase_ab=rel
        )
        rows = scanner.scan_superposition_family(cfg)
        assert scanner.rows_to_csv(rows).encode() == _reference_csv(rows).encode()
        assert scanner.rows_to_json(rows).encode() == _reference_json(rows).encode()


def test_scan_row_fields_are_the_columns():
    assert scanner.ScanRow._fields == scanner.CSV_COLUMNS == REFERENCE_COLUMNS


def test_scan_row_public_surface():
    values = (0.25, 0.25, 0.0833, False, False, False, True)
    row = scanner.ScanRow(
        a_sq=0.25,
        ghz_min=0.25,
        w_min=0.0833,
        detected_by_ghz=False,
        detected_by_w=False,
        detected=False,
        genuinely_entangled=True,
    )
    assert row == scanner.ScanRow(*values)
    assert row.w_min == 0.0833 and row.genuinely_entangled is True
    assert repr(row) == (
        "ScanRow(a_sq=0.25, ghz_min=0.25, w_min=0.0833, detected_by_ghz=False, "
        "detected_by_w=False, detected=False, genuinely_entangled=True)"
    )
    assert list(row.to_dict()) == list(REFERENCE_COLUMNS)
    assert list(row.to_dict().values()) == list(values)
    assert hash(row) == hash(values)
    # a row is a tuple: it iterates and compares as its values
    assert tuple(row) == values and row == values
    with pytest.raises(AttributeError):
        row.a_sq = 0.5
