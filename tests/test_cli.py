"""Command-line interface: presets, configs, determinism, error reporting."""

import json
import lzma
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wqed import cli, fields, specfun, validation
from wqed.model import ModelParams

# stored figure datasets, written by the per-point field code
REFERENCE_DIR = Path(__file__).resolve().parents[1] / "benchmarks/reference"
# a decimal number as %.17g writes it; everything between numbers is text
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def run_cli(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return cli.main(argv)


def refuse_constant(token):
    """``parse_constant`` of a strict reader: NaN and Infinity are errors."""
    raise ValueError(f"non-standard JSON constant {token}")


def read_csv(path):
    """Split a dataset into metadata lines, header row, and data rows."""
    meta, rows = [], []
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("# "):
                meta.append(line[2:])
            elif line:
                rows.append(line.split(","))
    return meta, rows[0], rows[1:]


def test_spectrum_preset_matches_figure_grid(tmp_path, monkeypatch):
    code = run_cli(["spectrum", "--preset", "fig2"], tmp_path, monkeypatch)
    assert code == 0
    meta, header, rows = read_csv(tmp_path / "fig2.csv")
    assert header[:3] == ["omega_over_Omega", "T_markov", "R_markov"]
    assert len(rows) == 2001
    # the resonance row is a perfect mirror
    mid = rows[1000]
    assert float(mid[0]) == 1.0
    assert float(mid[1]) == pytest.approx(0.0, abs=1e-12)
    assert float(mid[2]) == pytest.approx(1.0, abs=1e-12)
    assert any("k_Omega*d/pi" in line or "phase" in line for line in meta)


def test_spectrum_output_is_deterministic(tmp_path, monkeypatch):
    run_cli(["spectrum", "--preset", "fig2", "--out", "a.csv"],
            tmp_path, monkeypatch)
    run_cli(["spectrum", "--preset", "fig2", "--out", "b.csv"],
            tmp_path, monkeypatch)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_json_mirror_written(tmp_path, monkeypatch):
    code = run_cli(["peaks", "--preset", "fig8", "--json"],
                   tmp_path, monkeypatch)
    assert code == 0
    payload = json.loads((tmp_path / "fig8.json").read_text())
    assert payload["columns"][0] == "x_over_d"
    _, _, rows = read_csv(tmp_path / "fig8.csv")
    assert len(payload["rows"]) == len(rows)
    assert any("peak" in c for c in payload["columns"])


def test_json_mirror_is_strict_json(tmp_path, monkeypatch):
    # fig10's x = -inf reflectance rows hold nan and -inf cells; the JSON
    # mirror must carry the CSV's text for them, not the NaN/-Infinity
    # tokens that strict parsers reject
    code = run_cli(["field", "--preset", "fig10", "--json"],
                   tmp_path, monkeypatch)
    assert code == 0
    payload = json.loads((tmp_path / "fig10.json").read_text(),
                         parse_constant=refuse_constant)
    _, _, rows = read_csv(tmp_path / "fig10.csv")
    limit = [(got, want) for got, want in zip(payload["rows"], rows)
             if want[1] == "-inf"]
    assert limit and "nan" in limit[0][0]
    for got, want in limit:
        assert got == [float(c) if NUMBER.fullmatch(c) else c for c in want]


def test_beating_preset_reports_expected_peaks(tmp_path, monkeypatch, capsys):
    code = run_cli(["beating", "--preset", "fig7"], tmp_path, monkeypatch)
    assert code == 0
    out = capsys.readouterr().out
    assert "5e+07" in out and "1e+08" in out
    meta, header, rows = read_csv(tmp_path / "fig7.csv")
    assert len(rows) == 2 * 4096


def test_interqubit_preset_respects_exclusion_zone(tmp_path, monkeypatch):
    code = run_cli(["field", "--preset", "fig9"], tmp_path, monkeypatch)
    assert code == 0
    meta, header, rows = read_csv(tmp_path / "fig9.csv")
    x_col = header.index("x_over_d")
    scan_x = [float(r[x_col]) for r in rows if r[0].startswith("scan")]
    assert min(scan_x) >= 0.05
    assert max(scan_x) <= 0.95


def test_config_overrides_preset(tmp_path, monkeypatch):
    config = tmp_path / "sweep.ini"
    config.write_text("[sweep]\npoints = 11\n")
    code = run_cli(["spectrum", "--preset", "fig2", "--config",
                    str(config), "--out", "small.csv"],
                   tmp_path, monkeypatch)
    assert code == 0
    _, _, rows = read_csv(tmp_path / "small.csv")
    assert len(rows) == 11


def test_config_from_scratch(tmp_path, monkeypatch):
    config = tmp_path / "scan.ini"
    config.write_text(
        "[model]\n"
        "omega_q_ghz = 5.0\n"
        "gamma_ratio = 0.01\n"
        "phase_over_pi = 0.5\n"
        "[sweep]\n"
        "omega_min_over_omega_q = 0.99\n"
        "omega_max_over_omega_q = 1.01\n"
        "points = 21\n"
    )
    code = run_cli(["spectrum", "--config", str(config), "--out", "scan.csv"],
                   tmp_path, monkeypatch)
    assert code == 0
    _, header, rows = read_csv(tmp_path / "scan.csv")
    assert len(rows) == 21
    assert header[-1] == "flux_sum"


def test_field_config_with_fixed_positions(tmp_path, monkeypatch):
    config = tmp_path / "field.ini"
    config.write_text(
        "[model]\nomega_q_ghz = 5.0\ngamma_ratio = 0.01\nphase_over_pi = 0.5\n"
        "[grid]\nx_over_d = 3.0, -2.0\nt_s = 5e-6\n"
    )
    code = run_cli(["field", "--config", str(config), "--out", "fixed.csv"],
                   tmp_path, monkeypatch)
    assert code == 0
    _, header, rows = read_csv(tmp_path / "fixed.csv")
    assert len(rows) == 2
    x_col = header.index("x_over_d")
    assert sorted(float(r[x_col]) for r in rows) == [-2.0, 3.0]


def test_grid_positions_replace_the_preset_blocks(tmp_path, monkeypatch):
    # a configured x_over_d replaces the preset's blocks; the preset's
    # model, t_s and branch stay
    config = tmp_path / "field.ini"
    config.write_text("[grid]\nx_over_d = 3.0\n")
    code = run_cli(["field", "--preset", "fig6", "--config", str(config),
                    "--out", "one.csv"], tmp_path, monkeypatch)
    assert code == 0
    meta, header, rows = read_csv(tmp_path / "one.csv")
    assert len(rows) == 1
    assert rows[0][0] == "fixed:ws=1"
    assert float(rows[0][header.index("x_over_d")]) == 3.0
    assert "t_s = 5.0000000000000004e-06" in meta
    assert "branch = steady" in meta


MODEL_RATIOS = {"omega_q": "omega_q_ghz = 5.0", "gamma": "gamma_ratio = 0.01",
                "distance": "phase_over_pi = 0.5",
                "omega_s": "omega_s_over_omega_q = 1.007"}
MODEL_UNITS = {"omega_q": "omega_q_rad_s = 31415926535.89793",
               "gamma": "gamma_rad_s = 314159265.35897934",
               "distance": "distance_m = 0.015",
               "omega_s": "omega_s_rad_s = 31635838021.64921"}


def test_model_in_rad_s_and_metres_matches_ratios(tmp_path, monkeypatch):
    # the same parameters written in SI units and as ratios give the same
    # spectrum, and [output] path names the file when --out is not given
    sweep = "[sweep]\npoints = 41\n"
    for name, spelling in (("ratios", MODEL_RATIOS), ("units", MODEL_UNITS)):
        (tmp_path / f"{name}.ini").write_text(
            "[model]\n" + "\n".join(spelling.values()) + "\n" + sweep
            + f"[output]\npath = {name}.csv\n")
        code = run_cli(["spectrum", "--config", str(tmp_path / f"{name}.ini")],
                       tmp_path, monkeypatch)
        assert code == 0
    _, _, ratios = read_csv(tmp_path / "ratios.csv")
    _, _, units = read_csv(tmp_path / "units.csv")
    assert len(units) == len(ratios) == 41
    for got, want in zip(units, ratios):
        for g, w in zip(got, want):
            assert abs(float(g) - float(w)) <= 1e-12 * max(abs(float(w)), 1.0)


@pytest.mark.parametrize("missing, spellings", [
    ("omega_q", ("omega_q_ghz", "omega_q_rad_s")),
    ("gamma", ("gamma_ratio", "gamma_rad_s")),
    ("distance", ("distance_m", "phase_over_pi"))])
def test_model_needs_each_pair(missing, spellings, tmp_path, monkeypatch,
                               capsys):
    config = tmp_path / "model.ini"
    config.write_text("[model]\n" + "\n".join(
        v for k, v in MODEL_RATIOS.items() if k != missing) + "\n")
    code = run_cli(["spectrum", "--config", str(config)], tmp_path,
                   monkeypatch)
    assert code == 2
    err = capsys.readouterr().err
    assert all(name in err for name in spellings)


@pytest.mark.parametrize("quantity", sorted(MODEL_RATIOS))
def test_model_refuses_two_spellings_of_one_quantity(quantity, tmp_path,
                                                     monkeypatch, capsys):
    # a file that spells one quantity both ways is refused, naming both
    config = tmp_path / "model.ini"
    config.write_text("[model]\n" + "\n".join(MODEL_RATIOS.values()) + "\n"
                      + MODEL_UNITS[quantity] + "\n")
    code = run_cli(["spectrum", "--config", str(config), "--out", "x.csv"],
                   tmp_path, monkeypatch)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    for spelling in (MODEL_RATIOS[quantity], MODEL_UNITS[quantity]):
        assert spelling.split(" = ")[0] in err[0]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("omega_q_rad_s", 3.2e10), ("gamma_rad_s", 3.3e8), ("distance_m", 0.03),
    ("omega_s_rad_s", 3.17e10)])
def test_config_respells_a_preset_quantity(key, value, tmp_path, monkeypatch):
    # fig2 gives the ratio spellings; a config's SI spelling replaces them
    config = tmp_path / "model.ini"
    config.write_text(f"[model]\n{key} = {value!r}\n[sweep]\npoints = 5\n")
    code = run_cli(["spectrum", "--preset", "fig2", "--config", str(config),
                    "--out", "x.csv"], tmp_path, monkeypatch)
    assert code == 0
    meta, _, _ = read_csv(tmp_path / "x.csv")
    (written,) = [line for line in meta if line.startswith(f"{key} = ")]
    assert float(written.split(" = ")[1]) == value


def test_unknown_section_is_rejected(tmp_path, monkeypatch, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[model]\ngamma_ratio = 0.01\n[turbo]\nboost = 1\n")
    code = run_cli(["spectrum", "--config", str(config)], tmp_path, monkeypatch)
    assert code == 2
    assert "turbo" in capsys.readouterr().err


@pytest.mark.parametrize("text, reason", [
    ("[output]\npath = a%b.csv\n", None),
    ("[model]\nomega_q_ghz = %(x)s\n", "omega_q_ghz"),
    ("[DEFAULT]\namplitude = 3\n", "[DEFAULT]"),
    ("[model]\namplitude = 2\n[DEFAULT]\nfoo = 1\n", "[DEFAULT]"),
], ids=["percent-path", "percent-value", "default-alone",
        "default-beside-model"])
def test_ini_values_are_literal_and_default_is_refused(text, reason, tmp_path,
                                                       monkeypatch, capsys):
    # a value is its literal text, '%' included, and [DEFAULT] is refused
    # like any other unknown section rather than applied to every section
    config = tmp_path / "case.ini"
    config.write_text(text)
    code = run_cli(["peaks", "--preset", "fig8", "--config", str(config)],
                   tmp_path, monkeypatch)
    written = sorted(path.name for path in tmp_path.iterdir()
                     if path != config)
    if reason is None:
        assert code == 0 and written == ["a%b.csv"]
        return
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and reason in err[0]
    assert written == []


def test_unknown_key_is_rejected(tmp_path, monkeypatch, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[model]\ngamm_ratio = 0.01\n")
    code = run_cli(["spectrum", "--config", str(config)], tmp_path, monkeypatch)
    assert code == 2
    assert "gamm_ratio" in capsys.readouterr().err


def test_malformed_config_reports_line_number(tmp_path, monkeypatch, capsys):
    config = tmp_path / "broken.ini"
    config.write_text("[model]\ngamma_ratio 0.01\n")
    code = run_cli(["spectrum", "--config", str(config)], tmp_path, monkeypatch)
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err and "2" in err and "gamma_ratio" in err


def test_resonant_beating_request_fails_cleanly(tmp_path, monkeypatch, capsys):
    config = tmp_path / "beat.ini"
    config.write_text(
        "[model]\nomega_q_ghz = 5.0\ngamma_ratio = 0.01\nphase_over_pi = 2.0\n"
        "[beating]\ndetunings_over_omega_q = 0.0\n"
    )
    code = run_cli(["beating", "--config", str(config)], tmp_path, monkeypatch)
    assert code == 2
    assert "detuned" in capsys.readouterr().err


def test_exclusion_zone_violation_reported(tmp_path, monkeypatch, capsys):
    config = tmp_path / "field.ini"
    config.write_text(
        "[model]\nomega_q_ghz = 5.0\ngamma_ratio = 0.01\nphase_over_pi = 0.5\n"
        "[grid]\nx_over_d = 0.02\nt_s = 5e-6\n"
    )
    code = run_cli(["field", "--config", str(config)], tmp_path, monkeypatch)
    assert code == 2
    assert "excluded" in capsys.readouterr().err


def test_quick_oracle_check_passes(tmp_path, monkeypatch, capsys):
    code = run_cli(["oracle-check"], tmp_path, monkeypatch)
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    # one PASS line per row of the check table, in table order
    assert [line.split(": max_err=")[0] for line in lines[:-1]] \
        == [f"PASS {name}" for name, _, _ in validation.checks()]
    assert lines[-1] == "7/7 checks passed"


def test_failed_oracle_check_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(validation, "checks", lambda full=False: [
        ("cheap pass", 1.0, lambda rng: 0.5),
        ("cheap fail", 1.0, lambda rng: 2.0)])
    code = run_cli(["oracle-check", "--json"], tmp_path, monkeypatch)
    out = capsys.readouterr().out
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] \
        == ["FAIL cheap fail: max_err=2.000e+00 (tol 1.0e+00)"]
    assert out.splitlines()[-1] == "1/2 checks passed"
    report = (tmp_path / "oracle-check.json").read_text()
    assert '"passed": false' in report
    assert [c["passed"] for c in json.loads(report)["checks"]] == [True, False]


def test_oracle_check_json_report_written_where_out_says(tmp_path,
                                                        monkeypatch, capsys):
    # --out names the report itself, so a .json name is kept as given
    monkeypatch.setattr(validation, "checks", lambda full=False: [
        ("cheap pass", 1.0, lambda rng: 0.5)])
    code = run_cli(["oracle-check", "--out", "report.json", "--json"],
                   tmp_path, monkeypatch)
    assert code == 0
    assert "wrote report.json\n" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    assert [c["name"] for c in checks] == ["cheap pass"]


def test_oracle_check_out_needs_json(tmp_path, monkeypatch, capsys):
    # --out only names the --json report, so alone it would write nothing
    monkeypatch.setattr(validation, "checks", lambda full=False: [])
    code = run_cli(["oracle-check", "--out", "report.csv"], tmp_path,
                   monkeypatch)
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and "--json" in err[0]
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(SystemExit):
        run_cli(["oracle-check", "--help"], tmp_path, monkeypatch)
    assert "--json report" in capsys.readouterr().out


def test_console_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "wqed.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


@pytest.mark.parametrize("preset", ["fig2", "fig3", "fig7", "fig8", "fig6",
                                    "fig9", "fig10", "fig11"])
def test_field_preset_matches_stored_reference(preset, tmp_path, monkeypatch):
    # every stored figure dataset (the field presets' from the point-by-point
    # field code) is reproduced: same text between the numbers, numbers
    # within 1e-12 * max(|ref|, 1)
    command = cli.PRESETS[preset]["command"]
    code = run_cli([command, "--preset", preset, "--out", "got.csv"],
                   tmp_path, monkeypatch)
    assert code == 0
    got = (tmp_path / "got.csv").read_text().splitlines()
    ref = lzma.decompress((REFERENCE_DIR / f"{preset}.csv.xz").read_bytes())
    ref = ref.decode().splitlines()
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        if g == r:
            continue
        g_parts, r_parts = NUMBER.split(g), NUMBER.split(r)
        assert g_parts[::2] == r_parts[::2], g
        for gn, rn in zip(g_parts[1::2], r_parts[1::2]):
            assert abs(float(gn) - float(rn)) \
                <= 1e-12 * max(abs(float(rn)), 1.0), (gn, rn)


def test_closed_stdout_exits_two_without_traceback():
    # a reader that goes away, as in ``wqed oracle-check | head -1``, is
    # not an oracle failure: exit 2 and nothing on stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "wqed.cli",
                               "oracle-check"], stdout=write_end,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == ""


def test_closed_stdout_after_a_table_keeps_the_table(tmp_path):
    # a figure command whose reader is gone before it reports: the table
    # is written, then the report fails on the closed pipe, exit 2
    out = tmp_path / "fig2.csv"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "wqed.cli", "spectrum",
                               "--preset", "fig2", "--out", str(out)],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert out.read_text().splitlines()[-1].startswith("1.02,")


# a table of the cells that %.17g writes in its own ways: nan, +-inf, -0.0,
# the smallest subnormal, the largest decades, Python ints and a text column
EDGE_COLUMNS = ["label", "a", "b", "c", "d", "n"]
EDGE_ROWS = [
    ("p", float("nan"), float("inf"), -0.0, 5e-324, 3),
    ("q:x=-1d", float("-inf"), 1e308, 0.1, -5e-324, -12),
    ("r", 1.0 / 3.0, -1e308, 2.5e-310, np.float64(1e-300), 0),
]


def preset_table(preset):
    """(columns, record table) of a preset's figure, as ``main`` writes it."""
    command = cli.PRESETS[preset]["command"]
    scenario = cli.build_scenario(
        cli.build_parser().parse_args([command, "--preset", preset]))
    _, columns, arrays, _ = cli._FIGURES[command](scenario)
    return columns, cli._table(columns, arrays)


PRESET_NAMES = sorted(cli.PRESETS, key=lambda name: int(name[3:]))


@pytest.mark.parametrize("rows", [EDGE_ROWS, [], *PRESET_NAMES],
                         ids=["edge", "empty", *PRESET_NAMES])
def test_write_csv_matches_per_cell_writing(rows, tmp_path,
                                            per_cell_write_csv):
    # the edge cells and every preset's table; the per-cell writer formats
    # a record table's numbers from its Python floats
    lines = ["wqed test", "x = %.17g" % 0.1]
    columns = EDGE_COLUMNS
    if isinstance(rows, str):
        columns, rows = preset_table(rows)
    cli.write_csv(tmp_path / "got.csv", lines, columns, rows)
    per_cell_write_csv(tmp_path / "ref.csv", lines, columns,
                       rows.tolist() if isinstance(rows, np.ndarray) else rows)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "ref.csv").read_bytes()
    assert got.count(b"\n") == len(lines) + 1 + len(rows)


@pytest.mark.parametrize("rows", [EDGE_ROWS, [],
                                  cli._record_table(EDGE_COLUMNS, EDGE_ROWS)],
                         ids=["edge", "empty", "record_table"])
def test_write_json_matches_json_dump_writing(rows, tmp_path):
    # the cell mapping over EDGE_ROWS, and json.dumps' one-space layout
    lines = ["wqed test", "x = %.17g" % 0.1, 'quote " and \u00e9']
    cli.write_json(tmp_path / "got.json", lines, EDGE_COLUMNS, rows)
    raw = (tmp_path / "got.json").read_bytes()
    assert raw.isascii() and b'"quote \\" and \\u00e9"' in raw
    payload = json.loads(raw, parse_constant=refuse_constant)
    assert raw.decode() == json.dumps(payload, indent=1) + "\n"
    assert payload["meta"] == lines and payload["columns"] == EDGE_COLUMNS
    assert len(payload["rows"]) == len(rows)
    texts = []
    for got, want in zip(payload["rows"], rows.tolist()
                         if isinstance(rows, np.ndarray) else rows):
        assert got[0] == want[0]
        for cell, value in zip(got[1:], want[1:]):
            value = float(value)
            if math.isfinite(value):
                # the same float, -0.0's sign and the subnormals included
                assert type(cell) is float and cell.hex() == value.hex()
            else:
                texts.append(cell)
    assert texts == (["nan", "inf", "-inf"] if len(rows) else [])


@pytest.mark.parametrize("preset", ["fig9", "fig10"])
def test_json_mirror_matches_json_dump_writing(preset, tmp_path, monkeypatch):
    # every mirror row is its CSV row read back: a text cell is the same
    # text, a finite cell the float of its CSV text bit for bit, and a
    # non-finite cell (fig10's nan and -inf) the CSV text itself
    assert run_cli(["field", "--preset", preset, "--json"],
                   tmp_path, monkeypatch) == 0
    meta, header, rows = read_csv(tmp_path / f"{preset}.csv")
    payload = json.loads((tmp_path / f"{preset}.json").read_text(),
                         parse_constant=refuse_constant)
    assert payload["meta"] == meta and payload["columns"] == header
    assert len(payload["rows"]) == len(rows)
    non_finite = 0
    for got, want in zip(payload["rows"], rows):
        assert len(got) == len(want)
        for cell, text in zip(got, want):
            if isinstance(cell, str):
                assert cell == text and not NUMBER.fullmatch(text)
                non_finite += text in ("nan", "inf", "-inf")
            else:
                assert type(cell) is float
                assert cell.hex() == float(text).hex()
    assert (non_finite > 0) == (preset == "fig10")


@pytest.mark.parametrize("x_over_d, ratios, t, branch", [
    ([3.0], np.linspace(0.98, 1.02, 41), 5e-6, "steady"),      # line
    (np.linspace(1.05, 6.0, 37), [1.007], 5e-6, "steady"),     # scan
    ([1.5, 2.0, 4.0], [0.99, 1.01], 2e-8, "transient"),        # 2 x 3
], ids=["line", "scan", "product"])
def test_field_rows_match_per_point_writing(x_over_d, ratios, t, branch,
                                            tmp_path, per_cell_write_csv,
                                            per_point_field_rows):
    omega_q = 2.0 * np.pi * 5.0e9
    params = ModelParams.from_phase(omega_q, 0.01 * omega_q, 0.5,
                                    amplitude=0.37)
    omega = np.asarray(ratios) * params.omega_q
    args = (params, x_over_d, ratios, omega, t, branch, "block")
    table = cli._table(cli._FIELD_COLUMNS, cli._field_columns(*args))
    ref = per_point_field_rows(*args)
    assert len(table) == len(ref) == len(ratios) * len(x_over_d)
    cli.write_csv(tmp_path / "got.csv", [], cli._FIELD_COLUMNS, table)
    per_cell_write_csv(tmp_path / "ref.csv", [], cli._FIELD_COLUMNS, ref)
    assert (tmp_path / "got.csv").read_bytes() \
        == (tmp_path / "ref.csv").read_bytes()


PRESET_OF = {"spectrum": "fig2", "field": "fig6", "peaks": "fig8",
             "beating": "fig7"}


def refused_error(command, config_text, tmp_path, monkeypatch, capsys,
                  preset=None):
    """Run ``command``'s preset with a config override that must be refused.

    Asserts exit 2, no output file and one stderr line; returns that line.
    """
    config = tmp_path / "bad.ini"
    config.write_text(config_text)
    code = run_cli([command, "--preset", preset or PRESET_OF[command],
                    "--config", str(config), "--out", "bad.csv"],
                   tmp_path, monkeypatch)
    assert code == 2
    assert not (tmp_path / "bad.csv").exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


@pytest.mark.parametrize("command, section, key, value", [
    ("spectrum", "sweep", "points", "2.7"),
    ("spectrum", "sweep", "points", "0"),
    ("peaks", "peaks", "points", "-4"),
    ("beating", "beating", "n_periods", "0.5"),
    ("beating", "beating", "n_samples", "1"),
])
def test_integer_keys_are_validated(command, section, key, value, tmp_path,
                                    monkeypatch, capsys):
    err = refused_error(command, f"[{section}]\n{key} = {value}\n",
                        tmp_path, monkeypatch, capsys)
    assert f"{section}.{key}" in err


def test_unwritable_output_exits_with_input_error(tmp_path, monkeypatch,
                                                 capsys):
    out = tmp_path / "missing_dir" / "x.csv"
    code = run_cli(["peaks", "--preset", "fig8", "--out", str(out)],
                   tmp_path, monkeypatch)
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot write output" in err and len(err.strip().splitlines()) == 1


def test_failed_run_leaves_no_output_and_clobbers_none(tmp_path, monkeypatch,
                                                       capsys):
    # the JSON mirror cannot be written: the CSV must not appear, an old
    # one must survive, and no temporary file may be left behind
    for name, old_csv in (("fresh", None), ("kept", "old data\n")):
        out = tmp_path / name
        out.mkdir()
        (out / "x.json").mkdir()
        if old_csv:
            (out / "x.csv").write_text(old_csv)
        code = run_cli(["peaks", "--preset", "fig8", "--json",
                        "--out", str(out / "x.csv")], tmp_path, monkeypatch)
        assert code == 2
        assert "cannot write output" in capsys.readouterr().err
        expected = ["x.json"] + (["x.csv"] if old_csv else [])
        assert sorted(p.name for p in out.iterdir()) == sorted(expected)
        if old_csv:
            assert (out / "x.csv").read_text() == old_csv

    # a write that fails halfway through: same guarantees
    def failing_write_json(path, lines, columns, rows):
        with open(path, "w") as handle:
            handle.write("{")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_json", failing_write_json)
    out = tmp_path / "half"
    out.mkdir()
    (out / "x.csv").write_text("old data\n")
    code = run_cli(["peaks", "--preset", "fig8", "--json",
                    "--out", str(out / "x.csv")], tmp_path, monkeypatch)
    assert code == 2
    assert "disk full" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["x.csv"]
    assert (out / "x.csv").read_text() == "old data\n"


def test_special_function_failure_exits_with_runtime_error(tmp_path,
                                                          monkeypatch, capsys):
    # a continued fraction that does not converge is exit 2 with one line
    # on stderr, not a traceback, and no output file appears
    def no_convergence(z, mag=None):
        raise RuntimeError("continued fraction failed to converge")

    monkeypatch.setattr(specfun, "_e1s_continued_fraction", no_convergence)
    code = run_cli(["peaks", "--preset", "fig8", "--out", "x.csv"],
                   tmp_path, monkeypatch)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "converge" in err
    assert len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, preset, evaluator", [
    ("spectrum", "fig2", "markov_spectra"),
    ("beating", "fig7", "beat_note_series"),
    ("peaks", "fig8", "space_time_grid"),
])
def test_running_out_of_memory_exits_two(command, preset, evaluator,
                                         tmp_path, monkeypatch, capsys):
    # a count too large for the machine (points = 1e13) fails in numpy's
    # allocator; that is bad input: exit 2 with one line on stderr, no
    # traceback and no output file.  The allocation itself is not tried.
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 72.8 TiB for an array")

    monkeypatch.setattr(fields, evaluator, out_of_memory)
    code = run_cli([command, "--preset", preset, "--json", "--out", "x.csv"],
                   tmp_path, monkeypatch)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate")
    assert len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, section, key, value", [
    ("spectrum", "sweep", "omega_min_over_omega_q", "0.9, 0.95"),
    # a sweep bound must be a frequency a photon can have
    ("spectrum", "sweep", "omega_min_over_omega_q", "-1"),
    ("spectrum", "sweep", "omega_max_over_omega_q", "0"),
    ("spectrum", "sweep", "omega_max_over_omega_q", "1e300"),
    ("spectrum", "model", "gamma_ratio", "0.01, 0.02"),
    ("field", "grid", "t_s", "1e-6, 2e-6"),
    ("peaks", "peaks", "t_s", "soon"),
    ("beating", "beating", "detunings_over_omega_q", "0.01, abc"),
    ("field", "grid", "x_over_d", "3.0, abc"),
    ("field", "grid", "branch", "sideways"),
])
def test_scalar_keys_are_validated(command, section, key, value, tmp_path,
                                   monkeypatch, capsys):
    err = refused_error(command, f"[{section}]\n{key} = {value}\n",
                        tmp_path, monkeypatch, capsys)
    assert f"{section}.{key}" in err


@pytest.mark.parametrize("amplitude", ["1e200", "1e-200"])
@pytest.mark.parametrize("command", sorted(PRESET_OF))
def test_amplitude_whose_square_leaves_the_float_range_is_refused(
        command, amplitude, tmp_path, monkeypatch, capsys):
    # the outputs divide by A^2: it must not overflow or underflow
    err = refused_error(command, f"[model]\namplitude = {amplitude}\n",
                        tmp_path, monkeypatch, capsys)
    assert "amplitude^2" in err


@pytest.mark.parametrize("command, preset", [("field", "fig9"),
                                             ("beating", "fig7")])
def test_amplitude_near_the_top_of_the_float_range_is_refused(
        command, preset, tmp_path, monkeypatch, capsys):
    # A^2 = 1e308 is finite, but fig9's envelopes, larger than A, overflow
    # when squared, and so does fig7's sum of 4096 squared envelopes
    err = refused_error(command, "[model]\namplitude = 1e154\n", tmp_path,
                        monkeypatch, capsys, preset=preset)
    assert "amplitude^2" in err


@pytest.mark.parametrize("command, overrides, reason", [
    ("peaks", "x_max_over_d = -0.01", "excluded"),
    ("peaks", "x_min_over_d = -1\nx_max_over_d = -0.1\nt_s = 1e-12",
     "not yet reachable"),
    ("beating", "x0_over_d = 1.01", "excluded"),
    ("beating", "x0_over_d = 0.5", "Between, not Behind"),
    # at or below two samples a beat the FFT peak aliases
    ("beating", "n_samples = 79", "n_samples = 79, n_periods = 40"),
])
def test_peaks_and_beating_points_are_validated_like_field_grids(
        command, overrides, reason, tmp_path, monkeypatch, capsys):
    err = refused_error(command, f"[{command}]\n{overrides}\n",
                        tmp_path, monkeypatch, capsys)
    assert reason in err


@pytest.mark.parametrize("command, config_text", [
    ("field", "[grid]\nx_over_d = 3.0\nt_s = 1e300\nbranch = steady\n"),
    ("field", "[grid]\nx_over_d = 3.0\nt_s = 1e300\nbranch = auto\n"),
    ("field", "[grid]\nx_over_d = 3.0\nt_s = 1e300\nbranch = transient\n"),
    ("field", "[grid]\nx_over_d = 3.0\nt_s = 1e6\n"),
    ("peaks", "[peaks]\nt_s = 1e300\n"),
    ("beating", "[beating]\nx0_over_d = 1e300\n"),
    ("beating", "[beating]\ndetunings_over_omega_q = 1e-15\n"),
], ids=["field-steady-1e300", "field-auto-1e300", "field-transient-1e300",
        "field-1e6", "peaks-1e300", "beating-x0-1e300", "beating-det-1e-15"])
def test_phases_past_two_to_the_53_are_refused(command, config_text,
                                               tmp_path, monkeypatch, capsys):
    # past omega t = 2^53 a phase has no fractional bits: refused before
    # any field is formed, so no RuntimeWarning reaches stderr
    err = refused_error(command, config_text, tmp_path, monkeypatch, capsys)
    assert "2^53" in err


@pytest.mark.parametrize("argv, config_text, reason", [
    (["spectrum"], None, "--preset and/or --config"),
    (["spectrum", "--preset", "fig99"], None, "unknown preset 'fig99'"),
    (["field", "--preset", "fig2"], None, "'spectrum' subcommand"),
    (["field", "--config", "model.ini"],
     "[model]\n" + "\n".join(MODEL_RATIOS.values()) + "\n", "grid.x_over_d"),
    (["spectrum", "--config", "absent.ini"], None, "cannot read config"),
])
def test_scenario_refusals_exit_two_with_one_line(argv, config_text, reason,
                                                  tmp_path, monkeypatch,
                                                  capsys):
    if config_text is not None:
        (tmp_path / "model.ini").write_text(config_text)
    code = run_cli(argv + ["--out", "x.csv"], tmp_path, monkeypatch)
    assert code == 2
    assert not (tmp_path / "x.csv").exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and reason in err[0]


@pytest.mark.parametrize("path", ["3", "a,b.csv"])
def test_output_path_is_read_as_text(path, tmp_path, monkeypatch):
    # a path that looks like a number or a comma list is still one file name
    (tmp_path / "out.ini").write_text(f"[output]\npath = {path}\n")
    code = run_cli(["peaks", "--preset", "fig8", "--config", "out.ini"],
                   tmp_path, monkeypatch)
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["out.ini", path])


@pytest.mark.parametrize("flag", [["--preset", "fig2"],
                                  ["--config", "absent.ini"]])
def test_oracle_check_refuses_scenario_flags(flag, tmp_path, monkeypatch,
                                             capsys):
    # the checks take no scenario, so a preset or config is an error, not
    # something to ignore
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["oracle-check"] + flag, tmp_path, monkeypatch)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
