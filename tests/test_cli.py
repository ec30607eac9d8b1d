"""Command-line interface: presets, configs, determinism, error reporting."""

import json
import lzma
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wqed import cli, specfun, validation

# stored figure datasets, written by the per-point field code
REFERENCE_DIR = Path(__file__).resolve().parents[1] / "benchmarks/reference"
# a decimal number as %.17g writes it; everything between numbers is text
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def run_cli(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return cli.main(argv)


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

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    payload = json.loads((tmp_path / "fig10.json").read_text(),
                         parse_constant=refuse)
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


def test_unknown_section_is_rejected(tmp_path, monkeypatch, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[model]\ngamma_ratio = 0.01\n[turbo]\nboost = 1\n")
    code = run_cli(["spectrum", "--config", str(config)], tmp_path, monkeypatch)
    assert code == 2
    assert "turbo" in capsys.readouterr().err


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


def test_console_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "wqed.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


@pytest.mark.parametrize("preset", ["fig6", "fig9", "fig10", "fig11"])
def test_field_preset_matches_stored_reference(preset, tmp_path, monkeypatch):
    # whole drive sweeps per block must reproduce the point-by-point data:
    # same text between the numbers, numbers within 1e-12 * max(|ref|, 1)
    code = run_cli(["field", "--preset", preset, "--out", "got.csv"],
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


PRESET_OF = {"spectrum": "fig2", "field": "fig6", "peaks": "fig8",
             "beating": "fig7"}


def refused_error(command, config_text, tmp_path, monkeypatch, capsys):
    """Run ``command``'s preset with a config override that must be refused.

    Asserts exit 2, no output file and one stderr line; returns that line.
    """
    config = tmp_path / "bad.ini"
    config.write_text(config_text)
    code = run_cli([command, "--preset", PRESET_OF[command], "--config",
                    str(config), "--out", "bad.csv"], tmp_path, monkeypatch)
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
    def no_convergence(z):
        raise RuntimeError("continued fraction failed to converge")

    monkeypatch.setattr(specfun, "_e1s_continued_fraction", no_convergence)
    code = run_cli(["peaks", "--preset", "fig8", "--out", "x.csv"],
                   tmp_path, monkeypatch)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "converge" in err
    assert len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, section, key, value", [
    ("spectrum", "sweep", "omega_min_over_omega_q", "0.9, 0.95"),
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


@pytest.mark.parametrize("command, overrides, reason", [
    ("peaks", "x_max_over_d = -0.01", "excluded"),
    ("peaks", "x_min_over_d = -1\nx_max_over_d = -0.1\nt_s = 1e-12",
     "not yet reachable"),
    ("beating", "x0_over_d = 1.01", "excluded"),
    ("beating", "x0_over_d = 0.5", "Between, not Behind"),
])
def test_peaks_and_beating_points_are_validated_like_field_grids(
        command, overrides, reason, tmp_path, monkeypatch, capsys):
    err = refused_error(command, f"[{command}]\n{overrides}\n",
                        tmp_path, monkeypatch, capsys)
    assert reason in err
