"""Command-line front end producing the CSV datasets behind the field scans.

Subcommands
-----------
spectrum
    Transmittance/reflectance sweep, Markov closed forms next to the
    exact lattice expressions.
field
    Field envelopes and energy densities on a position/frequency grid
    (behind, before, or between the qubits).
beating
    Time series of the steady transmitted energy density at a fixed
    point for detuned drives, with the FFT beat-peak report.
peaks
    Reflected resonance-peak value against distance from the first
    qubit, closed formula next to the directly evaluated steady field.
oracle-check
    Runs the closed-form-vs-oracle checks of ``wqed.validation`` and
    exits 1 on any tolerance failure.

Scenarios are INI files (flat ``key = value`` under sections); named
presets embed the parameter sets of the survey figures.  Output is CSV
with ``#``-prefixed metadata lines, and every run with the same scenario
produces byte-identical output (fixed 17-significant-digit floats, no
timestamps).  Each figure subcommand returns its table, assembled column by
column from whole arrays, and ``main`` writes every table in one place,
through one row template per table.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .model import ModelParams, classify_regime, collective_rates
from . import fields
from .version import __version__

_SECTIONS = {
    "model": ("omega_q_ghz", "omega_q_rad_s", "gamma_ratio", "gamma_rad_s",
              "distance_m", "phase_over_pi", "v_g_m_s",
              "omega_s_over_omega_q", "omega_s_rad_s", "amplitude"),
    "sweep": ("omega_min_over_omega_q", "omega_max_over_omega_q", "points"),
    "grid": ("x_over_d", "t_s", "branch"),
    "beating": ("x0_over_d", "detunings_over_omega_q", "n_periods",
                "n_samples"),
    "peaks": ("x_min_over_d", "x_max_over_d", "points", "t_s"),
    "output": ("path",),
}


class ScenarioError(Exception):
    """Raised for malformed or inconsistent scenario input."""


# ---------------------------------------------------------------------------
# presets: caption parameter sets of the survey figures

def _preset(command, caption, model, **extra):
    entry = {"command": command, "caption": caption, "model": model}
    entry.update(extra)
    return entry


_SPECTRUM_SWEEP = {"omega_min_over_omega_q": 0.98,
                   "omega_max_over_omega_q": 1.02, "points": 2001}
_WIDE_SWEEP = {"omega_min_over_omega_q": 0.8,
               "omega_max_over_omega_q": 1.2, "points": 2001}
_WEAK = {"omega_q_ghz": 5.0, "gamma_ratio": 0.01, "v_g_m_s": 3.0e8}
_STRONG = {"omega_q_ghz": 5.0, "gamma_ratio": 0.1, "v_g_m_s": 3.0e8}

PRESETS = {
    "fig2": _preset(
        "spectrum",
        "Markovian vs exact transmittance; Gamma/Omega=0.01, "
        "Omega/2pi=5 GHz, k_Omega d=pi/2",
        dict(_WEAK, phase_over_pi=0.5), sweep=dict(_SPECTRUM_SWEEP)),
    "fig3": _preset(
        "spectrum",
        "Markovian vs exact transmittance; Gamma/Omega=0.1, "
        "Omega/2pi=5 GHz, k_Omega d=5pi",
        dict(_STRONG, phase_over_pi=5.0), sweep=dict(_WIDE_SWEEP)),
    "fig6": _preset(
        "field",
        "Transmitted energy behind the second qubit; resonance line at "
        "x=3d and spatial decay from x=1.05d for "
        "(omega_S-Omega)/Omega=+-0.007; Gamma/Omega=0.01, "
        "Omega/2pi=5 GHz, d=0.015 m (k_Omega d=pi/2)",
        dict(_WEAK, phase_over_pi=0.5),
        grid={"t_s": 5.0e-6, "branch": "steady"},
        blocks=[
            {"kind": "line", "x_over_d": [3.0],
             "omega_lo": 0.98, "omega_hi": 1.02, "points": 1001},
            {"kind": "scan", "omega_s_over_omega_q": [1.007, 0.993],
             "x_lo": 1.05, "x_hi": 60.0, "points": 1180},
        ]),
    "fig7": _preset(
        "beating",
        "Beatings of the field energy behind the second qubit at x=2d; "
        "(omega_S-Omega)/Omega=0.01 and 0.02; Gamma/Omega=0.01, "
        "Omega/2pi=5 GHz, k_Omega d=2pi, d=0.06 m",
        dict(_WEAK, phase_over_pi=2.0),
        beating={"x0_over_d": 2.0,
                 "detunings_over_omega_q": [0.01, 0.02],
                 "n_periods": 40, "n_samples": 4096}),
    "fig8": _preset(
        "peaks",
        "Peak value of the reflected resonance line vs distance from the "
        "first qubit; k_Omega d=pi/2, Omega/2pi=5 GHz, Gamma/Omega=0.01, "
        "d=0.015 m",
        dict(_WEAK, phase_over_pi=0.5),
        peaks={"x_min_over_d": -8.0, "x_max_over_d": -0.05,
               "points": 1591, "t_s": 5.0e-6}),
    "fig9": _preset(
        "field",
        "Photon field between qubits for k_Omega d=pi/2; resonance lines "
        "at x=0.5d, 0.25d, 0.75d and spatial dependence for "
        "omega_S/Omega=1, 1.01, 0.99, 1.02, 0.98; Gamma/Omega=0.01, "
        "Omega/2pi=5 GHz, d=0.015 m",
        dict(_WEAK, phase_over_pi=0.5),
        grid={"t_s": 5.0e-6, "branch": "steady"},
        blocks=[
            {"kind": "line", "x_over_d": [0.5, 0.25, 0.75],
             "omega_lo": 0.98, "omega_hi": 1.02, "points": 1001},
            {"kind": "scan",
             "omega_s_over_omega_q": [1.0, 1.01, 0.99, 1.02, 0.98],
             "x_lo": 0.05, "x_hi": 0.95, "points": 451},
        ]),
    "fig10": _preset(
        "field",
        "Reflected resonance lines for k_Omega d=2pi at x=-0.5d, -d, "
        "-2d and the x=-infinity (reflectance) limit, t=5e-6 s; "
        "Gamma/Omega=0.01, Omega/2pi=5 GHz, d=0.06 m",
        dict(_WEAK, phase_over_pi=2.0),
        grid={"t_s": 5.0e-6, "branch": "steady"},
        blocks=[
            {"kind": "line", "x_over_d": [-0.5, -1.0, -2.0],
             "omega_lo": 0.98, "omega_hi": 1.02, "points": 1001},
            {"kind": "reflectance_limit",
             "omega_lo": 0.98, "omega_hi": 1.02, "points": 1001},
        ]),
    "fig11": _preset(
        "field",
        "Photon field between qubits for k_Omega d=2pi; resonance lines "
        "at x=0.25d, 0.5d, 0.75d and spatial dependence for "
        "omega_S/Omega=1, 1.01, 0.99, 1.02, 0.98; Gamma/Omega=0.01, "
        "Omega/2pi=5 GHz, d=0.06 m",
        dict(_WEAK, phase_over_pi=2.0),
        grid={"t_s": 5.0e-6, "branch": "steady"},
        blocks=[
            {"kind": "line", "x_over_d": [0.25, 0.5, 0.75],
             "omega_lo": 0.98, "omega_hi": 1.02, "points": 1001},
            {"kind": "scan",
             "omega_s_over_omega_q": [1.0, 1.01, 0.99, 1.02, 0.98],
             "x_lo": 0.05, "x_hi": 0.95, "points": 451},
        ]),
}
# reflectance figures share the transmittance parameter sets
PRESETS["fig4"] = dict(PRESETS["fig2"],
                       caption=PRESETS["fig2"]["caption"].replace(
                           "transmittance", "reflectance"))
PRESETS["fig5"] = dict(PRESETS["fig3"],
                       caption=PRESETS["fig3"]["caption"].replace(
                           "transmittance", "reflectance"))


# ---------------------------------------------------------------------------
# scenario assembly

def _parse_value(raw):
    """Interpret an INI value: list if comma-separated, float if numeric."""
    raw = raw.strip()
    if "," in raw:
        return [_parse_value(part) for part in raw.split(",")]
    try:
        return float(raw)
    except ValueError:
        return raw


def read_scenario(path):
    """Read an INI scenario file into {section: {key: value}}.

    Raises ScenarioError with the configparser line number on syntax
    errors, names the offending section/key on unknown entries, and names
    both keys when [model] spells one quantity two ways.  A value is its
    literal text, '%' included, and [DEFAULT] is an unknown section like
    any other: no header matches the empty default-section name.
    """
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path) as handle:
            parser.read_file(handle, source=path)
    except OSError as exc:
        raise ScenarioError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ScenarioError(f"config parse error: {exc}") from exc
    scenario = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ScenarioError(
                f"unknown config section [{section}]; expected one of "
                + ", ".join(sorted(_SECTIONS)))
        allowed = _SECTIONS[section]
        scenario[section] = {}
        for key, raw in parser.items(section):
            if key not in allowed:
                raise ScenarioError(
                    f"unknown key '{key}' in section [{section}]; allowed: "
                    + ", ".join(allowed))
            # a path is text, even when it looks like a number or a list
            scenario[section][key] = raw if section == "output" \
                else _parse_value(raw)
    # one quantity, one spelling per file; a file may still respell what a
    # preset gives, since _build_params prefers the SI spelling
    model = scenario.get("model", {})
    for pair in (("omega_q_ghz", "omega_q_rad_s"),
                 ("gamma_ratio", "gamma_rad_s"),
                 ("phase_over_pi", "distance_m"),
                 ("omega_s_over_omega_q", "omega_s_rad_s")):
        if all(key in model for key in pair):
            raise ScenarioError("[model] gives both %s and %s; keep one"
                                % pair)
    return scenario


def _build_params(cfg) -> ModelParams:
    """Resolve the [model] mapping into ModelParams (radians internally)."""
    def number(key, default=None):
        return _number(cfg, "model", key, default)

    if "omega_q_rad_s" in cfg:
        omega_q = number("omega_q_rad_s")
    elif "omega_q_ghz" in cfg:
        omega_q = 2.0 * np.pi * 1.0e9 * number("omega_q_ghz")
    else:
        raise ScenarioError("model needs omega_q_ghz or omega_q_rad_s")
    if "gamma_rad_s" in cfg:
        gamma = number("gamma_rad_s")
    elif "gamma_ratio" in cfg:
        gamma = number("gamma_ratio") * omega_q
    else:
        raise ScenarioError("model needs gamma_ratio or gamma_rad_s")
    v_g = number("v_g_m_s", 3.0e8)
    if "distance_m" in cfg:
        distance = number("distance_m")
    elif "phase_over_pi" in cfg:
        distance = number("phase_over_pi") * np.pi * v_g / omega_q
    else:
        raise ScenarioError("model needs distance_m or phase_over_pi")
    if "omega_s_rad_s" in cfg:
        omega_s = number("omega_s_rad_s")
    else:
        omega_s = number("omega_s_over_omega_q", 1.0) * omega_q
    return ModelParams.create(omega_q, gamma, distance, v_g=v_g,
                              omega_s=omega_s,
                              amplitude=number("amplitude", 1.0))


def _finite(value, section, key):
    """``value`` of ``[section] key`` as a float, if it is a finite number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not np.isfinite(value):
        raise ScenarioError(f"{section}.{key} must be a finite number, "
                            f"got {value!r}")
    return float(value)


def _number(cfg, section, key, default):
    """Finite real scenario value ``[section] key``."""
    return _finite(cfg.get(key, default), section, key)


def _numbers(cfg, section, key, default):
    """Finite real list ``[section] key``; one value is a list of one."""
    values = cfg.get(key, default)
    if not isinstance(values, list):
        values = [values]
    return [_finite(value, section, key) for value in values]


def _count(cfg, section, key, default, minimum=1):
    """Integer scenario value ``[section] key``, at least ``minimum``."""
    value = _number(cfg, section, key, default)
    if not value.is_integer() or value < minimum:
        raise ScenarioError(f"{section}.{key} must be an integer >= "
                            f"{minimum}, got {value!r}")
    return int(value)


def build_scenario(args):
    """Merge preset defaults and config overrides into one scenario dict."""
    if not args.preset and not args.config:
        raise ScenarioError("provide --preset and/or --config")
    scenario = {"command": args.command, "caption": None, "model": {},
                "sweep": {}, "grid": {}, "beating": {}, "peaks": {},
                "blocks": None, "out": None}
    if args.preset:
        if args.preset not in PRESETS:
            raise ScenarioError(
                f"unknown preset '{args.preset}'; expected one of "
                + ", ".join(sorted(PRESETS)))
        preset = PRESETS[args.preset]
        if preset["command"] != args.command:
            raise ScenarioError(
                f"preset {args.preset} belongs to the "
                f"'{preset['command']}' subcommand")
        scenario["caption"] = preset["caption"]
        scenario["model"].update(preset["model"])
        for part in ("sweep", "grid", "beating", "peaks"):
            scenario[part].update(preset.get(part, {}))
        scenario["blocks"] = preset.get("blocks")
    if args.config:
        overrides = read_scenario(args.config)
        for part in ("model", "sweep", "grid", "beating", "peaks"):
            scenario[part].update(overrides.get(part, {}))
        if "output" in overrides and "path" in overrides["output"]:
            scenario["out"] = overrides["output"]["path"]
    if args.out:
        scenario["out"] = args.out
    if scenario["out"] is None:
        name = args.preset if args.preset else args.command
        scenario["out"] = f"{name}.csv"
    scenario["params"] = _build_params(scenario["model"])
    return scenario


# ---------------------------------------------------------------------------
# deterministic CSV/JSON output

def _header_lines(scenario, extra=()):
    p = scenario["params"]
    regime = classify_regime(p)
    lines = [f"wqed {__version__}", f"command: {scenario['command']}"]
    if scenario["caption"]:
        lines.append(f"caption: {scenario['caption']}")
    lines += [
        "omega_q_rad_s = %.17g" % p.omega_q,
        "omega_q_ghz = %.17g" % (p.omega_q / (2.0 * np.pi * 1.0e9)),
        "gamma_rad_s = %.17g" % p.gamma,
        "gamma_ratio = %.17g" % (p.gamma / p.omega_q),
        "distance_m = %.17g" % p.distance,
        "phase_over_pi = %.17g" % (p.qubit_phase / np.pi),
        "v_g_m_s = %.17g" % p.v_g,
        "omega_s_rad_s = %.17g" % p.omega_s,
        "omega_s_over_omega_q = %.17g" % (p.omega_s / p.omega_q),
        "amplitude = %.17g" % p.amplitude,
        f"regime = {regime.value}",
    ]
    lines.extend(extra)
    return lines


def write_csv(path, lines, columns, rows):
    """Write '#'-commented metadata, a column header, and %.17g rows.

    ``rows`` is a sequence of row tuples whose columns keep one type: the
    first row picks the template, ``%s`` for a text cell and ``%.17g`` for
    any number, and every row is written through it.  An empty table is
    its header alone.
    """
    with open(path, "w", newline="") as handle:
        handle.writelines(f"# {line}\n" for line in lines)
        handle.write(",".join(columns) + "\n")
        if rows:
            template = ",".join("%s" if isinstance(cell, str) else "%.17g"
                                for cell in rows[0]) + "\n"
            handle.writelines(template % row for row in rows)


def _json_cell(value):
    """A cell as JSON: text as itself, a finite number as a float, and a
    non-finite number as its CSV text.

    Strict JSON has no NaN or infinity, so those cells carry the text
    the CSV writes for them ("nan", "inf", "-inf").
    """
    if isinstance(value, str):
        return value
    value = float(value)
    return value if math.isfinite(value) else "%.17g" % value


def _json_document(payload):
    """``payload`` as strict JSON text with a one-space indent."""
    return json.dumps(payload, indent=1, allow_nan=False) + "\n"


def write_json(path, lines, columns, rows):
    """Write the table as JSON: {"meta", "columns", "rows"}, one-space indent,
    every cell mapped by ``_json_cell``."""
    Path(path).write_text(_json_document(
        {"meta": lines, "columns": columns,
         "rows": [list(map(_json_cell, row)) for row in rows]}))


def _json_path(out):
    return out[:-4] + ".json" if out.endswith(".csv") else out + ".json"


def _write_outputs(outputs):
    """Write every (path, writer) pair through a temporary file.

    Each ``writer(temp)`` writes into the target directory; the files are
    moved onto their paths only after every write succeeded, so a failed
    run leaves no partial output and clobbers none.
    """
    temps = []
    try:
        for path, writer in outputs:
            if os.path.isdir(path):
                raise IsADirectoryError(f"{path} is a directory")
            temps.append(f"{path}.{os.getpid()}.tmp")
            writer(temps[-1])
        for temp, (path, _) in zip(temps, outputs):
            os.replace(temp, path)
    except OSError as exc:
        raise ScenarioError(f"cannot write output: {exc}") from exc
    finally:
        for temp in temps:
            with contextlib.suppress(OSError):
                os.remove(temp)
    return [path for path, _ in outputs]


def _emit(scenario, json_mirror, extra, columns, rows, notes):
    """Write a figure table, headed by the scenario's lines and ``extra``,
    and its mirror; then print what was written, followed by ``notes``."""
    lines = _header_lines(scenario, extra)
    outputs = [(scenario["out"],
                lambda path: write_csv(path, lines, columns, rows))]
    if json_mirror:
        outputs.append((_json_path(scenario["out"]),
                        lambda path: write_json(path, lines, columns, rows)))
    written = _write_outputs(outputs)
    print(f"wrote {', '.join(written)} ({len(rows)} rows)")
    for note in notes:
        print(note)


# ---------------------------------------------------------------------------
# subcommands: each figure command returns its table as (extra header
# lines, columns, rows, stdout notes), and ``main`` writes it

def cmd_spectrum(scenario):
    """Markov vs exact transmittance/reflectance sweep."""
    p = scenario["params"]
    sweep = scenario["sweep"]
    lo = _number(sweep, "sweep", "omega_min_over_omega_q", 0.98)
    hi = _number(sweep, "sweep", "omega_max_over_omega_q", 1.02)
    points = _count(sweep, "sweep", "points", 2001)
    # a photon's frequency is finite and positive, as drive_sweep asks
    for key, bound in (("omega_min_over_omega_q", lo),
                       ("omega_max_over_omega_q", hi)):
        if not (math.isfinite(bound * p.omega_q) and bound > 0):
            raise ScenarioError(f"sweep.{key} must give a positive finite "
                                f"frequency, got {bound!r}")
    ratio = np.linspace(lo, hi, points)
    omega = ratio * p.omega_q
    t_markov, r_markov = fields.markov_spectra(omega, p)
    t_exact, r_exact = fields.nonmarkov_spectra(omega, p)
    flux = t_markov + r_markov - 1.0
    columns = ["omega_over_Omega", "T_markov", "R_markov",
               "T_nonmarkov", "R_nonmarkov", "flux_sum"]
    rows = list(zip(*(column.tolist() for column in
                      (ratio, t_markov, r_markov, t_exact, r_exact, flux))))
    extra = ["sweep = %.17g .. %.17g, %d points" % (lo, hi, points),
             "max_abs_T_difference = %.17g"
             % float(np.max(np.abs(t_markov - t_exact))),
             "max_abs_R_difference = %.17g"
             % float(np.max(np.abs(r_markov - r_exact)))]
    return extra, columns, rows, []


_FIELD_COLUMNS = ["curve", "x_over_d", "omega_s_over_omega_q",
                  "u_re", "u_im", "v_re", "v_im", "w_re", "w_im",
                  "energy_u", "energy_v", "energy_w"]


def _field_rows(params, x_over_d, ratios, omega, t, branch, label):
    """Field-table rows over every drive carrier and x, carrier-major.

    One engine call covers the whole outer product; ``omega`` holds the
    carriers in rad/s and ``ratios`` their omega_s/omega_q column values.
    Each column is built once over the product and the columns are zipped
    into rows.  The energies are |z|^2 / A^2 of Python complex values:
    numpy's vectorized modulus rounds differently in the last bit.
    """
    x_over_d = np.asarray(x_over_d, dtype=float)
    ratios = np.asarray(ratios, dtype=float)
    grid = fields.space_time_grid(params, x_over_d * params.distance, [t])
    _, *envelopes = fields.drive_sweep(grid, collective_rates(params),
                                       params, omega, branch)
    envelopes = [env[:, 0].ravel() for env in envelopes]
    amp2 = params.amplitude ** 2
    columns = [[label] * (ratios.size * x_over_d.size),
               np.tile(x_over_d, ratios.size).tolist(),
               np.repeat(ratios, x_over_d.size).tolist()]
    for env in envelopes:
        columns += [env.real.tolist(), env.imag.tolist()]
    for env in envelopes:
        columns.append([abs(z) ** 2 / amp2 for z in env.tolist()])
    return list(zip(*columns))


def cmd_field(scenario):
    """Field envelopes and normalized energies over position/frequency.

    A configured ``[grid] x_over_d`` replaces a preset's blocks with one
    row per position at the configured drive.
    """
    p = scenario["params"]
    grid_cfg = scenario["grid"]
    t = _number(grid_cfg, "grid", "t_s", 5.0e-6)
    branch = grid_cfg.get("branch", "auto")
    names = [str(b) for b in fields.FieldBranch]
    if branch not in names:
        raise ScenarioError(f"grid.branch must be one of {', '.join(names)}, "
                            f"got {branch!r}")
    blocks = scenario["blocks"]
    if "x_over_d" in grid_cfg:
        blocks = [{"kind": "fixed",
                   "x_over_d": _numbers(grid_cfg, "grid", "x_over_d", None)}]
    elif blocks is None:
        raise ScenarioError("field command needs grid.x_over_d "
                            "(or a figure preset)")
    rows = []
    for block in blocks:
        kind = block["kind"]
        if kind == "line":
            ratios = np.linspace(block["omega_lo"], block["omega_hi"],
                                 int(block["points"]))
            for xod in block["x_over_d"]:
                rows.extend(_field_rows(p, [xod], ratios, ratios * p.omega_q,
                                        t, branch, "line:x=%gd" % xod))
        elif kind == "scan":
            x_over_d = np.linspace(block["x_lo"], block["x_hi"],
                                   int(block["points"]))
            for ratio in block["omega_s_over_omega_q"]:
                rows.extend(_field_rows(p, x_over_d, [ratio],
                                        [float(ratio) * p.omega_q], t, branch,
                                        "scan:ws=%g" % ratio))
        elif kind == "fixed":
            # the configured drive at a handful of x values (one call each,
            # since they may lie in different regions)
            ratio = float(p.omega_s / p.omega_q)
            label = "fixed:ws=%g" % ratio
            for xod in block["x_over_d"]:
                rows.extend(_field_rows(p, [xod], [ratio], [p.omega_s], t,
                                        branch, label))
        else:   # the x = -inf reflectance limit
            ratios = np.linspace(block["omega_lo"], block["omega_hi"],
                                 int(block["points"]))
            _, refl = fields.markov_spectra(ratios * p.omega_q, p)
            nans = [float("nan")] * ratios.size
            rows.extend(zip(["line:x=-inf"] * ratios.size,
                            [-np.inf] * ratios.size, ratios.tolist(),
                            *[nans] * 7, refl.tolist(), nans))
    extra = ["t_s = %.17g" % t, f"branch = {branch}",
             "energies normalized by amplitude^2"]
    return extra, _FIELD_COLUMNS, rows, []


def cmd_beating(scenario):
    """Steady transmitted energy time series and FFT beat peaks."""
    p = scenario["params"]
    cfg = scenario["beating"]
    x0 = _number(cfg, "beating", "x0_over_d", 2.0) * p.distance
    detunings = _numbers(cfg, "beating", "detunings_over_omega_q",
                         [0.01, 0.02])
    n_periods = _count(cfg, "beating", "n_periods", 40)
    n_samples = _count(cfg, "beating", "n_samples", 4096, minimum=2)
    rows = []
    extra = ["x0_m = %.17g" % x0,
             "n_periods = %d" % n_periods, "n_samples = %d" % n_samples]
    notes = []
    for det in detunings:
        drive = p.with_drive((1.0 + det) * p.omega_q)
        label = "det=%g" % det
        t, energy = fields.beat_note_series(drive, x0, n_periods=n_periods,
                                            n_samples=n_samples)
        _, _, peak, expected = fields.beat_note_fft(energy, drive, n_periods)
        rows.extend(zip([label] * t.size, t.tolist(),
                        (energy / drive.amplitude ** 2).tolist()))
        extra.append("beat_peak_hz[%s] = %.17g (expected %.17g, "
                     "period %.17g s)" % (label, peak, expected,
                                          1.0 / expected))
        notes.append(f"  {label}: FFT peak {peak:.6g} Hz, "
                     f"expected {expected:.6g} Hz")
    return extra, ["curve", "t_s", "energy_u"], rows, notes


def cmd_peaks(scenario):
    """Reflected resonance-peak value vs distance, formula and direct."""
    p = scenario["params"]
    cfg = scenario["peaks"]
    lo = _number(cfg, "peaks", "x_min_over_d", -8.0)
    hi = _number(cfg, "peaks", "x_max_over_d", -0.05)
    points = _count(cfg, "peaks", "points", 1591)
    t = _number(cfg, "peaks", "t_s", 5.0e-6)
    x_over_d = np.linspace(lo, hi, points)
    x = x_over_d * p.distance
    grid = fields.space_time_grid(p, x, [t], region=fields.Region.BEFORE)
    _, _, v, _ = fields.drive_sweep(grid, collective_rates(p), p, [p.omega_s],
                                    branch="steady")
    direct = np.abs(v[0, 0]) ** 2 / p.amplitude ** 2
    peak_formula = fields.reflected_resonance_peak(x, p)
    columns = ["x_over_d", "peak_value", "energy_at_resonance"]
    rows = list(zip(x_over_d.tolist(), peak_formula.tolist(),
                    direct.tolist()))
    extra = ["t_s = %.17g" % t,
             "max_peak_value = %.17g" % float(np.max(peak_formula)),
             "max_abs_formula_vs_direct = %.17g"
             % float(np.max(np.abs(peak_formula - direct)))]
    return extra, columns, rows, []


# ---------------------------------------------------------------------------
# oracle-check

def cmd_oracle_check(args):
    """Run the ``wqed.validation`` table of closed-form-vs-oracle checks."""
    from . import validation

    if args.out is not None and not args.json:
        raise ScenarioError("--out names the --json report; give --json too")
    rng = np.random.default_rng(validation.SEED)
    results = []
    for name, tol, measure in validation.checks(args.full):
        err = float(measure(rng))
        passed = err < tol
        print(f"{'PASS' if passed else 'FAIL'} {name}: "
              f"max_err={err:.3e} (tol {tol:.1e})")
        results.append({"name": name, "max_err": _json_cell(err),
                        "tol": tol, "passed": passed})
    if args.json:
        report = _json_document({"checks": results})
        written = _write_outputs([(args.out or f"{args.command}.json",
                                   lambda path: Path(path).write_text(report))])
        print(f"wrote {written[0]}")
    n_passed = sum(r["passed"] for r in results)
    print(f"{n_passed}/{len(results)} checks passed")
    return 0 if n_passed == len(results) else 1


# ---------------------------------------------------------------------------
# entry point

def build_parser():
    parser = argparse.ArgumentParser(
        prog="wqed",
        description="Single-photon scattering on a pair of distant qubits "
                    "in a one-dimensional waveguide: figure-style CSV "
                    "datasets and oracle validation.")
    parser.add_argument("--version", action="version",
                        version=f"wqed {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--config", help="INI scenario file")
    scenario.add_argument("--preset",
                          help="figure preset name (fig2 .. fig11)")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="output CSV path")
    output.add_argument("--json", action="store_true",
                        help="also write a JSON mirror")
    sub.add_parser("spectrum", parents=[scenario, output],
                   help="transmittance/reflectance sweep")
    sub.add_parser("field", parents=[scenario, output],
                   help="field envelopes over a grid")
    sub.add_parser("beating", parents=[scenario, output],
                   help="beat-note time series and FFT peak")
    sub.add_parser("peaks", parents=[scenario, output],
                   help="reflected resonance-peak value vs distance")
    # the checks take no scenario: refuse --preset and --config outright
    check = sub.add_parser("oracle-check",
                           help="oracle-vs-closed-form validation suite")
    check.add_argument("--out", help="path of the --json report "
                       "(default oracle-check.json)")
    check.add_argument("--json", action="store_true",
                       help="also write a JSON report")
    check.add_argument("--full", action="store_true",
                       help="include the slow continuum and memory checks")
    return parser


_FIGURES = {
    "spectrum": cmd_spectrum,
    "field": cmd_field,
    "beating": cmd_beating,
    "peaks": cmd_peaks,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "oracle-check":
            code = cmd_oracle_check(args)
        else:
            scenario = build_scenario(args)
            _emit(scenario, args.json, *_FIGURES[args.command](scenario))
            code = 0
        sys.stdout.flush()   # a closed pipe raises here, not at exit
        return code
    except (ScenarioError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # too large a count or grid for this machine: bad input, not a
        # failed check, and nothing has been written yet
        print(f"error: out of memory: {exc or 'allocation failed'}",
              file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout went away; point stdout at the null device
        # so that the flush at exit does not raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2


if __name__ == "__main__":
    sys.exit(main())
