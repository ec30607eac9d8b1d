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
timestamps).  Each figure subcommand returns its table as whole column
arrays, and ``main`` writes every table in one place, as a numpy record
table whose numbers ``write_csv`` formats column by column in numpy: the
bytes are those of '%.17g' % value, which formats the few cells the numpy
path leaves out.  Scenario files are read as UTF-8, and every file the CLI
writes is written as UTF-8 (JSON: ASCII) bytes, whatever the locale.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import itertools
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
    """Read a UTF-8 INI scenario file into {section: {key: value}}.

    Raises ScenarioError with the configparser line number on syntax
    errors, names the offending section/key on unknown entries, and names
    both keys when [model] spells one quantity two ways.  A value is its
    literal text, '%' included, and [DEFAULT] is an unknown section like
    any other: no header matches the empty default-section name.
    """
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as handle:
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
            # a path is text, even when it looks like a number or a list,
            # and names the file of its UTF-8 bytes, as a byte argument would
            scenario[section][key] = os.fsdecode(raw.encode()) \
                if section == "output" else _parse_value(raw)
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


def _table(columns, arrays):
    """The record table of one field per column, named by ``columns``."""
    arrays = [np.asarray(array) for array in arrays]
    table = np.empty(len(arrays[0]) if arrays else 0,
                     dtype=[(name, array.dtype)
                            for name, array in zip(columns, arrays)])
    for name, array in zip(columns, arrays):
        table[name] = array
    return table


# A number's '%.17g' text is laid out in _CELL byte slots, the unused ones
# 0: a sign, the "0.000" of a fixed-point number below 1, 17 digits with
# room for the point after any of them, and "e+dd".  The writer drops the 0
# bytes.  A magnitude in [_FAST_MIN, _FAST_MAX) is formatted in numpy; zero,
# nan and inf are constants; any other value, and one whose 17-digit
# rounding lies within _TIE of a tie, is formatted by '%.17g' itself.
_CELL = 28
_FAST_MIN, _FAST_MAX = 1e-29, 1e29
_TIE = 1e-6
_SPLIT = 134217729.0                    # 2**27 + 1, Veltkamp's split factor
_POW10_MIN, _POW10_MAX = -13, 46        # 10**(16 - e) for e in [-30, 29]
_PREFIX = b"0.000"
_CONSTANTS = [0.0, -0.0, np.inf, -np.inf, np.nan]  # 2 * isinf + signbit; nan


def _split(a):
    """Veltkamp's split of float64 ``a`` into two 26-bit halves."""
    c = a * _SPLIT
    high = c - (c - a)
    return high, a - high


def _text_cells(texts, width=None):
    """Byte strings as rows of a uint8 matrix, padded with 0."""
    cells = np.array(texts, dtype=bytes if width is None else f"S{width}")
    return cells.view(np.uint8).reshape(len(texts), cells.itemsize)


def _powers_of_ten():
    """10**k for k in [_POW10_MIN, _POW10_MAX] as the rows hi, lo and hi's
    two halves: hi is 10**k rounded to float64, lo the rest rounded.

    Built from Python integers: int / int and int -> float round
    correctly, so hi + lo is 10**k to within 2**-106 of it.
    """
    hi, lo = [], []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        if k >= 0:
            hi.append(float(10 ** k))
            lo.append(float(10 ** k - int(hi[-1])))
        else:
            den = 10 ** -k
            hi.append(1 / den)
            num, dyadic = hi[-1].as_integer_ratio()
            lo.append((dyadic - num * den) / (dyadic * den))
    return np.array([hi, lo, *_split(np.array(hi))])


_POW10 = _powers_of_ten()
_POW10.setflags(write=False)
_CONSTANT_CELLS = _text_cells(["%.17g" % value for value in _CONSTANTS],
                              _CELL)
_CONSTANT_CELLS.setflags(write=False)


def _scaled(mag, e):
    """mag * 10**(16 - e) as p + r, p = fl(mag * hi) and r the rest.

    Dekker's product gives mag * hi exactly as p plus a float64; with
    mag * lo added, p + r is off by less than 1e-13 at 1e16 <= p + r.
    """
    hi, lo, hi_high, hi_low = _POW10.take(16 - _POW10_MIN - e, axis=1)
    high, low = _split(mag)
    p = mag * hi
    err = high * hi_high
    err -= p
    err += high * hi_low
    err += low * hi_high
    err += low * hi_low
    err += mag * lo
    return p, err


def _significands(mag):
    """17-digit decimal significands of positive ``mag`` in the window.

    Returns (sig, e, tie): mag rounded half-even to 17 digits is
    sig * 10**(e - 16) with 10**16 <= sig < 10**17, and ``tie`` marks the
    cells whose fraction lies within _TIE of one half.
    """
    e = np.floor(np.log10(mag)).astype(np.int64)
    p, r = _scaled(mag, e)
    # next to a power of ten log10 may miss the decade by one
    shift = ((p > 1e17) | ((p == 1e17) & (r >= 0))).view(np.int8) \
        - ((p < 1e16) | ((p == 1e16) & (r < 0))).view(np.int8)
    fix = shift != 0
    e[fix] += shift[fix]
    p[fix], r[fix] = _scaled(mag[fix], e[fix])
    near = np.rint(r)
    sig = p.astype(np.int64) + near.astype(np.int64)
    tie = np.abs(np.abs(r - near) - 0.5) < _TIE
    carry = sig == 10 ** 17             # rounded up into the next decade
    sig[carry] = 10 ** 16
    e[carry] += 1
    return sig, e, tie


def _digits(sig):
    """The 17 decimal digits of each ``sig``, most significant first."""
    digits = np.empty((17,) + sig.shape, np.uint8)
    high = sig // 10 ** 8
    low = (sig - high * 10 ** 8).astype(np.int32)
    for part, last in ((low, 16), (high.astype(np.int32), 8)):
        for j in range(last, last - 8, -1):
            tens = part // 10
            digits[j] = part - 10 * tens
            part = tens
    digits[0] = part
    return digits


_SLOT = np.arange(18, dtype=np.uint8)[:, None, None]     # a slot's index
_SLOT.setflags(write=False)


def _number_cells(x, out):
    """Write '%.17g' % v of each float64 v = x[i, j] into the first _CELL
    bytes of out[i, j], the unused ones 0."""
    u8 = np.uint8
    mag = np.abs(x)
    fast = (mag >= _FAST_MIN) & (mag < _FAST_MAX)
    constant = (mag == 0) | ~np.isfinite(mag)
    mag[~fast] = 1.0
    sig, e, tie = _significands(mag)
    e = e.astype(np.int8)
    fixed = (e >= -4) & (e < 17)            # '%g' writes no exponent
    above = (fixed & (e >= 0)).view(u8)
    below = (fixed & (e < 0)).view(u8)
    # digit j is written through the last nonzero one and through the
    # integer part; the point follows digit ``point`` (0 with an exponent,
    # 17 for none below 1), and it is written if a digit follows it
    digits = np.zeros((19,) + x.shape, u8)  # a row of 0 on either side
    digits[1:18] = _digits(sig)
    kept = np.maximum(np.max((digits[1:18] != 0) * (_SLOT[:17] + 1), axis=0),
                      above * (e + 1).view(u8))
    digits[1:18] += 48
    digits[1:18] *= _SLOT[:17] < kept
    point = above * e.view(u8) + below * 17
    point_char = (kept > point + 1).view(u8) * 46
    mantissa = (_SLOT <= point) * digits[1:]
    mantissa += (_SLOT == point + 1) * point_char
    mantissa += (_SLOT > point + 1) * digits[:-1]
    out[..., 0] = np.signbit(x).view(u8) * 45
    lead = below * (1 - e).view(u8)     # "0." and the zeros after it
    for j, char in enumerate(_PREFIX):
        out[..., 1 + j] = (lead > j).view(u8) * char
    for j in range(18):
        out[..., 6 + j] = mantissa[j]
    exponent = (~fixed).view(u8)
    tens = np.abs(e) // 10
    out[..., 24] = exponent * 101
    out[..., 25] = exponent * (43 + 2 * (e < 0).view(u8))
    out[..., 26] = exponent * (tens + 48)
    out[..., 27] = exponent * (np.abs(e) - 10 * tens + 48)
    value = x[constant]
    out[constant, :_CELL] = _CONSTANT_CELLS[np.where(
        np.isnan(value), 4, 2 * np.isinf(value) + np.signbit(value))]
    slow = ~(fast | constant) | tie
    out[slow, :_CELL] = _text_cells(
        ["%.17g" % v for v in x[slow].tolist()], _CELL)


def _label_cells(column):
    """Text cells as rows of UTF-8 bytes, encoded once per label run."""
    starts = np.concatenate(([True], column[1:] != column[:-1]))
    labels = [label.encode() for label in column[starts].tolist()]
    if any(b"\0" in label for label in labels):
        raise ValueError("a CSV text cell holds a NUL character")
    return _text_cells(labels)[np.cumsum(starts) - 1]


_CHUNK_CELLS = 1 << 13


def _csv_lines(table):
    """The CSV lines of a record table, as one uint8 array of bytes.

    Each cell takes a fixed slot of a row matrix, the unused bytes 0, and
    one compaction of the matrix drops them.
    """
    names = table.dtype.names
    text = [table.dtype[name].kind == "U" for name in names]
    labels = {i: _label_cells(table[name])
              for i, name in enumerate(names) if text[i]}
    width = max([_CELL] + [cells.shape[1] for cells in labels.values()])
    rows = np.zeros((len(table), len(names), width + 1), np.uint8)
    for i, cells in labels.items():
        rows[:, i, :cells.shape[1]] = cells
    start = 0
    for is_text, run in itertools.groupby(text):
        stop = start + len(list(run))
        if not is_text:     # a run of number columns at a time
            _number_cells(np.stack([table[name] for name in names[start:stop]],
                                   axis=1, dtype=np.float64),
                          rows[:, start:stop])
        start = stop
    rows[:, :, width] = ord(",")
    rows[:, -1, width] = ord("\n")
    rows = rows.reshape(-1)
    return rows[rows != 0]


def write_csv(path, lines, columns, table):
    """Write '#'-commented metadata, a column header, and %.17g rows.

    ``table`` is a record table of one field per column; ``len(table)`` is
    the row count.  The file is UTF-8 bytes: a text field is written as it
    is, any other as the bytes of '%.17g' % value.  The numbers are
    formatted column by column in numpy, _CHUNK_CELLS cells at a time, by
    ``_number_cells``; '%.17g' itself formats the cells it does not settle
    (a magnitude outside [_FAST_MIN, _FAST_MAX), or a rounding within _TIE
    of a tie).  An empty table is its header alone.
    """
    step = max(1, _CHUNK_CELLS // max(1, len(table.dtype)))
    with open(path, "wb") as handle:
        handle.write("".join([*(f"# {line}\n" for line in lines),
                              ",".join(columns), "\n"]).encode())
        for start in range(0, len(table), step):
            handle.write(_csv_lines(table[start:start + step]))


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
    """``payload`` as strict JSON with a one-space indent, in ASCII bytes."""
    return (json.dumps(payload, indent=1, allow_nan=False) + "\n").encode()


def write_json(path, lines, columns, table):
    """Write the record table as JSON: {"meta", "columns", "rows"}, one-space
    indent, every cell mapped by ``_json_cell``."""
    Path(path).write_bytes(_json_document(
        {"meta": lines, "columns": columns,
         "rows": [list(map(_json_cell, row)) for row in table.tolist()]}))


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


def _emit(scenario, json_mirror, extra, columns, arrays, notes):
    """Write a figure table of the column ``arrays``, headed by the
    scenario's lines and ``extra``, and its mirror; then print what was
    written, followed by ``notes``."""
    lines = _header_lines(scenario, extra)
    table = _table(columns, arrays)
    outputs = [(scenario["out"],
                lambda path: write_csv(path, lines, columns, table))]
    if json_mirror:
        outputs.append((_json_path(scenario["out"]),
                        lambda path: write_json(path, lines, columns, table)))
    written = _write_outputs(outputs)
    print(f"wrote {', '.join(written)} ({len(table)} rows)")
    for note in notes:
        print(note)


# ---------------------------------------------------------------------------
# subcommands: each figure command returns its table as (extra header
# lines, column names, column arrays, stdout notes), and ``main`` writes it

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
    arrays = [ratio, t_markov, r_markov, t_exact, r_exact, flux]
    extra = ["sweep = %.17g .. %.17g, %d points" % (lo, hi, points),
             "max_abs_T_difference = %.17g"
             % float(np.max(np.abs(t_markov - t_exact))),
             "max_abs_R_difference = %.17g"
             % float(np.max(np.abs(r_markov - r_exact)))]
    return extra, columns, arrays, []


def _concatenated(parts):
    """Column arrays of the blocks ``parts`` (lists of column arrays),
    stacked block after block."""
    return [np.concatenate(column) for column in zip(*parts)]


_FIELD_COLUMNS = ["curve", "x_over_d", "omega_s_over_omega_q",
                  "u_re", "u_im", "v_re", "v_im", "w_re", "w_im",
                  "energy_u", "energy_v", "energy_w"]


def _field_columns(params, x_over_d, ratios, omega, t, branch, label):
    """Field-table columns over every drive carrier and x, carrier-major.

    One engine call covers the whole outer product; ``omega`` holds the
    carriers in rad/s and ``ratios`` their omega_s/omega_q column values.
    The energies are |z|**2 / A**2 as Python computes them for a complex
    z: ``np.hypot`` is the modulus of Python's ``abs`` and
    ``np.float_power`` the libm ``pow`` of its ``**``, where ``np.abs`` and
    ``np.square`` round differently in the last bit.
    """
    x_over_d = np.asarray(x_over_d, dtype=float)
    ratios = np.asarray(ratios, dtype=float)
    grid = fields.space_time_grid(params, x_over_d * params.distance, [t])
    _, *envelopes = fields.drive_sweep(grid, collective_rates(params),
                                       params, omega, branch)
    envelopes = [env[:, 0].ravel() for env in envelopes]
    amp2 = params.amplitude ** 2
    columns = [np.full(ratios.size * x_over_d.size, label),
               np.tile(x_over_d, ratios.size),
               np.repeat(ratios, x_over_d.size)]
    for env in envelopes:
        columns += [env.real, env.imag]
    for env in envelopes:
        columns.append(np.float_power(np.hypot(env.real, env.imag), 2.0)
                       / amp2)
    return columns


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
    parts = []
    for block in blocks:
        kind = block["kind"]
        if kind == "line":
            ratios = np.linspace(block["omega_lo"], block["omega_hi"],
                                 int(block["points"]))
            for xod in block["x_over_d"]:
                parts.append(_field_columns(p, [xod], ratios,
                                            ratios * p.omega_q, t, branch,
                                            "line:x=%gd" % xod))
        elif kind == "scan":
            x_over_d = np.linspace(block["x_lo"], block["x_hi"],
                                   int(block["points"]))
            for ratio in block["omega_s_over_omega_q"]:
                parts.append(_field_columns(p, x_over_d, [ratio],
                                            [float(ratio) * p.omega_q], t,
                                            branch, "scan:ws=%g" % ratio))
        elif kind == "fixed":
            # the configured drive at a handful of x values (one call each,
            # since they may lie in different regions)
            ratio = float(p.omega_s / p.omega_q)
            label = "fixed:ws=%g" % ratio
            for xod in block["x_over_d"]:
                parts.append(_field_columns(p, [xod], [ratio], [p.omega_s],
                                            t, branch, label))
        else:   # the x = -inf reflectance limit
            ratios = np.linspace(block["omega_lo"], block["omega_hi"],
                                 int(block["points"]))
            _, refl = fields.markov_spectra(ratios * p.omega_q, p)
            nans = np.full(ratios.size, np.nan)
            parts.append([np.full(ratios.size, "line:x=-inf"),
                          np.full(ratios.size, -np.inf), ratios,
                          *[nans] * 7, refl, nans])
    extra = ["t_s = %.17g" % t, f"branch = {branch}",
             "energies normalized by amplitude^2"]
    return extra, _FIELD_COLUMNS, _concatenated(parts), []


def cmd_beating(scenario):
    """Steady transmitted energy time series and FFT beat peaks."""
    p = scenario["params"]
    cfg = scenario["beating"]
    x0 = _number(cfg, "beating", "x0_over_d", 2.0) * p.distance
    detunings = _numbers(cfg, "beating", "detunings_over_omega_q",
                         [0.01, 0.02])
    n_periods = _count(cfg, "beating", "n_periods", 40)
    n_samples = _count(cfg, "beating", "n_samples", 4096, minimum=2)
    parts = []
    extra = ["x0_m = %.17g" % x0,
             "n_periods = %d" % n_periods, "n_samples = %d" % n_samples]
    notes = []
    for det in detunings:
        drive = p.with_drive((1.0 + det) * p.omega_q)
        label = "det=%g" % det
        t, energy, peak = fields.beat_note_series(
            drive, x0, n_periods=n_periods, n_samples=n_samples)
        expected = abs(drive.omega_s - drive.omega_q) / (2.0 * np.pi)
        parts.append([np.full(t.size, label), t,
                      energy / drive.amplitude ** 2])
        extra.append("beat_peak_hz[%s] = %.17g (expected %.17g, "
                     "period %.17g s)" % (label, peak, expected,
                                          1.0 / expected))
        notes.append(f"  {label}: FFT peak {peak:.6g} Hz, "
                     f"expected {expected:.6g} Hz")
    return extra, ["curve", "t_s", "energy_u"], _concatenated(parts), notes


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
    arrays = [x_over_d, peak_formula, direct]
    extra = ["t_s = %.17g" % t,
             "max_peak_value = %.17g" % float(np.max(peak_formula)),
             "max_abs_formula_vs_direct = %.17g"
             % float(np.max(np.abs(peak_formula - direct)))]
    return extra, columns, arrays, []


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
                                   lambda path: Path(path).write_bytes(report))])
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
