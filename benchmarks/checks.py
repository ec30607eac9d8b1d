"""Correctness gates: stored references, byte identity, oracle spot checks.

References were generated with ``make_reference.py`` from the package as
it stood when the benchmark was defined.  Numeric values must agree with
them within ``REL_TOL * max(|ref|, 1)``; batching changes planned for the
engine move bits at the 1e-16 level, far inside that.  The measured
worst difference is reported as ``max_rel_diff`` in the run's meta line.
"""

from __future__ import annotations

import json
import lzma
import math
import re
from pathlib import Path

import numpy as np

REL_TOL = 1e-12
ORACLE_TOL = 1e-3
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FIELD_SAMPLES = 64       # stored envelope values per slice and envelope
SPOT_CHECKS = 4          # seeded oracle points per field_maps run


# a decimal number as %.17g writes it; everything between numbers is text
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def compare_csv(got: bytes, ref: bytes):
    """(problem or None, max scaled difference) of one figure CSV.

    Line by line, the text between numbers (metadata keys, captions, the
    header, curve labels, nan and inf cells) must be identical, and each
    number, in a metadata line or a data cell, must agree with the
    reference within ``REL_TOL * max(|ref|, 1)``.
    """
    got_lines = got.decode().splitlines()
    ref_lines = ref.decode().splitlines()
    if len(got_lines) != len(ref_lines):
        return f"{len(got_lines)} lines, reference has {len(ref_lines)}", 0.0
    worst = 0.0
    for number, (g, r) in enumerate(zip(got_lines, ref_lines), 1):
        if g == r:
            continue
        g_parts, r_parts = NUMBER.split(g), NUMBER.split(r)
        if len(g_parts) != len(r_parts) or g_parts[::2] != r_parts[::2]:
            return f"line {number} differs: {g!r}", worst
        for gn, rn in zip(g_parts[1::2], r_parts[1::2]):
            diff = abs(float(gn) - float(rn)) / max(abs(float(rn)), 1.0)
            worst = max(worst, diff)
            if diff > REL_TOL:
                return (f"line {number}: {gn} differs from {rn} "
                        f"by {diff:.3g}"), worst
    return None, worst


def reference_csv(preset: str) -> bytes:
    return lzma.decompress((REFERENCE_DIR / f"{preset}.csv.xz").read_bytes())


def summarize_fields(outputs):
    """Reduce field envelopes to what the reference stores.

    Per slice and envelope: the sum of |value|^2, and the values at
    FIELD_SAMPLES fixed flat indices spread over the slice.
    """
    summary = {}
    for name, arrays in outputs.items():
        entry = {}
        for key, arr in arrays.items():
            flat = np.asarray(arr).ravel()
            idx = np.linspace(0, flat.size - 1, FIELD_SAMPLES).astype(int)
            entry[key] = {
                "energy_sum": float(np.sum(np.abs(flat) ** 2)),
                "samples": [[float(v.real), float(v.imag)] for v in flat[idx]],
            }
        summary[name] = entry
    return summary


def field_reference_path(seed: int) -> Path:
    return REFERENCE_DIR / f"field_maps_seed{seed}.json"


def compare_fields(summary, reference):
    """{slice name: problem or None}, and the max scaled difference."""
    problems, worst = {}, 0.0
    for name, ref_entry in reference.items():
        got_entry = summary.get(name)
        if got_entry is None or set(got_entry) != set(ref_entry):
            problems[name] = "missing slice or envelope"
            continue
        problem = None
        for key, ref in ref_entry.items():
            got = got_entry[key]
            pairs = [(got["energy_sum"], ref["energy_sum"])]
            pairs += [(g, r) for gs, rs in zip(got["samples"], ref["samples"])
                      for g, r in zip(gs, rs)]
            for g, r in pairs:
                diff = abs(g - r) / max(abs(r), 1.0)
                worst = max(worst, diff) if math.isfinite(diff) else math.inf
                if not diff <= REL_TOL:
                    problem = f"{key} differs from reference by {diff:.3g}"
        problems[name] = problem
    return problems, worst


def load_field_reference(seed: int):
    path = field_reference_path(seed)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def oracle_spot_checks(slices, outputs, seed):
    """Seeded points of transient slices against the quadrature oracle.

    Returns a list of (slice name, worst scaled error) with the error
    |closed - quadrature| / max(|quadrature|, 1) of the scattered field.
    """
    from wqed import fields, model, oracle

    rng = np.random.default_rng([seed, 17])
    transient = [sl for sl in slices if sl.branch == "transient"]
    picks = rng.choice(len(transient), size=SPOT_CHECKS, replace=False)
    results = []
    for k in sorted(picks):
        sl = transient[k]
        i, j = int(rng.integers(sl.t.size)), int(rng.integers(sl.x.size))
        x, t = float(sl.x[j]), float(sl.t[i])
        rates = model.collective_rates(sl.params)
        arrays = outputs[sl.name]
        pairs = []
        if "u" in arrays:
            incident = fields.incident_plane_wave(x, t, sl.params)
            pairs.append((arrays["u"][i, j] - incident,
                          oracle.quad_field_forward(x, t, rates, sl.params)))
        if "v" in arrays:
            pairs.append((arrays["v"][i, j],
                          oracle.quad_field_backward(x, t, rates, sl.params)))
        worst = max(abs(c - q) / max(abs(q), 1.0) for c, q in pairs)
        results.append((sl.name, worst))
    return results
