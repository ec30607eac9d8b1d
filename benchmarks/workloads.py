"""The three benchmark workloads: inputs, one pass, and the pass output.

Each workload is a single closed-loop client: it calls into ``wqed`` and
waits for every call to return before making the next one.  A pass is one
sweep over the workload's inputs and returns what the pass produced,
which ``checks.py`` compares against the stored references.

* ``figure_set`` runs ``wqed.cli.main`` in-process once per distinct
  figure computation and keeps the CSV bytes.
* ``field_maps`` evaluates transient and late-time field slices on
  seeded [time, position] grids through the library API.
* ``validate`` runs ``wqed oracle-check`` (the quick suite) in-process.
"""

from __future__ import annotations

import contextlib
import io
import math
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# (subcommand, preset) for every distinct figure computation; fig4 and
# fig5 repeat the numbers of fig2 and fig3 and are left out.
FIGURE_PRESETS = (
    ("spectrum", "fig2"), ("spectrum", "fig3"), ("beating", "fig7"),
    ("peaks", "fig8"), ("field", "fig6"), ("field", "fig9"),
    ("field", "fig10"), ("field", "fig11"),
)

OMEGA_Q = 2.0 * math.pi * 5.0e9
V_G = 3.0e8

# (tag, Gamma/Omega, k_Omega d / pi): generic quarter wave, even 2 pi and
# odd pi at weak coupling, strong coupling on the 5 pi line.
REGIMES = (
    ("generic", 0.01, 0.5),
    ("even", 0.01, 2.0),
    ("odd", 0.01, 1.0),
    ("strong", 0.1, 5.0),
)

# Position ranges in units of d, kept 0.1 d clear of the 0.05 d exclusion
# zones around the qubits.
REGIONS = {
    "behind": (1.15, 12.0),
    "before": (-12.0, -0.15),
    "between": (0.15, 0.85),
}
# Region of the late-time (steady) block of each regime, in REGIMES order.
LATE_REGION = ("behind", "before", "between", "behind")
FIELD_FN = {"behind": "forward_field", "before": "backward_field",
            "between": "interqubit_field"}
# Envelopes each field function returns.
FIELD_OUTPUTS = {"forward_field": ("u",), "backward_field": ("v",),
                 "interqubit_field": ("u", "v", "w")}

FIELD_SHAPE = (64, 768)          # [time, position] points per slice
TRANSIENT_LIFETIMES = 30.0       # transient times reach ~30 / Gamma
LATE_T = (50.0e-6, 60.0e-6)      # late-time block, seconds
DETUNING = 0.02                  # drive detuning drawn from +-DETUNING * Omega
DEFAULT_SEED = 1


@dataclass(frozen=True)
class FieldBlock:
    """One [time, position] slice of the ``field_maps`` workload."""

    name: str
    regime: str
    region: str
    branch: str
    params: object
    x: np.ndarray
    t: np.ndarray

    @property
    def points(self) -> int:
        return self.x.size * self.t.size


def _jittered(rng, lo, hi, n):
    """n sorted values, one uniform draw in each of n equal cells of [lo, hi).

    Stratifying keeps the spread of the values, and so the work per pass,
    nearly the same from seed to seed.
    """
    return lo + (np.arange(n) + rng.uniform(0.0, 1.0, n)) * ((hi - lo) / n)


def field_inputs(seed: int, shape=FIELD_SHAPE):
    """Seeded slices: 3 transient regions per regime plus 1 late block.

    Positions are spread over the region; transient times run from just
    past the light front of the farthest point out to ~30 lifetimes,
    log-spaced in their distance from the front so that the E1 arguments
    cover every |z| band; late times sit past 50 us, where ``branch="auto"``
    picks the steady forms.
    """
    from wqed.model import ModelParams

    rng = np.random.default_rng(seed)
    n_t, n_x = shape
    slices = []
    for i, (tag, ratio, phase) in enumerate(REGIMES):
        detune = rng.uniform(-DETUNING, DETUNING)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            params = ModelParams.from_phase(
                OMEGA_Q, ratio * OMEGA_Q, phase, v_g=V_G,
                omega_s=(1.0 + detune) * OMEGA_Q)
        d = params.distance
        blocks = [(region, "transient") for region in REGIONS]
        blocks.append((LATE_REGION[i], "auto"))
        for region, branch in blocks:
            x = _jittered(rng, *REGIONS[region], n_x) * d
            if branch == "transient":
                front = (np.max(np.abs(x)) + 0.1 * d) / V_G
                log_lag = _jittered(
                    rng, np.log(0.1 * d / V_G),
                    np.log(TRANSIENT_LIFETIMES / params.gamma), n_t)
                t = front + np.exp(log_lag)
            else:
                t = _jittered(rng, *LATE_T, n_t)
            name = f"{tag}.{region}.{branch}"
            slices.append(FieldBlock(name, tag, region, branch, params, x, t))
    return slices


def field_pass(slices):
    """Evaluate every slice.

    Returns {slice name: {envelope: array}} with the envelopes the slice's
    field function fills, or None for a slice whose evaluation raised.
    """
    from wqed import fields, model

    out = {}
    for sl in slices:
        fn_name = FIELD_FN[sl.region]
        try:
            rates = model.collective_rates(sl.params)
            grid = fields.space_time_grid(sl.params, sl.x, sl.t)
            result = getattr(fields, fn_name)(grid, rates, sl.params,
                                              branch=sl.branch)
        except Exception:
            traceback.print_exc()
            out[sl.name] = None
            continue
        out[sl.name] = {key: getattr(result, key)
                        for key in FIELD_OUTPUTS[fn_name]}
    return out


def figure_pass(out_dir: Path, tracer=None, presets=FIGURE_PRESETS,
                between=None):
    """Run the figure presets; returns ({preset: exit code}, {preset: bytes}).

    ``between``, if given, is called after each preset.
    """
    from wqed import cli

    codes, csv = {}, {}
    for command, preset in presets:
        path = out_dir / f"{preset}.csv"
        path.unlink(missing_ok=True)
        span = tracer.span(f"cli.{preset}") if tracer else contextlib.nullcontext()
        try:
            with span, contextlib.redirect_stdout(io.StringIO()):
                codes[preset] = cli.main([command, "--preset", preset,
                                          "--out", str(path)])
        except Exception:
            traceback.print_exc()
            codes[preset] = None
        csv[preset] = path.read_bytes() if path.exists() else b""
        if between:
            between()
    return codes, csv


def validate_pass(tracer=None):
    """Run the quick oracle suite; returns (exit code, captured stdout)."""
    from wqed import cli

    buf = io.StringIO()
    span = tracer.span("cli.oracle_check") if tracer else contextlib.nullcontext()
    try:
        with span, contextlib.redirect_stdout(buf):
            code = cli.main(["oracle-check"])
    except Exception:
        traceback.print_exc()
        code = None
    return code, buf.getvalue()
