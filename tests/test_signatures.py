"""Which functions take the collective rates, and what they do with them.

Every quantity is a function of one ``ModelParams``.  The regime is
``classify_regime(params)`` and the rates are ``collective_rates(params)``,
so no function takes a regime, and only the field evaluators take a
``rates`` next to their ``params``; they refuse a pair that does not
match, where a mismatched pair used to be evaluated without a word (the
weights came from ``params``, the decays from ``rates``).
"""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wqed import fields, oracle
from wqed.model import ModelParams, collective_rates

ROOT = Path(__file__).resolve().parents[1]
OMEGA_Q = 2.0 * np.pi * 5.0e9

# the field evaluators and their private helpers, by module
FIELD_LAYER = {
    ("fields", "_steady_gate"), ("fields", "drive_sweep"),
    ("fields", "_one_carrier"), ("fields", "forward_field"),
    ("fields", "backward_field"), ("fields", "interqubit_field"),
    ("oracle", "_quad_field"), ("oracle", "quad_field_forward"),
    ("oracle", "quad_field_backward"),
}


def _parameters():
    """(module, function, parameter name) of every def in ``src/wqed``."""
    for path in sorted((ROOT / "src" / "wqed").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    yield path.stem, node.name, arg.arg


def test_no_function_takes_a_regime():
    assert [(m, f) for m, f, a in _parameters() if a == "regime"] == []


def test_only_the_field_layer_takes_rates():
    assert {(m, f) for m, f, a in _parameters() if a == "rates"} \
        == FIELD_LAYER


# p1 at Gamma/Omega = 0.01, k_Omega d = pi/2 and omega_s = 1.003 Omega;
# rates of one with the other's params were 6.7% off on beta_1 at
# t = 5/Gamma (Gamma doubled) and 2.3e-4 off on the steady forward field
# at x = 3 d, t = 5 us (k_Omega d = 2 pi)
P1 = ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, 0.5,
                            omega_s=1.003 * OMEGA_Q)
MISMATCHED = {
    "gamma_doubled": (P1, replace(P1, gamma=2.0 * P1.gamma)),
    "even_pi": (P1, ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, 2.0,
                                           omega_s=1.003 * OMEGA_Q)),
}
T = 5.0 / P1.gamma
ENTRY_POINTS = ("drive_sweep", "forward_field", "backward_field",
                "interqubit_field", "quad_field_forward",
                "quad_field_backward")


def _entry_point(name, p):
    """The field-layer function ``name`` at fixed points of p, as f(rates)."""
    d = p.distance
    if name.startswith("quad_field"):
        x = 3.0 * d if name.endswith("forward") else -2.0 * d
        return lambda r: getattr(oracle, name)(x, T, r, p)
    x = {"drive_sweep": 3.0, "forward_field": 3.0, "backward_field": -2.0,
         "interqubit_field": 0.4}[name] * d
    grid = fields.space_time_grid(p, [x], [T])
    if name == "drive_sweep":
        return lambda r: fields.drive_sweep(grid, r, p, [p.omega_s],
                                            "transient")
    return lambda r: getattr(fields, name)(grid, r, p, "transient")


def _bits(result):
    if isinstance(result, fields.FieldSlice):
        result = (result.u, result.v, result.w)
    parts = result if isinstance(result, tuple) else (result,)
    return [np.asarray(part).tobytes() for part in parts]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("case", sorted(MISMATCHED))
def test_field_layer_refuses_rates_of_other_params(case, entry):
    first, second = MISMATCHED[case]
    for owner, p in ((first, second), (second, first)):
        with pytest.raises(ValueError, match="rates do not match params"):
            _entry_point(entry, p)(collective_rates(owner))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_field_layer_accepts_rates_built_for_another_drive(entry):
    # the rates are drive-free, so those of p1 at 1.01 Omega are p1's
    call = _entry_point(entry, P1)
    other = collective_rates(P1.with_drive(1.01 * OMEGA_Q))
    assert _bits(call(other)) == _bits(call(collective_rates(P1)))
