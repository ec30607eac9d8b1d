"""The check table behind ``wqed oracle-check`` and the layering it keeps."""

import ast
import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wqed import amplitudes, cli, fields, model, oracle, validation

SRC = Path(__file__).resolve().parents[1] / "src"


def test_amplitude_measures_catch_wrong_amplitudes(monkeypatch, weak_generic):
    # amplitudes 2% too large and a zeroed backward spectral amplitude are
    # off by less than the tolerances in absolute terms (6.4e-7 and
    # 6.2e-10 here), so the measures score them relative to the oracle values
    qubit = amplitudes.qubit_amplitudes
    spectral = amplitudes.spectral_amplitudes

    def scaled_qubit(*args):
        state = qubit(*args)
        return dataclasses.replace(state, beta_1=1.02 * state.beta_1,
                                   beta_2=1.02 * state.beta_2)

    def zeroed_backward(*args):
        forward, backward = spectral(*args)
        return forward, np.zeros_like(backward)

    monkeypatch.setattr(amplitudes, "qubit_amplitudes", scaled_qubit)
    monkeypatch.setattr(amplitudes, "spectral_amplitudes", zeroed_backward)
    tols = {name: tol for name, tol, _ in validation.checks(full=True)}
    p = weak_generic.with_drive(1.005 * weak_generic.omega_q)
    assert validation.amplitudes_vs_ode([p]) \
        > tols["qubit amplitudes vs Markov ODE"]
    assert validation.spectral_vs_quadrature(np.random.default_rng(3), 1,
                                             [p]) \
        > tols["spectral amplitudes vs quadrature"]


@pytest.mark.parametrize("full", [False, True], ids=["quick", "full"])
def test_kernel_row_catches_a_kernel_off_by_1e_4(full, monkeypatch):
    # a closed kernel 1e-4 too large passed the row at its former 1e-3
    # tolerance; the rows run in table order on the suite's one stream, as
    # in ``wqed oracle-check``, up to the kernel row
    closed = fields.closed_kernel
    monkeypatch.setattr(fields, "closed_kernel",
                        lambda *args: closed(*args) * (1.0 + 1e-4))
    rng = np.random.default_rng(validation.SEED)
    for name, tol, measure in validation.checks(full):
        err = measure(rng)
        if name.startswith("damped kernels vs quadrature"):
            break
    assert err > tol


@pytest.mark.parametrize("fault", ["amplitudes", "c_plus"])
def test_spectral_row_fails_a_1e_10_fault(fault, monkeypatch):
    # spectral amplitudes or their c_plus weight 1e-10 too large passed the
    # spectral row at its former 1e-9 bound and two fixed frequencies; they
    # read 1.0e-10 against 1e-12 now.  The rows run in table order on the
    # suite's one stream, as in ``wqed oracle-check --full``, up to it
    spectral, weights = amplitudes.spectral_amplitudes, model.coupling_weights
    if fault == "amplitudes":
        monkeypatch.setattr(amplitudes, "spectral_amplitudes",
                            lambda *args: tuple(a * (1.0 + 1e-10)
                                                for a in spectral(*args)))
    else:
        monkeypatch.setattr(amplitudes, "coupling_weights",
                            lambda params, omega: (
                                weights(params, omega)[0] * (1.0 + 1e-10),
                                weights(params, omega)[1]))
    rng = np.random.default_rng(validation.SEED)
    for name, tol, measure in validation.checks(full=True):
        err = measure(rng)
        if name == "spectral amplitudes vs quadrature":
            break
    assert err > tol


def _faulty_rates(params):
    rates = model.collective_rates(params)
    return dataclasses.replace(rates,
                               gamma_minus=rates.gamma_minus * (1.0 + 1e-9))


def _faulty_weights(params, omega):
    c_plus, c_minus = model.coupling_weights(params, omega)
    return c_plus * (1.0 + 1e-9), c_minus


def _scaled(fn, scale):
    return lambda *args: fn(*args) * scale


def _scaled_property(name, scale):
    """A ``ModelParams`` property ``scale`` times its value."""
    prop = getattr(model.ModelParams, name)
    return property(lambda self: prop.fget(self) * scale)


# (owner, name, faulty replacement, the one row it fails); the rows read
# 1.45e-10, 9.44e-10, 2.05e-9, 1.0e-7, 4.11e-9 and 6.57e-9 against 1e-13,
# 1e-13, 1e-14, 1e-8, 1e-14 and 1e-13.  The two ModelParams faults reach
# the oracles too, and no other quick row sees them
_FAULTS = {
    "gamma_minus_1e-9": (amplitudes, "collective_rates", _faulty_rates,
                         "qubit amplitudes vs Markov ODE"),
    "c_plus_1e-9": (amplitudes, "coupling_weights", _faulty_weights,
                    "qubit amplitudes vs Markov ODE"),
    "kernel_limit_1e-9": (fields, "_kernel_limit", _scaled(
        fields._kernel_limit, 1.0 + 1e-9), "resonance peaks vs steady fields"),
    "closed_kernel_1e-7": (fields, "closed_kernel", _scaled(
        fields.closed_kernel, 1.0 + 1e-7),
        "damped kernels vs quadrature (12 samples)"),
    "coupling_1e-9": (model.ModelParams, "coupling", _scaled_property(
        "coupling", 1.0 + 1e-9), "resonance peaks vs steady fields"),
    "qubit_phase_1e-9": (model.ModelParams, "qubit_phase", _scaled_property(
        "qubit_phase", 1.0 + 1e-9), "qubit amplitudes vs Markov ODE"),
}


@pytest.mark.parametrize("fault", list(_FAULTS))
def test_quick_oracle_check_fails_a_small_fault(fault, monkeypatch, capsys):
    # each fault passed every printed row at the rows' former bounds
    module, name, faulty, row = _FAULTS[fault]
    monkeypatch.setattr(module, name, faulty)
    assert cli.main(["oracle-check"]) == 1
    failed = [line.split(": max_err=")[0][len("FAIL "):]
              for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL ")]
    assert failed == [row]


def test_full_oracle_check_passes_its_ten_rows(capsys):
    # the --full table end to end, as a user runs it (about 0.3 s)
    assert cli.main(["oracle-check", "--full"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": max_err=")[0] for line in lines[:-1]] == [
        "PASS " + name for name in (
            "si reflection identity", "si/ci large-argument asymptotics",
            "E1 large-argument asymptotics", "E1(1) reference value",
            "damped kernels vs quadrature (24 samples)",
            "qubit amplitudes vs Markov ODE",
            "resonance peaks vs steady fields",
            "spectral amplitudes vs quadrature", "continuum norm drift",
            "continuum fluxes vs exact lattice T/R")]
    assert lines[-1] == "10/10 checks passed"


def test_quick_oracle_check_keeps_its_node_budget(monkeypatch, capsys):
    # the panels one quick pass hands to the quadrature, counted instead
    # of timed: 282,982 over its 12 kernel calls with the cutoff at
    # 5 times the largest frequency (1,131,911 at 20 times), pinned with
    # a margin of 2%
    panels = []
    panel_sum = oracle._panel_sum

    def counting(s1, t, a, width, n_panels):
        panels.append(n_panels)
        return panel_sum(s1, t, a, width, n_panels)

    monkeypatch.setattr(oracle, "_panel_sum", counting)
    assert cli.main(["oracle-check"]) == 0
    assert capsys.readouterr().out.endswith("7/7 checks passed\n")
    assert len(panels) == 12
    assert sum(panels) <= 288_600


def test_scipy_stays_in_the_oracle_layer():
    importers, linalg = [], []
    for path in sorted((SRC / "wqed").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [alias.name for alias in node.names] \
                if isinstance(node, ast.Import) else \
                [f"{node.module}.{alias.name}" for alias in node.names] \
                if isinstance(node, ast.ImportFrom) and node.level == 0 else []
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.append(path.stem)
            if any(name.split(".")[:2] == ["scipy", "linalg"]
                   for name in names):
                linalg.append(path.stem)
    assert sorted(set(importers)) == ["oracle"]
    # scipy.linalg alone takes a fresh interpreter's RSS up about 6 MB
    assert linalg == []
    # the CLI module loads none of scipy, and a quick oracle-check no
    # scipy.linalg
    probe = "import sys, wqed.cli; print(sorted(m for m in sys.modules " \
            "if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, cwd=SRC, check=True)
    assert proc.stdout.strip() == "[]"
    probe = "import sys, wqed.cli; wqed.cli.main(['oracle-check']); " \
            "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, cwd=SRC, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


def _package_imports(path):
    """The ``wqed`` modules a source file imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            parts = [part for part in (node.module or "").split(".") if part]
            if node.level == 0:
                if parts[:1] != ["wqed"]:
                    continue
                parts = parts[1:]
            # ``from . import x`` names modules; ``from .x import y`` one
            found.update(parts[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("wqed."))
    return found


def test_oracles_and_engine_do_not_import_each_other():
    # the oracles share no special functions and no field algebra with the
    # engine, and the engine never reaches the oracles or the check table
    imports = {path.stem: _package_imports(path)
               for path in (SRC / "wqed").glob("*.py")}
    assert {"model", "specfun"} <= imports["fields"]
    assert not imports["oracle"] & {"specfun", "fields"}
    for engine in ("specfun", "model", "amplitudes", "fields"):
        assert not imports[engine] & {"oracle", "validation"}, engine


# oracle entry point: (the oracle functions it reaches, the engine-bound
# names they read, the ModelParams fields they read)
_PARAMS_ONLY_ORACLES = {
    "quad_kernel": ({"quad_kernel", "_panel_count", "_panel_sum",
                     "_phase_tables", "_rise", "_tail_moments"}, set(),
                    {"omega_q", "omega_s"}),
    "markov_ode": ({"markov_ode", "_driven_pair", "_expm"}, {"QubitState"},
                   {"gamma", "coupling", "amplitude", "qubit_phase",
                    "drive_phase", "omega_s", "omega_q"}),
    "quad_spectral": ({"quad_spectral", "_driven_pair", "_expm"}, set(),
                      {"gamma", "coupling", "amplitude", "qubit_phase",
                       "drive_phase", "omega_s", "omega_q", "distance",
                       "v_g"}),
    "continuum_evolve": ({"continuum_evolve", "make_continuum_grid",
                          "gaussian_spectrum"}, set(),
                         {"coupling", "omega_s", "omega_q", "distance",
                          "v_g", "pulse_width"}),
}


def test_the_ode_oracle_reads_only_its_params():
    # ``quad_kernel``, ``markov_ode``, ``quad_spectral`` and
    # ``continuum_evolve``, and the oracle functions they call, read no
    # name that ``oracle`` binds from an engine module but the QubitState
    # they fill, and only raw fields and phases of their ModelParams
    tree = ast.parse((SRC / "wqed" / "oracle.py").read_text())
    engine = {"model", "amplitudes", "fields", "specfun"}
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            bound.update(alias.asname or alias.name for alias in node.names
                         if node.module in engine or alias.name in engine)
    assert {"collective_rates", "coupling_weights", "ModelParams",
            "QubitState"} <= bound
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    for start, (reached, engine_read, fields_read) \
            in _PARAMS_ONLY_ORACLES.items():
        scanned, todo, read, params_read = set(), [start], set(), set()
        while todo:
            name = todo.pop()
            if name in scanned:
                continue
            scanned.add(name)
            for node in (n for stmt in defs[name].body
                         for n in ast.walk(stmt)):
                if isinstance(node, ast.Name) \
                        and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                    if node.id in defs:
                        todo.append(node.id)
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id == "params":
                    params_read.add(node.attr)
        assert scanned == reached, start
        assert read & bound == engine_read, start
        assert params_read == fields_read, start
