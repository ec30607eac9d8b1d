"""The check table behind ``wqed oracle-check`` and the layering it keeps."""

import ast
import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wqed import amplitudes, cli, fields, oracle, validation

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
    assert validation.spectral_vs_quadrature(p, [0.995 * p.omega_q],
                                             10.0 / p.gamma) \
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
    importers = []
    for path in sorted((SRC / "wqed").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [alias.name for alias in node.names] \
                if isinstance(node, ast.Import) else \
                [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.append(path.stem)
    assert sorted(set(importers)) == ["oracle"]
    # and the CLI module loads none of it
    probe = "import sys, wqed.cli; print(sorted(m for m in sys.modules " \
            "if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, cwd=SRC, check=True)
    assert proc.stdout.strip() == "[]"


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
