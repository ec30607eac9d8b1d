"""No mutable module-level state: every module-level array is read-only.

A table that code could write into would be shared by every caller in
the process, so the package's module-level numpy arrays are built once at
import and frozen with ``setflags(write=False)``.
"""

import importlib
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def writeable_arrays(modules):
    """``module.name`` of each writeable ndarray a module binds at its top
    level."""
    return [f"{module.__name__}.{name}" for module in modules
            for name, value in vars(module).items()
            if isinstance(value, np.ndarray) and value.flags.writeable]


def test_scan_finds_a_writeable_array():
    module = types.ModuleType("m")
    module.TABLE = np.zeros(3)
    module.FROZEN = np.ones(3)
    module.FROZEN.setflags(write=False)
    module.SCALAR = 1.5
    assert writeable_arrays([module]) == ["m.TABLE"]


def test_no_module_level_array_is_writeable():
    modules = [importlib.import_module(f"wqed.{path.stem}")
               for path in sorted((ROOT / "src" / "wqed").glob("*.py"))
               if path.stem != "__init__"]
    assert len(modules) >= 8
    assert writeable_arrays([importlib.import_module("wqed")] + modules) \
        == []
