"""Regenerate the stored references of the benchmark's correctness gates.

    python3 benchmarks/make_reference.py

Writes ``reference/<preset>.csv.xz`` for every figure preset of the
``figure_set`` workload and ``reference/field_maps_seed<N>.json`` for the
default ``field_maps`` seed, from the package under ``src``.  Only run it
on a commit whose outputs are known good: every later run is compared
against what it writes.
"""

from __future__ import annotations

import json
import lzma
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def main():
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        codes, csv = workloads.figure_pass(Path(tmp))
    for preset, data in csv.items():
        if codes[preset] != 0:
            raise SystemExit(f"{preset} exited with {codes[preset]}")
        path = checks.REFERENCE_DIR / f"{preset}.csv.xz"
        path.write_bytes(lzma.compress(data, preset=9 | lzma.PRESET_EXTREME))
        print(f"wrote {path.name}")

    seed = workloads.DEFAULT_SEED
    outputs = workloads.field_pass(workloads.field_inputs(seed))
    if any(arrays is None for arrays in outputs.values()):
        raise SystemExit("a field_maps slice raised")
    path = checks.field_reference_path(seed)
    path.write_text(json.dumps(checks.summarize_fields(outputs), indent=1)
                    + "\n")
    print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
