"""Tests of the benchmark harness itself (small inputs, a few seconds).

    PYTHONPATH=src python3 -m pytest benchmarks/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

QUICK_PRESETS = (("spectrum", "fig2"), ("beating", "fig7"), ("peaks", "fig8"))
SMALL_SHAPE = (4, 12)
COUNTS = (".calls", ".args", ".points", ".rows", ".write_bytes")


def _field_bytes(outputs):
    return {name: {key: arr.tobytes() for key, arr in arrays.items()}
            for name, arrays in outputs.items()}


def _traced(fn):
    tracer = spans.Tracer()
    with tracer.installed():
        result = fn(tracer)
    return result, spans.layer_metrics(tracer.spans, 1)


def _counts(metrics):
    return {k: v for k, v in metrics.items()
            if k.endswith(COUNTS) or ".branch." in k}


def test_traced_and_untraced_runs_write_identical_bytes(tmp_path):
    blocks = workloads.field_inputs(3, shape=SMALL_SHAPE)
    plain = workloads.field_pass(blocks)
    traced, _ = _traced(lambda tracer: workloads.field_pass(blocks))
    assert _field_bytes(plain) == _field_bytes(traced)

    _, plain_csv = workloads.figure_pass(tmp_path, presets=QUICK_PRESETS)
    (codes, traced_csv), _ = _traced(lambda tracer: workloads.figure_pass(
        tmp_path, tracer, presets=QUICK_PRESETS))
    assert set(codes.values()) == {0}
    assert plain_csv == traced_csv

    code, text = workloads.validate_pass()
    (traced_code, traced_text), _ = _traced(workloads.validate_pass)
    assert code == traced_code == 0
    assert text == traced_text


def test_two_traced_runs_give_equal_counts(tmp_path):
    blocks = workloads.field_inputs(4, shape=SMALL_SHAPE)

    def both(tracer):
        workloads.field_pass(blocks)
        return workloads.figure_pass(tmp_path, tracer, presets=QUICK_PRESETS)

    _, first = _traced(both)
    _, second = _traced(both)
    assert _counts(first) == _counts(second)
    assert first["fields.branch.transient"] == 12
    assert first["fields.branch.steady"] == 4
    assert first["cli.rows"] == 2001 + 8192 + 1591


def test_wrappers_are_removed_after_the_run():
    import wqed.cli
    import wqed.fields
    import wqed.specfun

    before = (wqed.fields.e1_scaled, wqed.cli.collective_rates,
              wqed.fields.forward_field)
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert spans.wrapped_names()
            raise RuntimeError("abort the traced run")
    assert spans.wrapped_names() == []
    assert (wqed.fields.e1_scaled, wqed.cli.collective_rates,
            wqed.fields.forward_field) == before
    assert wqed.fields.e1_scaled is wqed.specfun.e1_scaled


def test_worker_thread_spans_attach_to_the_open_main_span():
    tracer = spans.Tracer()
    with tracer.span("fields.forward_field"):
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(_nested_worker_span, tracer)
                       for _ in range(4)]
            for future in futures:
                future.result(timeout=60)
    workers = tracer.spans[1:]
    assert len(workers) == 8
    outer = [s for s in workers if s.name == "specfun.e1_scaled"]
    inner = [s for s in workers if s.name == "specfun.inner"]
    assert all(s.parent == 0 for s in outer)
    assert all(tracer.spans[s.parent].name == "specfun.e1_scaled"
               and tracer.spans[s.parent].thread == s.thread for s in inner)
    assert all(s.thread != threading.get_ident() for s in workers)


def _nested_worker_span(tracer):
    with tracer.span("specfun.e1_scaled"):
        with tracer.span("specfun.inner"):
            pass


def test_e1_arguments_are_attributed_to_their_field_call():
    blocks = workloads.field_inputs(5, shape=SMALL_SHAPE)
    _, metrics = _traced(lambda tracer: workloads.field_pass(blocks))
    points = {"forward": 0, "backward": 0, "interqubit": 0}
    for block in blocks:
        if block.branch == "transient":
            fn = workloads.FIELD_FN[block.region]
            points[spans.FIELD_FUNCTIONS[fn]] += block.points
    attributed = sum(metrics[f"fields.e1_args_per_point.{d}"] * n
                     for d, n in points.items())
    assert attributed == pytest.approx(metrics["specfun.e1_scaled.args"])


def test_self_time_subtracts_the_union_of_children():
    parent, a, b = (spans.Span(n, 0, p) for n, p in
                    (("fields.f", None), ("specfun.e1_scaled", 0),
                     ("specfun.e1_scaled", 0)))
    parent.start, parent.end = 0.0, 10.0
    a.start, a.end = 1.0, 5.0
    b.start, b.end = 3.0, 7.0          # overlaps a, as pool workers do
    assert spans.self_times([parent, a, b]) == [4.0, 4.0, 4.0]


def test_csv_comparison_tolerance():
    ref = b"# peak = 1.5\ncurve,x\nline:x=-2d,1.0\nline:x=-2d,nan\n"
    assert checks.compare_csv(ref, ref) == (None, 0.0)
    problem, diff = checks.compare_csv(
        b"# peak = 1.5000000000001\ncurve,x\nline:x=-2d,1.0000000000001\n"
        b"line:x=-2d,nan\n", ref)
    assert problem is None and 0 < diff < checks.REL_TOL
    for bad in (b"# peak = 1.5\ncurve,x\nline:x=-2d,1.00000000001\n"
                b"line:x=-2d,nan\n",
                b"# peak = 1.50000000001\ncurve,x\nline:x=-2d,1.0\n"
                b"line:x=-2d,nan\n",
                b"# top = 1.5\ncurve,x\nline:x=-2d,1.0\nline:x=-2d,nan\n",
                b"# peak = 1.5\ncurve,x\nline:x=-2d,1.0\nline:x=-2d,0\n",
                b"# peak = 1.5\ncurve,x\nline:x=-2d,1.0\n"):
        problem, _ = checks.compare_csv(bad, ref)
        assert problem is not None, bad


def test_field_reference_matches_default_seed():
    blocks = workloads.field_inputs(workloads.DEFAULT_SEED)
    quick = [b for b in blocks if b.regime == "strong"]
    outputs = workloads.field_pass(quick)
    reference = checks.load_field_reference(workloads.DEFAULT_SEED)
    summary = checks.summarize_fields(outputs)
    problems, worst = checks.compare_fields(
        summary, {name: reference[name] for name in summary})
    assert not any(problems.values())
    assert worst <= checks.REL_TOL


def test_every_per_layer_metric_is_declared_and_printed():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    printed = run.per_layer(spans.Tracer(), [1.0], 1.0, seed=1)
    assert list(printed) == [m["name"] for m in declared]
    with pytest.raises(ValueError, match="not in BENCHMARK.json"):
        run.with_units({"fields.unknown.calls": 1}, "per_layer")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "validate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
