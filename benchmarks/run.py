"""Benchmark of the wqed package: one workload, one seed, one JSON line.

    python3 benchmarks/run.py --workload figure_set --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
With ``--trace 0`` the last line of standard output holds the end-to-end
metrics (setup_s, wall_s, points_per_s, peak_rss_mb); with ``--trace 1``
it holds the per-layer metrics of a traced run.  Passes repeat until
``--seconds`` have gone by (at least one pass); timings are medians over
passes.  See NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

# setup_s is the median over SETUP_WINDOWS windows of SETUP_WINDOW fresh
# interpreters each, spread over the run (see SetupSampler); one more
# interpreter before them warms the bytecode cache
SETUP_WINDOWS = 5
SETUP_WINDOW = 4
SETUP_CODE = (
    "import math, wqed.cli\n"
    "from wqed.model import ModelParams, collective_rates\n"
    "w = 2 * math.pi * 5.0e9\n"
    "collective_rates(ModelParams.from_phase(w, 0.01 * w, 0.5))\n"
)
SETUP_TIMEOUT_S = 60
CHECKS_LINE = re.compile(r"^(\d+)/(\d+) checks passed$", re.MULTILINE)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment and metadata

def cap_threads():
    """Keep the field thread pool within the CPUs this process may use."""
    allowed = len(os.sched_getaffinity(0))
    if (os.cpu_count() or 1) > allowed:
        os.environ["WQED_THREADS"] = str(allowed)
    return allowed


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "wqed").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _command_output(cmd):
    if shutil.which(cmd[0]) is None:
        return None
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def metadata(args, affinity):
    import numpy
    import scipy
    from wqed import fields

    thread_count = getattr(fields, "_thread_count", None)
    commit = (_command_output(["git", "rev-parse", "HEAD"])
              if (ROOT / ".git").exists() else None)
    nproc = _command_output(["nproc"])
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_commit": commit or "unknown",
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": int(nproc) if nproc else None,
        "cpu_count": os.cpu_count(), "affinity": affinity,
        "WQED_THREADS": os.environ.get("WQED_THREADS"),
        "pool_threads": thread_count() if thread_count else None,
    }


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    return env


def time_setups(count):
    """Wall times of ``count`` fresh interpreters doing the first CLI set-up.

    ``wait`` without a timeout blocks in waitpid, so the time is exact (with
    a timeout it would poll in steps of up to 50 ms); a timer kills a child
    that hangs.
    """
    env = child_env()
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                                 env=env, stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up interpreter exited with {code}")
    return times


class SetupSampler:
    """setup_s samples, taken in windows spread over the untraced passes.

    On a shared machine the time to start an interpreter can drift by
    tens of percent over tens of seconds, while samples taken back to
    back agree closely.  So the samples come in windows: one before the
    passes, one at a ``tick`` (after a pass, or between the calls of a
    long pass) whenever a share ``seconds / (SETUP_WINDOWS - 1)`` of the
    run has gone by since the last window, and the rest after the passes.
    ``spent`` is the time taken by windows, which the pass clock leaves out.
    """

    def __init__(self, seconds):
        self.times = []
        self.spent = 0.0
        self.spacing = seconds / (SETUP_WINDOWS - 1)
        time_setups(1)
        self.window()

    def window(self):
        t0 = time.perf_counter()
        self.times += time_setups(SETUP_WINDOW)
        self.last = time.perf_counter()
        self.spent += self.last - t0

    def tick(self):
        if (len(self.times) < (SETUP_WINDOWS - 1) * SETUP_WINDOW
                and time.perf_counter() - self.last >= self.spacing):
            self.window()

    def finish(self):
        while len(self.times) < SETUP_WINDOWS * SETUP_WINDOW:
            self.window()
        return self.times


# ---------------------------------------------------------------------------
# passes

def timed_passes(one_pass, reduce, seconds, setup=None):
    """Repeat ``one_pass`` until ``seconds`` have gone by.

    Each output is reduced by ``reduce``, and ``setup`` ticks, outside the
    clock; set-up windows taken inside a pass are subtracted from its
    time.  Returns the pass times, the reduced outputs, and the raw output
    of the last pass (earlier raw outputs are dropped before the next pass
    starts, so the peak memory is that of one pass).
    """
    times, reduced, last = [], [], None
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        last = None
        spent = setup.spent if setup else 0.0
        t0 = time.perf_counter()
        last = one_pass()
        elapsed = time.perf_counter() - t0
        times.append(elapsed - (setup.spent - spent if setup else 0.0))
        reduced.append(reduce(last))
        if setup:
            setup.tick()
    return times, reduced, last


def run_passes(one_pass, reduce, args, setup):
    """Untraced passes, and with ``--trace 1`` a second, traced series.

    ``setup`` (a SetupSampler, or None) samples during the untraced passes.
    Returns (untraced times, traced times or None, reduced outputs of all
    passes, raw output of the last pass, tracer or None).
    """
    import spans

    times, reduced, last = timed_passes(lambda: one_pass(None), reduce,
                                        args.seconds, setup)
    if not args.trace:
        return times, None, reduced, last, None
    tracer = spans.Tracer()
    with tracer.installed():
        traced, more, last = timed_passes(lambda: one_pass(tracer), reduce,
                                          args.seconds)
    return times, traced, reduced + more, last, tracer


class Outcome:
    """Operations attempted and failed, and the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.max_rel_diff = None     # None when no reference was compared
        self.oracle_max_err = None
        self.points = 0

    def ops(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed

    def problem(self, text):
        self.problems.append(text)
        print(f"check: {text}", file=sys.stderr)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _same_everywhere(reduced, what, outcome):
    if any(r != reduced[0] for r in reduced[1:]):
        outcome.problem(f"{what} differ between passes (not byte-identical)")


def _write_json_atomic(path: Path, payload):
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
    os.replace(tmp, path)


def run_figure_set(args, outcome, setup):
    import checks
    import workloads

    out_dir = WORK / f"figure_set-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)

    def reduce(result):
        codes, csv = result
        return {p: (codes[p], _sha(data)) for p, data in csv.items()}

    try:
        # one pass outlasts the run, so set-up windows go between presets
        timing = run_passes(
            lambda tracer: workloads.figure_pass(
                out_dir, tracer, between=setup.tick if setup else None),
            reduce, args, setup)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    rss = peak_rss_mb()
    times, traced, reduced, (codes, csv), tracer = timing
    _same_everywhere(reduced, "figure CSVs", outcome)

    # rerun byte identity across runs of the same source in this checkout
    state = WORK / f"figure_set-{source_digest()[:16]}.json"
    digests = {p: digest for p, (_, digest) in reduced[-1].items()}
    if state.exists():
        if json.loads(state.read_text()) != digests:
            outcome.problem("figure CSVs differ from an earlier run of "
                            "the same source")
    else:
        _write_json_atomic(state, digests)

    bad = set()
    for preset, data in csv.items():
        if codes[preset] != 0:
            outcome.problem(f"{preset}: exit code {codes[preset]}")
            bad.add(preset)
            continue
        problem, worst = checks.compare_csv(data, checks.reference_csv(preset))
        outcome.max_rel_diff = max(outcome.max_rel_diff or 0.0, worst)
        if problem:
            outcome.problem(f"{preset}: {problem}")
            bad.add(preset)
        outcome.points += sum(1 for line in data.decode().splitlines()
                              if not line.startswith("#")) - 1
    n_passes = len(reduced)
    outcome.ops(n_passes * len(csv), n_passes * len(bad))
    return times, traced, tracer, rss


def run_field_maps(args, outcome, setup):
    import checks
    import workloads

    blocks = workloads.field_inputs(args.seed)

    def reduce(result):
        return {name: None if arrays is None else
                {key: _sha(arr.tobytes()) for key, arr in arrays.items()}
                for name, arrays in result.items()}

    times, traced, reduced, last, tracer = run_passes(
        lambda tracer: workloads.field_pass(blocks), reduce, args, setup)
    rss = peak_rss_mb()
    _same_everywhere(reduced, "field envelopes", outcome)
    outcome.points = sum(block.points for block in blocks)

    raised = {name for name, arrays in last.items() if arrays is None}
    for name in sorted(raised):
        outcome.problem(f"{name}: evaluation raised")
    outcome.ops(len(reduced) * len(blocks), len(reduced) * len(raised))

    # The stored reference holds the default seed's slices.  Any other
    # seed evaluates them once more, outside the timed passes, so every
    # run is compared with the reference.
    seed = workloads.DEFAULT_SEED
    ref_out = last if args.seed == seed else workloads.field_pass(
        workloads.field_inputs(seed))
    problems, outcome.max_rel_diff = checks.compare_fields(
        checks.summarize_fields(
            {k: v for k, v in ref_out.items() if v is not None}),
        checks.load_field_reference(seed))
    for name, problem in problems.items():
        if problem:
            outcome.problem(f"seed {seed} {name}: {problem}")
    outcome.ops(len(problems), sum(1 for p in problems.values() if p))

    if not raised:
        spots = checks.oracle_spot_checks(blocks, last, args.seed)
        outcome.oracle_max_err = max(err for _, err in spots)
        failed = [(name, err) for name, err in spots
                  if not err <= checks.ORACLE_TOL]
        for name, err in failed:
            outcome.problem(f"{name}: oracle spot check off by {err:.3g}")
        outcome.ops(len(spots), len(failed))
    return times, traced, tracer, rss


def run_validate(args, outcome, setup):
    import workloads

    times, traced, reduced, last, tracer = run_passes(
        workloads.validate_pass, lambda result: result, args, setup)
    rss = peak_rss_mb()
    _same_everywhere([text for _, text in reduced], "oracle-check reports",
                     outcome)
    failed = 0
    for code, text in reduced:
        counts = CHECKS_LINE.search(text)
        passed = (code == 0 and counts is not None
                  and counts.group(1) == counts.group(2)
                  and "FAIL" not in text)
        if not passed:
            failed += 1
    if failed:
        outcome.problem(f"oracle-check failed in {failed} of "
                        f"{len(reduced)} passes")
    counts = CHECKS_LINE.search(last[1])
    outcome.points = int(counts.group(2)) if counts else 0
    outcome.ops(len(reduced), failed)
    return times, traced, tracer, rss


RUNNERS = {"figure_set": run_figure_set, "field_maps": run_field_maps,
           "validate": run_validate}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def with_units(values, kind):
    """``values`` as printed metrics, with the units BENCHMARK.json declares.

    ``kind`` is ``end_to_end`` or ``per_layer``; every declared metric of
    that kind must have a value, and every value must be declared.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec[kind]}
    undeclared = sorted(values.keys() - units.keys())
    if undeclared:
        raise ValueError(f"{kind} metrics not in BENCHMARK.json: {undeclared}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def per_layer(tracer, traced, wall_s, seed):
    """Per-layer metrics of a traced run (band table measured untraced)."""
    import spans
    import specfun_table

    values = spans.layer_metrics(tracer.spans, len(traced))
    values.update(specfun_table.band_table(seed))
    values["trace.overhead_s"] = statistics.median(traced) - wall_s
    return with_units(values, "per_layer")


# ---------------------------------------------------------------------------
# entry point

def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "wqed" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    affinity = cap_threads()
    setup = None if args.trace else SetupSampler(args.seconds)
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    meta = metadata(args, affinity)
    outcome = Outcome()
    times, traced, tracer, rss = RUNNERS[args.workload](args, outcome, setup)
    wall_s = statistics.median(times)
    meta["passes"] = len(times)
    meta["pass_times_s"] = times
    if args.trace:
        metrics = per_layer(tracer, traced, wall_s, args.seed)
        meta["traced_pass_times_s"] = traced
        meta["missing_bindings"] = tracer.missing
        if args.workload == "figure_set":
            import spans
            meta["by_preset"] = spans.figure_breakdown(tracer.spans)
    else:
        setups = setup.finish()
        meta["setup_times_s"] = setups
        values = {"setup_s": statistics.median(setups), "wall_s": wall_s,
                  "points_per_s": outcome.points / wall_s,
                  "peak_rss_mb": rss}
        metrics = with_units(values, "end_to_end")
    meta["max_rel_diff"] = outcome.max_rel_diff
    meta["oracle_max_err"] = outcome.oracle_max_err
    meta["problems"] = outcome.problems
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {"correct": not outcome.problems and outcome.failed == 0,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
