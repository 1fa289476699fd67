"""ietkit benchmark: one workload per run, a closed loop with one client.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload random-diagrams --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

The run imports ``ietkit`` from ``src/`` of the checkout it sits in, builds
its inputs from ``--seed``, runs the workload's closed loop for ``--seconds``,
checks every output, and prints the metrics.  Lines before the last one are
for people: machine facts and the workload's metrics under their own names.
The last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``BENCHMARK.json`` at the root lists both sets.

With ``--trace 1`` the run spends half of ``--seconds`` on the loop untraced
and half traced (the difference is the tracing overhead), then makes the
layer pass of ``layers.py`` twice, the second time only to check that its
counters repeat; spans go to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
SETUP_REPEATS = 12
# Seconds of calls between two timings of the reference loop.
REFERENCE_EVERY = 0.2
# Seconds per reference unit when setup_s converts set-up time back to seconds:
# about the reference loop's median time on a 2-vCPU Xeon virtual machine
# with Python 3.11.7.  A fixed scale, like the loop itself: never change it.
SECONDS_PER_REF = 0.8e-3
WORKLOADS = ("random-diagrams", "power-ladder", "orbits", "cli")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_oracles():
    """``tests/oracles.py``, loaded by path so nothing else in tests/ is imported."""
    spec = importlib.util.spec_from_file_location("ietkit_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def machine_facts(seed: int, seconds: float) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit,
        "source_sha256": tree_sha256(ROOT / "src" / "ietkit"),
        "seed": seed,
        "seconds": seconds,
        "setup_repeats": 2 * SETUP_REPEATS,
    }


def _reference_work() -> int:
    total = 0
    for i in range(3000):
        total += i * i % 7
    x = y = Fraction(0)
    points = []
    for i in range(1, 40):
        x += Fraction(i % 9 + 1, i % 4 + 1)
        y += Fraction((i * 7) % 19 - 9, i % 3 + 1)
        points.append((x, y))
    return total + sum((x1 - x0) * (y1 + y0) > 0 for (x0, y0), (x1, y1) in zip(points, points[1:]))


def reference_seconds() -> float:
    """Median of three timings of a fixed loop of integer and Fraction arithmetic.

    On a virtual machine whose CPUs are shared with other tenants, speed can
    vary by a quarter from second to second and drift by a tenth from minute
    to minute.  Calls are therefore also reported in reference units: a
    call's seconds divided by the mean of the reference loop's timings just
    before and just after it.
    The loop must never change, or reference units stop being comparable.
    """
    timings = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_work()
        timings.append(time.perf_counter() - t0)
    return statistics.median(timings)


def closed_loop(ops, seconds: float, min_ops: int, tracer=None, rusage_who=resource.RUSAGE_SELF):
    """Call ``ops`` in turn, each after the previous returned, for ``seconds``.

    The reference loop is timed between calls, every ``REFERENCE_EVERY``
    seconds; its time is not counted in any call.  Peak RSS is read once,
    after ``min_ops`` calls: later, the log's per-call records would count in
    it, and a faster program makes more calls.
    """
    from workloads import Log

    log = Log()
    clock = time.perf_counter
    n = len(ops)
    i = 0
    reference = reference_seconds()
    last_reference = clock()
    deadline = clock() + seconds
    while i < min_ops or clock() < deadline:
        if clock() - last_reference >= REFERENCE_EVERY:
            now = reference_seconds()
            log.settle((reference + now) / 2)
            reference, last_reference = now, clock()
        op = ops[i % n]
        i += 1
        try:
            if tracer is None:
                t0 = clock()
                result = op.fn(*op.args)
                dt = clock() - t0
            else:
                with tracer.span(op.kind, op.item) as sp:
                    result = op.fn(*op.args)
                dt = sp.seconds
            log.record(op, result, dt)
        except Exception as exc:  # a failed call is counted, and the loop goes on
            log.fail(op, exc)
        if i == min_ops:
            log.peak_rss_mib = resource.getrusage(rusage_who).ru_maxrss / 1024
    log.settle((reference + reference_seconds()) / 2)
    return log


def setup_seconds(workload, name: str) -> tuple[object, list[float], list[float]]:
    """Import the package in a fresh interpreter and generate the inputs, repeatedly.

    Returns the inputs, and the time of each set-up in seconds and in
    reference units (the reference loop is timed just before and just after
    each set-up; the fresh interpreter inherits this process's CPU).
    """
    from layers import import_seconds

    module = "ietkit.cli" if name == "cli" else "ietkit"
    seconds, refs = [], []
    inputs = None
    for _ in range(SETUP_REPEATS):
        before = reference_seconds()
        imported = import_seconds(ROOT, module)
        t0 = time.perf_counter()
        inputs = workload.generate()
        wall = imported + time.perf_counter() - t0
        after = reference_seconds()
        seconds.append(wall)
        refs.append(wall / ((before + after) / 2))
    return inputs, seconds, refs


def tree_sha256(*dirs: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for d in dirs for p in d.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_counters(first: dict, second: dict, seed: int) -> list[tuple[bool, str]]:
    """Counters must repeat exactly: between the two layer passes of this run,
    and across runs with one seed and the same benchmark and library sources."""

    def compare(a: dict, b: dict, what: str) -> tuple[bool, str]:
        gap = {k: (a.get(k), b.get(k)) for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)}
        return not gap, f"counters differ {what}: {gap}" if gap else f"counters repeat {what}"

    results = [compare(first, second, "between the two layer passes")]
    mine = json.loads(json.dumps(first))
    sources = tree_sha256(ROOT / "src" / "ietkit", ROOT / "perfbench")[:16]
    path = WORK / f"counters-{seed}-{sources}.json"
    if path.exists():
        results.append(compare(json.loads(path.read_text()), mine, f"from an earlier run with seed {seed}"))
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(mine, sort_keys=True))
        results.append((True, f"counters recorded for seed {seed} and sources {sources}"))
    return results


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "ietkit" / "__init__.py").is_file():
        fail(f"no ietkit package under {ROOT / 'src'}; run from a full checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json is missing from the checkout root")
    if not (ROOT / "tests" / "oracles.py").is_file():
        fail("tests/oracles.py is missing; the benchmark checks outputs against it")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from layers import import_seconds

    oracles = load_oracles()
    workload = workloads.make(name, seed, ROOT, WORK)
    # Shared virtual CPUs change speed independently of each other, so the
    # benchmark, and every single-process call it starts, stays on one CPU:
    # the CPU whose speed the reference loop measures.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_seconds(ROOT, "ietkit.cli")  # compiles bytecode on a fresh checkout
    inputs, setup_walls, setup_refs = setup_seconds(workload, name)
    ops = workload.round_ops(inputs)
    facts = machine_facts(seed, seconds)
    checks = workloads.Checks()

    # The CLI workload's program runs in child processes; the others in this one.
    rusage_who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF

    def run_loop(loop_seconds: float, tracer=None):
        log = closed_loop(ops, loop_seconds, workload.min_ops, tracer, rusage_who)
        mine = workloads.Checks()
        mine.attempted = len(log.kinds) + len(log.errors)
        mine.failed = len(log.errors)
        mine.messages = log.errors[:20]
        workload.verify(inputs, log, mine, oracles)
        checks.attempted += mine.attempted
        checks.failed += mine.failures
        checks.messages.extend(mine.messages)
        return log

    lines = []
    if not trace:
        log = run_loop(seconds)
        # Half the set-ups ran before the loop and half run after it, so that
        # setup_s samples the machine at both ends of the run.  Like the other
        # gated times it is taken in reference units, then scaled to seconds.
        _, walls, refs = setup_seconds(workload, name)
        setup_s = statistics.median(setup_refs + refs) * SECONDS_PER_REF
        named, generic = workload.metrics(log)
        metrics = {
            "throughput_per_ref": (generic["throughput_per_ref"], "1/ref"),
            "latency_ref_p50": (generic["latency_ref_p50"], "ref"),
            "latency_ref_p90": (generic["latency_ref_p90"], "ref"),
            "peak_rss_mib": (log.peak_rss_mib, "MiB"),
            "setup_s": (setup_s, "s"),
        }
        facts["latency_samples"] = generic["latency_samples"]
        facts["calls"] = len(log.kinds)
        facts["reference_ms_median"] = statistics.median(
            s / r for s, r in zip(log.seconds, log.refs)) * 1e3
        named = {
            **named,
            "throughput_per_s": (generic["throughput_per_s"], "1/s"),
            "latency_ms_p50": (generic["latency_ms_p50"], "ms"),
            "latency_ms_p90": (generic["latency_ms_p90"], "ms"),
            "ops_failed_frac": (min(checks.failures, checks.attempted) / checks.attempted, "share"),
            "setup_wall_s": (statistics.median(setup_walls + walls), "s"),
        }
        for key, (value, unit) in {**metrics, **named}.items():
            lines.append(f"{name} {key} {value!r} {unit}")
        lines.append(f"{name} latency samples: {generic['latency_samples']} calls")
    else:
        from layers import layer_pass
        from spans import Tracer

        untraced = run_loop(seconds / 2)
        tracer = Tracer()
        traced = run_loop(seconds / 2, tracer)
        rate_u = workload.metrics(untraced)[1]
        rate_t = workload.metrics(traced)[1]
        references = [reference_seconds() for _ in range(5)]
        layer_metrics, counters, layer_facts = layer_pass(tracer, seed, ROOT, WORK)
        references += [reference_seconds() for _ in range(5)]
        # A second pass, on a tracer of its own, only to see the counters repeat.
        _, counters_again, _ = layer_pass(Tracer(), seed, ROOT, WORK)
        facts.update(layer_facts)
        for ok, message in check_counters(counters, counters_again, seed):
            checks.expect(ok, message)
            lines.append(message)
        metrics = dict(layer_metrics)
        for key, value in counters.items():
            metrics[key] = (value, "share" if key.endswith("_share") else "count")
        for unit in ("s", "ref"):
            key = f"throughput_per_{unit}"
            metrics[f"trace.{key}.untraced"] = (rate_u[key], f"1/{unit}")
            metrics[f"trace.{key}.traced"] = (rate_t[key], f"1/{unit}")
        # In reference units, so that the machine's drift between the halves cancels.
        overhead = 1 - rate_t["throughput_per_ref"] / rate_u["throughput_per_ref"]
        metrics["trace.overhead_share"] = (overhead, "share")
        metrics["trace.reference_loop_us"] = (statistics.median(references) * 1e6, "us")
        trace_path = WORK / f"trace-{name}-{seed}.json"
        tracer.write(trace_path, {"workload": name, "machine": facts})
        lines.append(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        for key, (value, unit) in metrics.items():
            lines.append(f"{name} {key} {value!r} {unit}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(metrics) != declared:
        fail(f"metrics {sorted(set(metrics) ^ declared)} disagree with BENCHMARK.json")
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    print("# machine " + json.dumps(facts, sort_keys=True))
    print(f"# workload {name}: {why}")
    for line in lines:
        print(line)
    for message in checks.messages:
        print(f"CHECK FAILED: {message}")
    failed = min(checks.failures, checks.attempted)
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
