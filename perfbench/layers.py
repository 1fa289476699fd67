"""The traced layer pass: per-layer times and counters on fixed-size samples.

Every traced run makes the same pass, whatever the workload, so every traced
run reports every layer.  The samples are drawn from the four workloads'
seeded streams:

* the first ``DIAGRAM_SAMPLE`` random diagrams, each call made on its own;
* ``LADDER_SAMPLE`` power curves at each d of the ladder;
* ``CURVE_SAMPLE`` float grid points of the CLI scan curve;
* the orbit instances, ``ORBIT_STEPS`` steps per call, ``ORBIT_REPEATS`` times;
* fresh interpreters importing ``ietkit.cli`` and ``ietkit``, in-process
  ``ietkit.cli.main`` on the CLI's one-shot inputs, and one in-process scan.

Times are medians over the sample.  Counters are computed from what the
public functions return, over the fixed sample, so they repeat exactly for a
seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

from ietkit import (
    build_iet,
    build_suspension,
    convexity_criterion,
    curve_point,
    curve_spec,
    discrepancy_trend,
    find_connections,
    is_irreducible,
    mahler_curve,
    omega,
    orbit_coding,
    pointwise_positive,
    return_time_profile,
    self_intersects,
    validate_permutation,
    visit_frequencies,
)
from spans import Tracer
from workloads import (
    POSITIVE,
    Cli,
    Orbits,
    PowerLadder,
    RandomDiagrams,
    witness_payload,
    witness_position,
)

DIAGRAM_SAMPLE = 200
LADDER_SAMPLE = 2
CURVE_SAMPLE = 200
ORBIT_STEPS = 100_000
ORBIT_REPEATS = 3
IMPORT_REPEATS = 5
SCAN_SAMPLES = 200


def _median_us(spans) -> float:
    return statistics.median(sp.seconds for sp in spans) * 1e6


def _denominator_bits(diagram) -> int:
    denom = math.lcm(*(c.denominator for chain in (diagram.top_chain, diagram.bottom_chain)
                       for pt in chain for c in pt))
    return denom.bit_length()


def _criterion_pipeline(tr: Tracer, item: str, images, a, b, tag: str | None):
    """Each public call of the criterion pipeline in its own span."""
    with tr.span("item", item):
        with tr.span("perm.validate_permutation", item):
            sigma = validate_permutation(images)
        with tr.span("perm.is_irreducible", item):
            is_irreducible(sigma)
        with tr.span("perm.omega", item):
            omega(sigma)
        with tr.span("criterion.convexity_criterion", item):
            report = convexity_criterion(sigma, a, b)
        with tr.span("suspension.build_suspension", item, tag):
            diagram = build_suspension(sigma, a, b)
        with tr.span("suspension.return_time_profile", item):
            return_time_profile(sigma, b)
        with tr.span("suspension.self_intersects", item) as sp:
            inter = self_intersects(diagram)
        sp.tag = "simple" if inter.simple else "witness"
        with tr.span("suspension.pointwise_positive", item):
            pointwise_positive(diagram)
    return report, diagram, inter


def diagram_layers(tr: Tracer, seed: int, metrics: dict, counters: dict) -> list:
    sample = RandomDiagrams(seed).generate()[:DIAGRAM_SAMPLE]
    pairs, bits, simple, certified, payloads = 0, [], 0, 0, []
    for i, (images, a, b) in enumerate(sample):
        report, diagram, inter = _criterion_pipeline(tr, f"diagram-{i}", images, a, b, None)
        d = len(images)
        pairs += d * (2 * d - 1) if inter.simple else witness_position(d, inter.witness)
        bits.append(_denominator_bits(diagram))
        simple += inter.simple
        certified += report.verdict.value in POSITIVE
        payloads.append(_check_payload(report, diagram))

    ladder = PowerLadder(seed)
    items = ladder.generate()
    for d in ladder.sizes:
        chosen = [item for item in items if item[1] == d][:LADDER_SAMPLE]
        for k, (images, _, s) in enumerate(chosen):
            a, b = mahler_curve(d, s)
            _, diagram, _ = _criterion_pipeline(tr, f"ladder-d{d}-{k}", images, a, b, f"d{d}")
            counters[f"suspension.denominator_bits.d{d}"] = max(
                counters.get(f"suspension.denominator_bits.d{d}", 0), _denominator_bits(diagram))
        metrics[f"suspension.build_suspension.us.d{d}"] = (
            _median_us(tr.by_name("suspension.build_suspension", f"d{d}")), "us")

    diagram_items = {f"diagram-{i}" for i in range(len(sample))}
    own = {}
    for sp in tr.spans:
        if sp.item in diagram_items and sp.name != "item":
            own.setdefault(sp.item, {})[sp.name] = sp.seconds
    self_us = [
        (t["criterion.convexity_criterion"] - t["suspension.build_suspension"]
         - t["suspension.self_intersects"] - t["suspension.pointwise_positive"]) * 1e6
        for t in own.values()
    ]

    def sample_us(name: str, tag: str | None = None) -> tuple[float, str]:
        return _median_us([sp for sp in tr.by_name(name, tag) if sp.item in diagram_items]), "us"

    metrics.update({
        "perm.omega.us": sample_us("perm.omega"),
        "perm.validate_permutation.us": sample_us("perm.validate_permutation"),
        "perm.is_irreducible.us": sample_us("perm.is_irreducible"),
        "suspension.return_time_profile.us": sample_us("suspension.return_time_profile"),
        "suspension.self_intersects.us.simple": sample_us("suspension.self_intersects", "simple"),
        "suspension.self_intersects.us.witness": sample_us("suspension.self_intersects", "witness"),
        "criterion.convexity_criterion.us": sample_us("criterion.convexity_criterion"),
        "criterion.self_us": (statistics.median(self_us), "us"),
    })
    counters.update({
        "suspension.pairs_examined": pairs,
        "suspension.denominator_bits": statistics.median_low(bits),
        "suspension.simple_share": simple / len(sample),
        "criterion.certified_share": certified / len(sample),
    })
    return payloads


def _check_payload(report, diagram) -> dict:
    """The dictionary ``ietkit check`` serializes, built from public results."""
    return {
        "perm": list(diagram.sigma.images),
        "monotonicity": report.monotonicity,
        "simple": report.simple,
        "positivity": report.positivity,
        "verdict": report.verdict,
        "chains_exchanged": report.chains_exchanged,
        "connection_check_advised": report.connection_check_advised,
        "witness": witness_payload(report.witness),
        "slopes": list(diagram.slopes),
        "return_profile": list(diagram.return_profile),
    }


def curve_layers(tr: Tracer, cli_inputs: dict, root: Path, metrics: dict) -> None:
    _, curve, s_from, s_to = cli_inputs["scan"]
    spec = curve_spec(json.loads((root / curve).read_text())["coeffs"])
    step = (s_to - s_from) / (CURVE_SAMPLE - 1)
    grid = [Fraction(s_from + k * step) for k in range(CURVE_SAMPLE)]
    for k, s in enumerate(grid):
        with tr.span("criterion.curve_point", f"curve-{k}"):
            curve_point(spec, s)
    metrics["criterion.curve_point.us"] = (_median_us(tr.by_name("criterion.curve_point")), "us")


def orbit_layers(tr: Tracer, seed: int, metrics: dict, counters: dict) -> None:
    inputs = Orbits(seed).generate()
    images2, a2, x2 = inputs["d2"]
    images20, a20, x20 = inputs["d20"]
    n = ORBIT_STEPS
    max_m = n // 19
    images_s, a_s = inputs["small"]
    steps = {"coding": 0, "frequencies": 0, "trend": 0, "hits": 0}
    for r in range(ORBIT_REPEATS):
        with tr.span("iet.build_iet", f"orbit-{r}"):
            t20 = build_iet(validate_permutation(images20), a20)
        t2 = build_iet(validate_permutation(images2), a2)
        with tr.span("iet.orbit_coding", f"orbit-{r}"):
            steps["coding"] += len(orbit_coding(t20, x20, n))
        with tr.span("iet.find_connections", f"orbit-{r}"):
            steps["hits"] += len(find_connections(t20, max_m))
        steps["hits"] += len(find_connections(build_iet(validate_permutation(images_s), a_s), 200))
        for tag, t, x0 in (("d2", t2, x2), ("d20", t20, x20)):
            with tr.span("diagnostics.visit_frequencies", f"orbit-{r}", tag):
                steps["frequencies"] += visit_frequencies(t, x0, n).n_iterations
        with tr.span("diagnostics.discrepancy_trend", f"orbit-{r}"):
            steps["trend"] += discrepancy_trend(t20, x20, [n // 4, n // 2, n])[-1][0]

    def rate(name: str, work: int, tag: str | None = None) -> tuple[float, str]:
        return work / statistics.median(sp.seconds for sp in tr.by_name(name, tag)), "1/s"

    metrics.update({
        "iet.build_iet.us": (_median_us(tr.by_name("iet.build_iet")), "us"),
        "iet.orbit_coding.steps_per_s": rate("iet.orbit_coding", n),
        "iet.find_connections.steps_per_s": rate("iet.find_connections", 19 * max_m),
        "diagnostics.visit_frequencies.steps_per_s.d2": rate("diagnostics.visit_frequencies", n, "d2"),
        "diagnostics.visit_frequencies.steps_per_s.d20": rate("diagnostics.visit_frequencies", n, "d20"),
        "diagnostics.discrepancy_trend.steps_per_s": rate("diagnostics.discrepancy_trend", n),
    })
    counters.update({
        "iet.orbit_coding.steps": steps["coding"],
        "iet.find_connections.hits": steps["hits"],
        "diagnostics.visit_frequencies.steps": steps["frequencies"],
        "diagnostics.discrepancy_trend.steps": steps["trend"],
    })


def import_seconds(root: Path, module: str) -> float:
    """Time of ``import module`` in a fresh interpreter, measured inside it."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    return float(out)


@contextlib.contextmanager
def _pool_census(seen: dict):
    """Record the workers and submitted chunks of every process pool opened."""
    init, submit = ProcessPoolExecutor.__init__, ProcessPoolExecutor.submit

    def counting_init(self, max_workers=None, *args, **kwargs):
        seen["workers"] = max(seen["workers"], max_workers or os.cpu_count() or 1)
        init(self, max_workers, *args, **kwargs)

    def counting_submit(self, fn, /, *args, **kwargs):
        seen["chunks"] += 1
        return submit(self, fn, *args, **kwargs)

    ProcessPoolExecutor.__init__, ProcessPoolExecutor.submit = counting_init, counting_submit
    try:
        yield
    finally:
        ProcessPoolExecutor.__init__, ProcessPoolExecutor.submit = init, submit


def cli_layers(tr: Tracer, seed: int, root: Path, work: Path, payloads: list,
               metrics: dict, counters: dict) -> dict:
    import ietkit.cli as cli_module

    for module in ("ietkit.cli", "ietkit"):
        import_seconds(root, module)  # compiles bytecode on a fresh checkout
    imports = {"ietkit.cli": [], "ietkit": []}
    for _ in range(IMPORT_REPEATS):
        for module in imports:
            imports[module].append(import_seconds(root, module))

    for k, payload in enumerate(payloads):
        with tr.span("cli.canonical_json", f"diagram-{k}"):
            cli_module.canonical_json(payload)

    cli = Cli(seed, root, work)
    inputs = cli.generate()
    overheads = []
    for k in range(cli.oneshot_items):
        for kind in ("omega", "check", "connections"):
            item = f"cli-{kind}-{k}"
            with tr.span("item", item):
                with tr.span("cli.main", item) as main_span, contextlib.redirect_stdout(io.StringIO()):
                    code = cli_module.main(cli.argv(inputs, kind, k))
                library = _cli_library_calls(tr, item, inputs, kind, k, cli)
            if code == 0:
                overheads.append(main_span.seconds - library)

    seen = {"workers": 0, "chunks": 0}
    argv = cli.argv(inputs, "scan-j2", 0)
    argv[argv.index("--samples") + 1] = str(SCAN_SAMPLES)
    with tr.span("cli.main", "scan"), contextlib.redirect_stdout(io.StringIO()), _pool_census(seen):
        cli_module.main(argv)

    metrics.update({
        "cli.import_ms": (statistics.median(imports["ietkit.cli"]) * 1e3, "ms"),
        "cli.import_ms.package": (statistics.median(imports["ietkit"]) * 1e3, "ms"),
        "cli.canonical_json.us": (_median_us(tr.by_name("cli.canonical_json")), "us"),
        "cli.main.overhead_ms": (statistics.median(overheads) * 1e3, "ms"),
    })
    # Without a pool the scan runs in the CLI process itself: one worker, one chunk.
    counters["cli.scan.workers"] = seen["workers"] or 1
    counters["cli.scan.chunks"] = seen["chunks"] or 1
    return {"import_repeats": IMPORT_REPEATS, "scan_jobs": cli.jobs}


def _cli_library_calls(tr: Tracer, item: str, inputs: dict, kind: str, k: int, cli: Cli) -> float:
    """The library calls ``main`` makes for one command, each in its own span."""
    spans = []
    if kind == "omega":
        with tr.span("perm.validate_permutation", item) as sp:
            sigma = validate_permutation(inputs["omega"][k])
        spans.append(sp)
        with tr.span("perm.omega", item) as sp:
            omega(sigma)
        spans.append(sp)
    elif kind == "check":
        images, a, b = inputs["check"][k]
        with tr.span("perm.validate_permutation", item) as sp:
            sigma = validate_permutation(images)
        spans.append(sp)
        with tr.span("criterion.convexity_criterion", item) as sp:
            convexity_criterion(sigma, a, b)
        spans.append(sp)
        with tr.span("suspension.build_suspension", item) as sp:
            build_suspension(sigma, a, b)
        spans.append(sp)
    else:
        images, a = inputs["connections"][k]
        with tr.span("perm.validate_permutation", item) as sp:
            sigma = validate_permutation(images)
        spans.append(sp)
        with tr.span("iet.build_iet", item) as sp:
            t = build_iet(sigma, a)
        spans.append(sp)
        with tr.span("iet.find_connections", item) as sp:
            find_connections(t, cli.connections_max_m)
        spans.append(sp)
    return sum(sp.seconds for sp in spans)


def layer_pass(tr: Tracer, seed: int, root: Path, work: Path) -> tuple[dict, dict, dict]:
    """Run every layer once on its fixed sample; return (metrics, counters, facts)."""
    metrics: dict = {}
    counters: dict = {}
    payloads = diagram_layers(tr, seed, metrics, counters)
    cli = Cli(seed, root, work)
    curve_layers(tr, cli.generate(), root, metrics)
    orbit_layers(tr, seed, metrics, counters)
    facts = cli_layers(tr, seed, root, work, payloads, metrics, counters)
    return metrics, counters, facts
