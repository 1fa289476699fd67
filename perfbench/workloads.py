"""The four benchmark workloads: seeded inputs, one closed-loop round, checks.

Every workload is a closed loop with one client: the next call starts when the
previous one has returned.  The seed picks the inputs; the library only ever
receives the generated values.  ``BENCHMARK.json`` says why each workload
exists.

Correctness is checked after the timed loop, on what the loop returned:

* every call of one input must return the same value every time;
* outputs are compared with the independent checkers in ``tests/oracles.py``
  (on a fixed sample where the checker is too slow for every call), with
  slope classes and verdicts recomputed here, and with cross-checks between
  two library paths that must agree;
* CLI stdout is compared byte for byte with canonical JSON built here.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from array import array
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, NamedTuple

from ietkit import (
    build_iet,
    convexity_criterion,
    find_connections,
    mahler_curve,
    orbit_coding,
    validate_permutation,
    visit_frequencies,
)

F = Fraction

POSITIVE = {"PositivePairByLemma", "PositivePairByMirroredLemma"}


# ---------------------------------------------------------------------------
# input generation, independent of the library


def irreducible_images(rng: random.Random, d: int) -> list[int]:
    """A random permutation of 1..d with no invariant proper prefix."""
    while True:
        images = list(range(1, d + 1))
        rng.shuffle(images)
        top = 0
        for k, v in enumerate(images[:-1], start=1):
            top = max(top, v)
            if top == k:
                break
        else:
            return images


def random_diagram(rng: random.Random) -> tuple[list[int], list[Fraction], list[Fraction]]:
    d = rng.randint(2, 8)
    images = irreducible_images(rng, d)
    a = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(d)]
    b = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)]
    return images, a, b


def slope_class(a, b) -> str:
    slopes = [F(y) / F(x) for x, y in zip(a, b)]
    pairs = list(zip(slopes, slopes[1:]))
    if any(x == y for x, y in pairs):
        return "HasTies"
    if all(x > y for x, y in pairs):
        return "StrictlyDecreasing"
    if all(x < y for x, y in pairs):
        return "StrictlyIncreasing"
    return "NonMonotone"


VERDICT_OF_CLASS = {
    "StrictlyDecreasing": "PositivePairByLemma",
    "StrictlyIncreasing": "PositivePairByMirroredLemma",
    "HasTies": "DegenerateTies",
    "NonMonotone": "InconclusiveNonMonotone",
}


def sign_class(profile) -> str:
    if any(v == 0 for v in profile):
        return "HasZero"
    if all(v > 0 for v in profile):
        return "AllPositive"
    if all(v < 0 for v in profile):
        return "AllNegative"
    return "Mixed"


def witness_position(d: int, witness) -> int:
    """1-based rank of the witness pair in the top-then-bottom pair order."""
    u = (0 if witness.chain_a == "top" else d) + witness.index_a - 1
    v = (0 if witness.chain_b == "top" else d) + witness.index_b - 1
    n = 2 * d
    return sum(n - 1 - k for k in range(u)) + (v - u - 1) + 1


def fraction_orbit(images, a, x0, n) -> list[int]:
    """Interval indices of n orbit points, stepped in plain Fractions."""
    d = len(images)
    rights, acc = [], F(0)
    for v in a:
        acc += v
        rights.append(acc)
    inverse = [0] * d
    for i, s in enumerate(images):
        inverse[s - 1] = i + 1
    img_rights, acc = [], F(0)
    for j in range(d):
        acc += a[inverse[j] - 1]
        img_rights.append(acc)
    codes, x = [], F(x0)
    for _ in range(n):
        j = next(k for k in range(d) if x < rights[k])
        codes.append(j + 1)
        x = x - rights[j] + img_rights[images[j] - 1]
    return codes


# ---------------------------------------------------------------------------
# canonical JSON, written from the CLI's documented format


def canonical(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return f'"{value.numerator}/{value.denominator}"'
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{canonical(value[k])}" for k in sorted(value)) + "}"
    raise TypeError(type(value).__name__)


def witness_payload(witness) -> dict | None:
    if witness is None:
        return None
    rel = witness.relation
    if rel.classification.value == "CollinearOverlap":
        locus: Any = [list(rel.locus[0]), list(rel.locus[1])]
    elif rel.locus is not None:
        locus = list(rel.locus)
    else:
        locus = None
    return {
        "chain_a": witness.chain_a,
        "index_a": witness.index_a,
        "chain_b": witness.chain_b,
        "index_b": witness.index_b,
        "classification": rel.classification.value,
        "locus": locus,
    }


def fraction_text(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


# ---------------------------------------------------------------------------
# the closed loop's unit of work


class Op:
    """One call in a round: ``fn(*args)``; ``kind`` groups calls for metrics."""

    __slots__ = ("kind", "item", "fn", "args", "units", "reduce")

    def __init__(self, kind: str, item: Any, fn: Callable, args: tuple,
                 units: Callable[[Any], int], reduce: Callable[[Any], Any] = lambda r: r):
        self.kind = kind
        self.item = item
        self.fn = fn
        self.args = args
        self.units = units
        self.reduce = reduce


class Log:
    """What the closed loop saw: per call kind, seconds and work units.

    Only the first result of each input is kept, after ``Op.reduce``; every
    later result is compared with it at once, so memory does not grow with
    the number of calls.  ``refs`` holds each call's time in reference units (see
    ``run.py``); ``settle`` fills it once the reference loop has been timed
    after the call.  ``peak_rss_mib`` is set by the closed loop after its
    first ``min_ops`` calls.
    """

    def __init__(self) -> None:
        self.peak_rss_mib = 0.0
        self.kinds: list[str] = []
        self.seconds = array("d")
        self.refs = array("d")
        self.units = array("q")
        self.firsts: dict[Any, Any] = {}
        self.calls: Counter = Counter()
        self.changed: list[Any] = []
        self.errors: list[str] = []

    def record(self, op: Op, result: Any, seconds: float) -> None:
        units, reduced = op.units(result), op.reduce(result)
        self.kinds.append(op.kind)
        self.seconds.append(seconds)
        self.units.append(units)
        self.calls[op.item] += 1
        first = self.firsts.setdefault(op.item, reduced)
        if reduced != first:
            self.changed.append(op.item)

    def fail(self, op: Op, exc: BaseException) -> None:
        self.errors.append(f"{op.kind} {op.item}: {type(exc).__name__}: {exc}")

    def settle(self, reference_s: float) -> None:
        """Express the calls recorded since the last settle in reference units."""
        self.refs.extend(s / reference_s for s in self.seconds[len(self.refs):])

    def times(self, *kinds: str, ref: bool = False) -> list[float]:
        values = self.refs if ref else self.seconds
        return [s for k, s in zip(self.kinds, values) if k in kinds]

    def work(self, *kinds: str) -> int:
        return sum(u for k, u in zip(self.kinds, self.units) if k in kinds)

    def rate(self, *kinds: str, ref: bool = False) -> float:
        """Work units per second, or per reference unit, of time spent in these calls.

        0 when no such call succeeded; the failures are reported by the checks.
        """
        spent = sum(self.times(*kinds, ref=ref))
        return self.work(*kinds) / spent if spent else 0.0


class Checks:
    """Counts checked operations and failures, keeping the first few messages.

    A wrong first result of an input makes every call on that input wrong (the
    later calls are compared with the first), so a check on an item counts
    that item's calls as failed, once however many of its checks fail.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failed_items: dict[Any, int] = {}
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str, item: Any = None, calls: int = 1) -> None:
        if ok:
            return
        if item is None:
            self.failed += calls
        else:
            self.failed_items[item] = calls
        if len(self.messages) < 20:
            self.messages.append(message)

    @property
    def failures(self) -> int:
        return self.failed + sum(self.failed_items.values())

    def attempt(self, what: str, fn: Callable, *args) -> Any:
        """One more library call made only to check; an exception counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # reported as a failed operation, like in the loop
            self.expect(False, f"{what}: {type(exc).__name__}: {exc}")
            return None

    def repeat_consistency(self, log: Log) -> None:
        """Every call on one input returned what the first call returned."""
        for item in log.changed:
            self.expect(False, f"result of {item} changed between calls")


# ---------------------------------------------------------------------------
# workloads


def criterion_call(images, a, b):
    return convexity_criterion(validate_permutation(images), a, b)


def ladder_call(images, d, s):
    a, b = mahler_curve(d, s)
    return convexity_criterion(validate_permutation(images), a, b)


class Outcome(NamedTuple):
    """What a criterion report says, without the witness's locus."""

    monotonicity: str
    simple: bool
    positivity: str
    verdict: str
    chains_exchanged: bool
    witness: tuple | None


def outcome(report) -> Outcome:
    w = report.witness
    return Outcome(report.monotonicity.value, report.simple, report.positivity.value,
                   report.verdict.value, report.chains_exchanged,
                   None if w is None else (w.chain_a, w.index_a, w.chain_b, w.index_b))


def check_report(checks: Checks, name: str, report: Outcome, images, a, b, *, oracle: bool,
                 oracles, item: Any, calls: int) -> None:
    """A criterion report against slopes recomputed here and, if asked, the oracles."""

    def expect(ok: bool, message: str) -> None:
        checks.expect(ok, message, item, calls)

    cls = slope_class(a, b)
    expect(report.monotonicity == cls, f"{name}: monotonicity {report.monotonicity} != {cls}")
    if cls in ("StrictlyDecreasing", "StrictlyIncreasing"):
        expect(report.simple, f"{name}: monotone slopes but not simple")
    expect(report.verdict == VERDICT_OF_CLASS[cls], f"{name}: verdict {report.verdict}")
    expect(report.chains_exchanged == (cls == "StrictlyIncreasing"), f"{name}: chains_exchanged")
    expect(report.simple == (report.witness is None), f"{name}: witness without failure")
    if not oracle:
        return
    simple, offenders = oracles.oracle_simple(images, a, b)
    expect(report.simple == simple, f"{name}: simple {report.simple} but oracle says {simple}")
    if offenders and report.witness is not None:
        first = offenders[0][:4]
        expect(report.witness == first,
                      f"{name}: witness pair differs from the oracle's first offender {first}")
    profile = oracles.oracle_profile(images, b)
    expect(report.positivity == sign_class(profile), f"{name}: positivity {report.positivity}")


class RandomDiagrams:
    pool_size = 4096
    oracle_sample = 200
    min_ops = 200

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def generate(self) -> list:
        rng = random.Random(f"{self.seed}/random-diagrams")
        return [random_diagram(rng) for _ in range(self.pool_size)]

    def round_ops(self, inputs) -> list[Op]:
        return [Op("criterion", i, criterion_call, item, lambda r: 1, outcome)
                for i, item in enumerate(inputs)]

    def verify(self, inputs, log: Log, checks: Checks, oracles) -> None:
        checks.repeat_consistency(log)
        for i in range(self.oracle_sample):
            if i not in log.firsts:  # only with a very short run, or a failed call
                report = checks.attempt(f"diagram {i}", criterion_call, *inputs[i])
                if report is not None:
                    log.firsts[i] = outcome(report)
        for i, report in log.firsts.items():
            check_report(checks, f"diagram {i}", report, *inputs[i], oracle=i < self.oracle_sample,
                         oracles=oracles, item=i, calls=log.calls[i] or 1)

    def metrics(self, log: Log) -> tuple[dict, dict]:
        times = log.times("criterion")
        named = {
            "diagrams_per_s": (log.rate("criterion"), "1/s"),
            "call_us_p50": (percentile(times, 50) * 1e6, "us"),
            "call_us_p99": (percentile(times, 99) * 1e6, "us"),
        }
        return named, end_to_end(log, lambda ref: log.rate("criterion", ref=ref), ("criterion",))


class PowerLadder:
    sizes = (8, 32, 128)
    per_size = 16
    min_ops = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def generate(self) -> list:
        """Round-robin over d: (images, d, s) with s = p/11, 12 <= p <= 21.

        The bit length of s^d sets the cost of a call, so every seed uses the
        same numerators, in its own order and with its own sigma.
        """
        rng = random.Random(f"{self.seed}/power-ladder")
        numerators = {d: [12 + k % 10 for k in range(self.per_size)] for d in self.sizes}
        for d in self.sizes:
            rng.shuffle(numerators[d])
        return [(irreducible_images(rng, d), d, F(numerators[d][k], 11))
                for k in range(self.per_size) for d in self.sizes]

    def round_ops(self, inputs) -> list[Op]:
        return [Op(f"d{item[1]}", i, ladder_call, item, lambda r: 1, outcome)
                for i, item in enumerate(inputs)]

    def verify(self, inputs, log: Log, checks: Checks, oracles) -> None:
        checks.repeat_consistency(log)
        oracle_left = {8: self.per_size, 32: 4, 128: 0}
        for i, report in log.firsts.items():
            images, d, s = inputs[i]
            a, b = mahler_curve(d, s)
            check_report(checks, f"ladder {i} (d={d}, s={s})", report, images, a, b,
                         oracle=oracle_left[d] > 0, oracles=oracles, item=i, calls=log.calls[i])
            oracle_left[d] -= 1
            checks.expect(report.verdict == "PositivePairByMirroredLemma", f"ladder {i}: not certified",
                          i, log.calls[i])

    def metrics(self, log: Log) -> tuple[dict, dict]:
        kinds = tuple(f"d{d}" for d in self.sizes)
        times = log.times(*kinds)
        named = {
            "diagrams_per_s": (log.rate(*kinds), "1/s"),
            "call_us_p50": (percentile(times, 50) * 1e6, "us"),
            "call_us_p90": (percentile(times, 90) * 1e6, "us"),
        }
        for kind in kinds:
            named[f"call_us_p50.{kind}"] = (percentile(log.times(kind), 50) * 1e6, "us")
        return named, end_to_end(log, lambda ref: log.rate(*kinds, ref=ref), kinds)


def frequencies_call(images, a, x0, n):
    return visit_frequencies(build_iet(validate_permutation(images), a), x0, n)


def coding_call(images, a, x0, n):
    return orbit_coding(build_iet(validate_permutation(images), a), x0, n)


def connections_call(images, a, max_m):
    return find_connections(build_iet(validate_permutation(images), a), max_m)


class Orbits:
    steps = 200_000
    min_ops = 4
    # find_connections at or below this m is compared with the Fraction oracle.
    oracle_m = 60

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def generate(self) -> dict:
        """A near-golden d=2 rotation and a d=20 exchange with large denominators.

        The d=20 lengths are (10^6..2*10^6)/q for two primes q near 10^6, so the
        scaled integer orbit does not close up within a run.
        """
        rng = random.Random(f"{self.seed}/orbits")
        a2 = [F(1), F(1597, 987)]
        images20 = irreducible_images(rng, 20)
        a20 = [F(rng.randint(10**6, 2 * 10**6), rng.choice((999_983, 1_000_003))) for _ in range(20)]
        small_d = rng.randint(4, 8)
        return {
            "d2": ([2, 1], a2, sum(a2) * F(rng.randrange(1000), 1000)),
            "d20": (images20, a20, sum(a20) * F(rng.randrange(1000), 1000)),
            "small": (irreducible_images(rng, small_d),
                      [F(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(small_d)]),
        }

    def round_ops(self, inputs) -> list[Op]:
        n = self.steps
        images2, a2, x2 = inputs["d2"]
        images20, a20, x20 = inputs["d20"]
        max_m = n // 19
        return [
            Op("frequencies-d2", "frequencies-d2", frequencies_call, (images2, a2, x2, n),
               lambda r: r.n_iterations),
            Op("frequencies-d20", "frequencies-d20", frequencies_call, (images20, a20, x20, n),
               lambda r: r.n_iterations),
            Op("coding-d20", "coding-d20", coding_call, (images20, a20, x20, n), len),
            Op("connections-d20", "connections-d20", connections_call, (images20, a20, max_m),
               lambda r: 19 * max_m),
        ]

    def verify(self, inputs, log: Log, checks: Checks, oracles) -> None:
        checks.repeat_consistency(log)
        n = self.steps
        images2, a2, x2 = inputs["d2"]
        images20, a20, x20 = inputs["d20"]
        total20 = sum(a20)

        # A call that failed in the loop has no first result; it is counted already.
        codes = log.firsts.get("coding-d20")
        stats = log.firsts.get("frequencies-d20")
        prefix = 3000
        if codes is not None:
            checks.expect(codes[:prefix] == fraction_orbit(images20, a20, x20, prefix),
                          "orbit_coding d=20 differs from the Fraction orbit",
                          "coding-d20", log.calls["coding-d20"])
        if codes is not None and stats is not None:
            counts = Counter(codes)
            checks.expect(list(stats.frequencies) == [F(counts[j], n) for j in range(1, 21)],
                          "visit_frequencies d=20 disagrees with orbit_coding counts",
                          "frequencies-d20", log.calls["frequencies-d20"])
        if stats is not None:
            checks.expect(list(stats.expected) == [v / total20 for v in a20], "expected frequencies d=20",
                          "frequencies-d20", log.calls["frequencies-d20"])

        short = checks.attempt("visit_frequencies d=2", frequencies_call, images2, a2, x2, prefix)
        if short is not None:
            counts2 = Counter(fraction_orbit(images2, a2, x2, prefix))
            checks.expect(list(short.frequencies) == [F(counts2[j], prefix) for j in (1, 2)],
                          "visit_frequencies d=2 differs from the Fraction orbit")

        if "connections-d20" in log.firsts:
            hits = [(c.m, c.i, c.j) for c in log.firsts["connections-d20"] if c.m <= self.oracle_m]
            checks.expect(hits == oracles.oracle_connections(images20, a20, self.oracle_m),
                          "find_connections d=20 differs from oracle_connections",
                          "connections-d20", log.calls["connections-d20"])
        images_s, a_s = inputs["small"]
        small = checks.attempt("find_connections small", connections_call, images_s, a_s, 200)
        if small is not None:
            checks.expect([(c.m, c.i, c.j) for c in small] == oracles.oracle_connections(images_s, a_s, 200),
                          "find_connections on the small-denominator exchange differs from oracle")

    def metrics(self, log: Log) -> tuple[dict, dict]:
        kinds = ("frequencies-d2", "frequencies-d20", "coding-d20", "connections-d20")
        named = {"orbit_steps_per_s": (log.rate(*kinds), "1/s")}
        for kind in kinds:
            named[f"steps_per_s.{kind}"] = (log.rate(kind), "1/s")
        return named, end_to_end(log, lambda ref: log.rate(*kinds, ref=ref), kinds)


class Cli:
    oneshot_items = 4
    scan_samples = 500
    connections_max_m = 300

    def __init__(self, seed: int, root: Path, work: Path) -> None:
        self.seed = seed
        self.root = root
        self.work = work
        # cmd_scan forks --jobs workers without any cap (a large --jobs forks that
        # many processes), so the benchmark never asks for more than two.
        self.jobs = min(2, os.cpu_count() or 1)
        # The CPUs this process may use before ``run.py`` pins it to one.
        self.cpus = os.sched_getaffinity(0)
        self.min_ops = 4 * self.oneshot_items

    def generate(self) -> dict:
        rng = random.Random(f"{self.seed}/cli")
        omega_items = [irreducible_images(rng, rng.randint(2, 8)) for _ in range(self.oneshot_items)]
        check_items = [random_diagram(rng) for _ in range(self.oneshot_items)]
        conn_items = []
        for _ in range(self.oneshot_items):
            d = rng.randint(2, 6)
            conn_items.append((irreducible_images(rng, d),
                               [F(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(d)]))
        # a_i(s) = c_i s^i: the slopes are i/s for every s, so every sample certifies.
        coeffs = []
        for i in range(1, 5):
            q = rng.randint(2, 9)
            coeffs.append([0] * i + [fraction_text(F(rng.randint(q + 1, 2 * q), q))])
        curve = self.work / f"curve-{self.seed}.json"
        curve.parent.mkdir(parents=True, exist_ok=True)
        curve.write_text(json.dumps({"d": 4, "coeffs": coeffs}))
        s_from = 0.5 + rng.random() / 4
        scan = (irreducible_images(rng, 4), str(curve.relative_to(self.root)), s_from,
                s_from + 3 + rng.random() / 2)
        return {"omega": omega_items, "check": check_items, "connections": conn_items, "scan": scan}

    def argv(self, inputs, kind: str, k: int) -> list[str]:
        perm = lambda images: ",".join(map(str, images))  # noqa: E731
        vector = lambda values: ",".join(fraction_text(v) for v in values)  # noqa: E731
        if kind == "omega":
            return ["omega", "--perm", perm(inputs["omega"][k])]
        if kind == "check":
            images, a, b = inputs["check"][k]
            return ["check", "--perm", perm(images), f"--lengths={vector(a)}", f"--heights={vector(b)}"]
        if kind == "connections":
            images, a = inputs["connections"][k]
            return ["connections", "--perm", perm(images), f"--lengths={vector(a)}",
                    "--max-m", str(self.connections_max_m)]
        images, curve, s_from, s_to = inputs["scan"]
        jobs = 1 if kind == "scan-j1" else self.jobs
        return ["scan", "--perm", perm(images), "--curve", curve, "--from", repr(s_from),
                "--to", repr(s_to), "--samples", str(self.scan_samples), "--jobs", str(jobs)]

    def run_cli(self, argv: list[str], every_cpu: bool = False) -> tuple[int, bytes, bytes]:
        """``python -m ietkit argv``; on the benchmark's CPU unless ``every_cpu``."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.root / "src"), env.get("PYTHONPATH")]))
        unpin = (lambda: os.sched_setaffinity(0, self.cpus)) if every_cpu else None
        proc = subprocess.run([sys.executable, "-m", "ietkit", *argv], cwd=self.root, env=env,
                              capture_output=True, timeout=120, preexec_fn=unpin)
        return proc.returncode, proc.stdout, proc.stderr

    def round_ops(self, inputs) -> list[Op]:
        def scan_units(result):
            return json.loads(result[1])["samples"] if result[0] == 0 else 0

        ops = []
        for k in range(self.oneshot_items):
            for kind in ("omega", "check", "connections"):
                ops.append(Op("oneshot", (kind, k), self.run_cli, (self.argv(inputs, kind, k),), lambda r: 0))
            scan_kind = "scan-j1" if k % 2 == 0 else "scan-j2"
            ops.append(Op(scan_kind, scan_kind, self.run_cli,
                          (self.argv(inputs, scan_kind, 0), scan_kind == "scan-j2"), scan_units))
        return ops

    def expected(self, inputs, item, oracles) -> bytes:
        if item in ("scan-j1", "scan-j2"):
            payload: Any = {"samples": self.scan_samples, "exceptional": [],
                            "fractions": {"PositivePairByMirroredLemma": F(1)}}
        else:
            kind, k = item
            if kind == "omega":
                payload = oracles.oracle_omega(inputs["omega"][k])
            elif kind == "connections":
                images, a = inputs["connections"][k]
                hits = oracles.oracle_connections(images, a, self.connections_max_m)
                payload = {"max_m": self.connections_max_m,
                           "connections": [{"m": m, "i": i, "j": j} for m, i, j in hits]}
            else:
                images, a, b = inputs["check"][k]
                payload = self.check_payload(images, a, b, oracles)
        return (canonical(payload) + "\n").encode()

    @staticmethod
    def check_payload(images, a, b, oracles) -> dict:
        """The ``check`` output: oracle simplicity and profile, slopes computed here.

        Only the witness's classification and locus come from the library.
        """
        cls = slope_class(a, b)
        simple = oracles.oracle_simple(images, a, b)[0]
        profile = oracles.oracle_profile(images, b)
        verdict = VERDICT_OF_CLASS[cls]
        witness = None if simple else convexity_criterion(validate_permutation(images), a, b).witness
        return {
            "perm": list(images),
            "monotonicity": cls,
            "simple": simple,
            "positivity": sign_class(profile),
            "verdict": verdict,
            "chains_exchanged": cls == "StrictlyIncreasing",
            "connection_check_advised": verdict in POSITIVE,
            "witness": witness_payload(witness),
            "slopes": [y / x for x, y in zip(a, b)],
            "return_profile": profile,
        }

    def verify(self, inputs, log: Log, checks: Checks, oracles) -> None:
        checks.repeat_consistency(log)
        for item, (code, out, err) in log.firsts.items():
            checks.expect(code == 0 and out == self.expected(inputs, item, oracles),
                          f"cli {item}: exit {code}, stdout {out[:120]!r}, stderr {err[-200:]!r}",
                          item, log.calls[item])

    def metrics(self, log: Log) -> tuple[dict, dict]:
        oneshot = log.times("oneshot")

        def scan_rate(ref: bool) -> float:
            # Samples per unit of time for equal numbers of samples on each
            # path, however many scans of each kind fitted in the run.
            rates = (log.rate("scan-j1", ref=ref), log.rate("scan-j2", ref=ref))
            return 2 / sum(1 / r for r in rates) if all(rates) else 0.0

        named = {
            "cli_oneshot_ms_p50": (percentile(oneshot, 50) * 1e3, "ms"),
            "cli_oneshot_ms_p90": (percentile(oneshot, 90) * 1e3, "ms"),
            "scan_samples_per_s_j1": (log.rate("scan-j1"), "1/s"),
            "scan_samples_per_s_j2": (log.rate("scan-j2"), "1/s"),
            "scan_samples_per_s_both": (scan_rate(False), "1/s"),
        }
        return named, end_to_end(log, scan_rate, ("oneshot",))


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile by linear interpolation between closest ranks (0 if empty)."""
    ordered = sorted(values)
    if len(ordered) <= 1:
        return ordered[0] if ordered else 0.0
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(log: Log, rate: Callable[[bool], float], latency_kinds: tuple[str, ...]) -> dict:
    """The metrics every workload reports under the same names.

    ``rate(ref)`` is the workload's throughput per second, or per reference
    unit when ``ref`` is true; latency is over the calls of ``latency_kinds``.
    """
    seconds = log.times(*latency_kinds)
    refs = log.times(*latency_kinds, ref=True)
    return {
        "throughput_per_s": rate(False),
        "throughput_per_ref": rate(True),
        "latency_ms_p50": percentile(seconds, 50) * 1e3,
        "latency_ms_p90": percentile(seconds, 90) * 1e3,
        "latency_ref_p50": percentile(refs, 50),
        "latency_ref_p90": percentile(refs, 90),
        "latency_samples": len(seconds),
    }


def make(name: str, seed: int, root: Path, work: Path):
    if name == "cli":
        return Cli(seed, root, work)
    return {"random-diagrams": RandomDiagrams, "power-ladder": PowerLadder, "orbits": Orbits}[name](seed)

