"""Run-to-run spread, drift between batches, and the held-out seed check.

From the root of a checkout::

    # ten runs per workload, seeds 1..10; spread = (q3 - q1) / median per metric
    python3 perfbench/compare.py spread --runs 10 --out .bench_build/perfbench/batch-a.json

    # medians of two saved batches: is the second worse than the first by more than the bound?
    python3 perfbench/compare.py drift .bench_build/perfbench/batch-a.json .bench_build/perfbench/batch-b.json

    # runs at the default seed against runs at a held-out seed
    python3 perfbench/compare.py heldout --heldout-seed 1009 --runs 5

Bounds and directions come from ``BENCHMARK.json``.  A spread is flagged when
it exceeds the metric's bound; the target is a third of the bound.  The exit
code is 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import DEFAULT_SEED, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}


def run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} reported incorrect output:\n{proc.stdout[-3000:]}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def batch(workloads, seeds, seconds) -> dict:
    out: dict = {w: {name: [] for name in METRICS} for w in workloads}
    for seed in seeds:
        for w in workloads:
            values = run(w, seed, seconds)
            for name in METRICS:
                out[w][name].append(values[name])
            print(f"  {w} seed {seed}: " + ", ".join(f"{k}={values[k]:.6g}" for k in METRICS), flush=True)
    return out


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_share(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base`` (negative: better)."""
    return (other - base) / base if better == "lower" else (base - other) / base


def report_spread(data: dict) -> bool:
    ok = True
    for w, metrics in data.items():
        for name, values in metrics.items():
            bound = METRICS[name]["bound"]
            s = spread(values)
            flag = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "WIDE")
            ok &= s <= bound
            print(f"{w:16} {name:18} median {statistics.median(values):<14.6g} spread {s:.4f} "
                  f"bound {bound} -> {flag}")
    return ok


def report_gaps(a: dict, b: dict, labels: tuple[str, str], two_sided: bool) -> bool:
    """Compare the medians of two batches against the bounds.

    One-sided: is ``b`` worse than ``a`` by more than the bound?  Two-sided:
    do they differ by more than the bound, in either direction?
    """
    ok = True
    for w in a:
        for name in a[w]:
            spec = METRICS[name]
            ma, mb = statistics.median(a[w][name]), statistics.median(b[w][name])
            gap = worse_share(ma, mb, spec["better"])
            if two_sided:
                gap = abs(gap)
            good = gap <= spec["bound"]
            ok &= good
            print(f"{w:16} {name:18} {labels[0]}: {ma:<12.6g} {labels[1]}: {mb:<12.6g} "
                  f"{'gap' if two_sided else 'second worse by'} {gap:+.4f} (bound {spec['bound']}) "
                  f"{'ok' if good else 'FAIL'}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--out")
    p = sub.add_parser("drift")
    p.add_argument("first")
    p.add_argument("second")
    p = sub.add_parser("heldout")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--heldout-seed", type=int, required=True)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args()

    if args.mode == "spread":
        seeds = range(args.first_seed, args.first_seed + args.runs)
        data = batch(args.workloads.split(","), seeds, args.seconds)
        if args.out:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.out).write_text(json.dumps(data))
        return 0 if report_spread(data) else 1
    if args.mode == "drift":
        a = json.loads(Path(args.first).read_text())
        b = json.loads(Path(args.second).read_text())
        return 0 if report_gaps(a, b, ("first", "second"), two_sided=False) else 1
    workloads = args.workloads.split(",")
    # The two seeds alternate, so that the machine's drift falls on both alike.
    base: dict = {w: {name: [] for name in METRICS} for w in workloads}
    held: dict = {w: {name: [] for name in METRICS} for w in workloads}
    for _ in range(args.runs):
        for seed, into in ((args.seed, base), (args.heldout_seed, held)):
            for w, metrics in batch(workloads, [seed], args.seconds).items():
                for name, values in metrics.items():
                    into[w][name] += values
    labels = (f"seed {args.seed}", f"seed {args.heldout_seed}")
    return 0 if report_gaps(base, held, labels, two_sided=True) else 1


if __name__ == "__main__":
    sys.exit(main())
