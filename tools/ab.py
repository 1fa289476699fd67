"""Alternate benchmark runs of a parent commit and the working tree, in pairs.

From the root of a checkout::

    python3 tools/ab.py --workload random-diagrams --seed 1 --pairs 10
    python3 tools/ab.py --workload cli --pairs 3 --parent HEAD~1 --seconds 20

The parent side is ``git archive`` of ``--parent`` (default ``HEAD``, the
parent of uncommitted work); the change side is a copy of the working tree
as it is on disk: every tracked file, and every untracked one that git does
not ignore.  Both are written to fresh directories under one temporary
directory (``TMPDIR`` chooses where), so each side compiles its own sources
and neither sees the other's build outputs; the directory is removed at the
end.

Pair k runs ``perfbench/run.py --workload W --seed S`` in the parent checkout
first when k is even and in the change first when k is odd.  Progress goes
to stderr.  The one JSON object printed on stdout holds, for every metric of
the runs' last JSON line, each side's values, median and quartiles
(``statistics.quantiles``, exclusive method), the change's median against
the parent's, and the number of pairs in which the change read higher, ties
counting for neither side; under ``meta``, each run's attempted and failed
operations and whether its outputs were correct.  A run that exits with an
error stops the comparison.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_parent(rev: str, dest: Path) -> None:
    """``git archive`` of rev, unpacked into dest."""
    archive = dest.with_suffix(".tar")
    archive.write_bytes(git("archive", "--format=tar", rev))
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    archive.unlink()


def copy_working_tree(dest: Path) -> None:
    """Every tracked file and every untracked, unignored one, as on disk."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in sorted(set(listed.decode().split("\0")) - {""}):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted on disk is left out
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run(checkout: Path, workload: str, seed: int, seconds: float | None) -> dict:
    """One benchmark run in checkout; the runner's last line, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    # Each side imports its own src/, whatever the caller's PYTHONPATH says.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout.name}: run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(parent: list[float], change: list[float]) -> dict:
    def quartiles(values: list[float]) -> list[float] | None:
        return statistics.quantiles(values, n=4)[::2] if len(values) > 1 else None

    parent_median, change_median = statistics.median(parent), statistics.median(change)
    return {
        "parent": parent,
        "change": change,
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_quartiles": quartiles(parent),
        "change_quartiles": quartiles(change),
        "change_vs_parent": f"{change_median / parent_median - 1:+.1%}" if parent_median else None,
        "pairs_change_higher": f"{sum(c > p for p, c in zip(parent, change))}/{len(parent)}",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="run length; run.py's default if unset")
    parser.add_argument("--parent", default="HEAD", help="the commit to compare against")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    results: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ietkit-ab-") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export_parent(args.parent, sides["parent"])
        copy_working_tree(sides["change"])
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                result = run(sides[side], args.workload, args.seed, args.seconds)
                results[side].append(result)
                value = result["metrics"].get("throughput_per_ref", {}).get("value")
                print(f"pair {k} {side}: correct={result['correct']} "
                      f"throughput_per_ref={value}", file=sys.stderr, flush=True)

    out: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "parent": args.parent,
        "pairs": args.pairs,
        "meta": {
            side: {
                "attempted": [r["attempted"] for r in runs],
                "failed": [r["failed"] for r in runs],
                "correct": all(r["correct"] for r in runs),
            }
            for side, runs in results.items()
        },
    }
    for name in results["parent"][0]["metrics"]:
        out[name] = summary(*([r["metrics"][name]["value"] for r in results[side]]
                              for side in ("parent", "change")))
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
