"""Byte-identity check of the command line between a parent commit and the
working tree.

From the root of a checkout::

    python3 tools/same.py                        # against HEAD, 800 argv lists
    python3 tools/same.py --parent HEAD~1 --seed 2 --count 1200

The parent side is ``git archive`` of ``--parent`` (default ``HEAD``) and the
change side a copy of the working tree, both made as ``tools/ab.py`` makes
them, in one temporary directory (``TMPDIR`` chooses where) that is removed
at the end.  For each side, a child under ``python`` and one under
``python -O`` import ``ietkit`` from that side's ``src/``, generate the same
seeded corpus of argv lists and run each through ``ietkit.cli.main`` in
process, at ``COLUMNS=80``, in an empty work directory of their own.

The corpus covers all six subcommands: valid jobs; schema and argparse
rejections (missing, ambiguous, mistyped and extra options); ``--help``;
curve files that are missing, malformed JSON, not UTF-8, nested too
deeply, hold a number of too many digits, fail the schema or leave the
domain; reducible permutations; ``--require-simple`` on curves that cross;
``--svg`` to a writable path, an empty one and one in a missing directory;
and one ``--jobs 2`` scan of 4,096 samples.  Each run gives a record of its argv,
exit code (``SystemExit`` counted apart, as argparse's), stdout, stderr and
the files it wrote, with the work directory's path written ``<work>``.

The one JSON object printed on stdout gives, per interpreter, the number of
records, the counts per exit code and the number of records that differ
between the sides, and the first difference.  The exit code is 1 on any
difference, else 0.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

from ab import copy_working_tree, export_parent

INTERPRETERS = {"python": [], "python -O": ["-O"]}
COMMANDS = ("omega", "suspend", "check", "scan", "orbit", "connections")

# ---------------------------------------------------------------------------
# corpus


def scalar(rng: random.Random, sign: bool = False) -> str:
    """An integer, a fraction or a decimal, negative or 0 only if ``sign``."""
    kind = rng.randrange(3)
    if kind == 0:
        text = str(rng.randint(1, 9))
    elif kind == 1:
        text = f"{rng.randint(1, 30)}/{rng.randint(1, 30)}"
    else:
        text = f"{rng.randint(0, 5)}.{rng.randint(1, 99)}"
    if sign and rng.random() < 0.5:
        text = "0" if rng.random() < 0.1 else "-" + text
    return text


def permutation(rng: random.Random, d: int) -> list[int]:
    """A permutation of 1..d, reducible about a quarter of the time."""
    if d > 1 and rng.random() < 0.25:
        k = rng.randint(1, d - 1)
        head, tail = list(range(1, k + 1)), list(range(k + 1, d + 1))
        rng.shuffle(head)
        rng.shuffle(tail)
        return head + tail
    images = list(range(1, d + 1))
    rng.shuffle(images)
    return images


def joined(values: list) -> str:
    return ",".join(str(v) for v in values)


def curve(rng: random.Random, d: int) -> bytes:
    """A curve file: power rows, whose widths stay positive for s > 0, or
    random rows, which often leave the domain."""
    if rng.random() < 0.3:
        rows = [[0] * i + [1] for i in range(1, d + 1)]
    else:
        rows = [[rng.randint(-2, 3) for _ in range(rng.randint(1, 3))] for _ in range(d)]
    return json.dumps({"d": d, "coeffs": rows}).encode()


BAD_CURVES = {
    "malformed.json": b'{"d": 2, "coeffs": [[1],',
    "latin1.json": b'{"d": 1, "coeffs": [["\xe9"]]}',
    "deep.json": b"[" * 100_000,
    "digits.json": b'{"d": 1, "coeffs": [[' + b"7" * 5000 + b"]]}",
    "schema.json": b'{"d": 0, "coeffs": []}',
}


def job(rng: random.Random, command: str) -> tuple[list[str], dict[str, bytes]]:
    """A random job for ``command``, mostly valid, and the files it reads."""
    d = rng.randint(1, 6)
    argv = [command, "--perm", joined(permutation(rng, d))]
    files: dict[str, bytes] = {}
    lengths = [scalar(rng) for _ in range(d + (rng.random() < 0.05))]
    if rng.random() < 0.05:
        lengths[0] = rng.choice(["0", "-1", "x", "1/0"])
    heights = [scalar(rng, sign=True) for _ in range(d)]
    if command == "omega":
        if rng.random() < 0.1:
            argv[2] = rng.choice(["2,2", "0,1", "1,3", "1,,2", "-1,2"])
    elif command in ("suspend", "check"):
        argv += ["--lengths", joined(lengths), "--heights", joined(heights)]
        if command == "suspend":
            if rng.random() < 0.5:
                argv.append("--require-simple")
            if rng.random() < 0.5:
                argv += ["--svg", rng.choice(["out.svg", "out.svg", "", "nodir/out.svg"])]
    elif command == "scan":
        name = "curve.json"
        pick = rng.random()
        if pick < 0.1:
            name = "absent.json"
        elif pick < 0.2:
            name = rng.choice(sorted(BAD_CURVES))
            files[name] = BAD_CURVES[name]
        else:
            files[name] = curve(rng, d if rng.random() < 0.9 else d + 1)
        start = rng.choice(["0.5", "1", "-1", "0", "0.25", "2"])
        stop = rng.choice(["4", "3", "2.5", "1.5"])
        if rng.random() < 0.2:
            start, stop = rng.choice([("-inf", "1"), ("nan", "1"), ("0", "inf"),
                                      ("-1e308", "1e308"), ("2.5", "0.75")])
        argv += ["--curve", name, "--from", start, "--to", stop,
                 "--samples", str(rng.choice([1, 2, 5, 17, 40, 0 if rng.random() < 0.2 else 3]))]
        if rng.random() < 0.5:
            argv += ["--jobs", str(rng.randint(1, 2))]
    elif command == "orbit":
        x0 = scalar(rng, sign=rng.random() < 0.1)
        argv += ["--lengths", joined(lengths), "--x0", x0,
                 "--iters", str(rng.choice([1, 10, 100, 1000, 10_000, 0]))]
        if rng.random() < 0.5:
            argv += ["--refine", str(rng.choice([1, 3, 16, 1_048_577]))]
    else:
        argv += ["--lengths", joined(lengths), "--max-m", str(rng.choice([1, 5, 50, 500, 0]))]
    return argv, files


def mangle(rng: random.Random, argv: list[str]) -> list[str]:
    """argv with one option missing, ambiguous, mistyped or extra."""
    argv = list(argv)
    options = [i for i, token in enumerate(argv) if token.startswith("--")]
    kind = rng.randrange(6)
    if kind == 0 and options:  # missing
        i = rng.choice(options)
        end = i + 1 if argv[i] == "--require-simple" else i + 2
        del argv[i:end]
    elif kind == 1 and options:  # abbreviated, possibly ambiguous
        i = rng.choice(options)
        argv[i] = argv[i][: rng.randint(3, len(argv[i]))]
    elif kind == 2 and options:  # mistyped value
        i = rng.choice(options)
        if argv[i] != "--require-simple":
            argv[i + 1] = rng.choice(["x", "1.5", "", "-", "--"])
    elif kind == 3:  # extra option
        argv += rng.choice([["--seed", "3"], ["--verbose"], ["extra"]])
    elif kind == 4:  # misspelled command
        argv[0] = rng.choice(["omeg", "scans", "", "check-it"])
    else:
        argv = argv[:1]
    return argv


def corpus(seed: int, count: int) -> list[tuple[list[str], dict[str, bytes]]]:
    """``count`` argv lists, each with the files to write before its run."""
    rng = random.Random(seed)
    frozen = ["--perm", "3,1,4,2", "--lengths", "1,1,2,1", "--heights", "3,-2,-3,0"]
    power4 = json.dumps({"d": 4, "coeffs": [[0] * i + [1] for i in range(1, 5)]}).encode()
    fixed = [([], {}), (["--help"], {})] + [([c, "-h"], {}) for c in COMMANDS] + [
        (["suspend", *frozen, "--require-simple", "--svg", "out.svg"], {}),
        (["suspend", *frozen, "--svg", "nodir/out.svg"], {}),
        (["scan", "--perm", "4,3,2,1", "--curve", "c.json", "--from", "0.5", "--to", "4",
          "--samples", "4096", "--jobs", "2"], {"c.json": power4}),
    ]
    runs = fixed[:count]
    while len(runs) < count:
        argv, files = job(rng, rng.choice(COMMANDS))
        if rng.random() < 0.15:
            argv = mangle(rng, argv)
        runs.append((argv, files))
    return runs


# ---------------------------------------------------------------------------
# child: run the corpus in process


def clear(directory: Path) -> None:
    for entry in sorted(directory.rglob("*"), reverse=True):
        entry.rmdir() if entry.is_dir() else entry.unlink()


def child(seed: int, count: int) -> None:
    """Run the corpus in the current directory; one JSON record a line."""
    from ietkit import cli

    work = Path.cwd()
    out = sys.stdout
    out.write(json.dumps({"ietkit": cli.__file__}) + "\n")
    for argv, files in corpus(seed, count):
        clear(work)
        for name, data in files.items():
            (work / name).write_bytes(data)
        stdout, stderr = io.StringIO(), io.StringIO()
        record: dict = {"argv": argv}
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                record["exit"] = cli.main(argv)
            except SystemExit as exc:
                record["exit"] = f"argparse {exc.code}"
            except Exception as exc:  # an error main lets through
                record["exit"] = f"raised {type(exc).__name__}: {exc}"
        record["stdout"] = stdout.getvalue().replace(str(work), "<work>")
        record["stderr"] = stderr.getvalue().replace(str(work), "<work>")
        record["files"] = {
            str(p.relative_to(work)): p.read_bytes().decode("utf-8", "backslashreplace")
            for p in sorted(work.rglob("*")) if p.is_file() and p.name not in files
        }
        out.write(json.dumps(record) + "\n")
    clear(work)


# ---------------------------------------------------------------------------
# parent: run both sides and compare


def records(side: Path, flags: list[str], seed: int, count: int, work: Path) -> list[dict]:
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=str(side / "src"), COLUMNS="80")
    argv = [sys.executable, *flags, str(Path(__file__).resolve()), "--child",
            "--seed", str(seed), "--count", str(count)]
    proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{side.name} {flags}: child exited {proc.returncode}\n{proc.stderr[-2000:]}")
    header, *rows = (json.loads(line) for line in proc.stdout.splitlines())
    if not Path(header["ietkit"]).resolve().is_relative_to(side.resolve()):
        raise SystemExit(f"{side.name}: imported ietkit from {header['ietkit']}")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="the commit to compare against")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=800, help="argv lists per run")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.seed, args.count)
        return 0

    out: dict = {"parent": args.parent, "seed": args.seed, "count": args.count,
                 "runs": {}, "first_difference": None}
    with tempfile.TemporaryDirectory(prefix="ietkit-same-") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export_parent(args.parent, sides["parent"])
        copy_working_tree(sides["change"])
        for name, flags in INTERPRETERS.items():
            got = {side: records(path, flags, args.seed, args.count,
                                 Path(tmp) / f"work-{side}{''.join(flags)}")
                   for side, path in sides.items()}
            differ = [k for k, (p, c) in enumerate(zip(got["parent"], got["change"])) if p != c]
            out["runs"][name] = {
                "records": len(got["change"]),
                "exits": dict(sorted(Counter(str(r["exit"]) for r in got["change"]).items())),
                "differences": len(differ),
            }
            if differ and out["first_difference"] is None:
                k = differ[0]
                out["first_difference"] = {
                    "interpreter": name, "index": k,
                    "parent": got["parent"][k], "change": got["change"][k],
                }
    print(json.dumps(out, indent=1))
    return 1 if out["first_difference"] else 0


if __name__ == "__main__":
    sys.exit(main())
