"""Command-line surface: parse, validate against the shipped schema, dispatch.

Subcommands mirror the library: ``omega``, ``suspend``, ``check``, ``scan``,
``orbit``, ``connections``.  The parser is read off ``schemas/jobspec.json``:
each branch of its ``oneOf`` is a subcommand and each field an option, whose
help is its ``description`` and whose default is its ``default``.  The parsed
options, less those left unset, are the job dictionary, which is validated
against the same schema before anything runs; then its permutation is
checked, once, and handed to the subcommand's handler.  Output is canonical
JSON on stdout: keys sorted, rationals as "p/q" strings, floats with 17
significant digits, so identical inputs give byte-identical output.

Vectors such as the heights b are often negative, so each subparser is a
``_SignedValues``, whose ``_parse_optional`` hook reads a token that starts
with a single "-", such as ``-1,1`` or ``-inf``, as a value unless it is one
of the parser's own option strings: argparse alone reads it as an option.

A handler only computes and prints.  Once argparse has read the options,
every error that ends a job, ``--require-simple`` on a crossing curve
included, is an exception that ``main`` prints as one ``error: ...`` line on
stderr, and one table, ``_EXIT_CODES``, maps it to the exit code: 0 success,
2 input validation, 3 simplicity required but violated, 4 reducible
permutation, 5 curve left its positivity domain.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import os
import re
import sys
from enum import Enum
from fractions import Fraction
from importlib import resources
from typing import TYPE_CHECKING, Any, Callable, NoReturn, Sequence

from .errors import (
    DimensionMismatch,
    DomainViolation,
    IetkitError,
    InvalidBound,
    ReduciblePermutation,
    _quoted,
)
from .perm import omega, validate_permutation

if TYPE_CHECKING:
    from .criterion import CurveSpec, Verdict
    from .perm import Permutation
    from .suspension import SuspensionDiagram, Witness

# ---------------------------------------------------------------------------
# canonical JSON


def _digits(value: int) -> str:
    """``str(value)``, or an IetkitError past the interpreter's digit limit,
    which input parsing follows too."""
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise IetkitError(f"an output number has more than {limit} digits") from None


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, Fractions as "p/q", floats as %.17g."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return _digits(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, Fraction):
        return json.dumps(f"{_digits(value.numerator)}/{_digits(value.denominator)}")
    if isinstance(value, Enum):
        return canonical_json(value.value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ",".join(f"{json.dumps(k)}:{canonical_json(v)}" for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _emit(payload: Any) -> None:
    sys.stdout.write(canonical_json(payload) + "\n")


# ---------------------------------------------------------------------------
# schema


@functools.cache
def _load_schema() -> dict:
    """The shipped job schema, read and parsed once per process; callers
    share the one dict and must not change it."""
    text = resources.files("ietkit").joinpath("schemas/jobspec.json").read_text()
    return json.loads(text)


class SchemaRejection(IetkitError):
    """A job or curve file that the shipped schema rejects.  The message names
    the option or the file path of the first failure, the keyword that fails,
    in ``jsonschema``'s phrasing, and the value, quoted up to a length bound."""


def _is_number(x: Any) -> bool:
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


# JSON Schema Draft 2020-12 types as jsonschema 4 checks them: bool is neither
# integer nor number, and an integral float such as 1.0 is an integer.
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": _is_number,
    "integer": lambda x: not isinstance(x, bool)
    and (isinstance(x, int) or (isinstance(x, float) and x.is_integer())),
}


def _unsupported(keyword: str, value: Any) -> NoReturn:
    raise NotImplementedError(f"schema keyword {keyword!r} with {value!r} is not supported")


# keyword -> test(instance, keyword value): True when the keyword holds.
_ASSERTIONS = {
    # One type name; a list of names is not supported.
    "type": lambda x, t: _TYPES[t](x),
    # jsonschema compares a string const with plain ==, other consts by rules
    # of its own, such as 1 != True.
    "const": lambda x, c: x == c if isinstance(c, str) else _unsupported("const", c),
    # re.search, as jsonschema does: "^...$" also matches before a final "\n".
    "pattern": lambda x, p: not isinstance(x, str) or re.search(p, x) is not None,
    "minimum": lambda x, m: not _is_number(x) or not x < m,
    "maximum": lambda x, m: not _is_number(x) or not x > m,
    "minItems": lambda x, m: not isinstance(x, list) or len(x) >= m,
    "minLength": lambda x, m: not isinstance(x, str) or len(x) >= m,
}


def _below(children: Any, root: dict) -> tuple | None:
    """The first failure among ``(step, value, schema)`` children, its path
    led by ``step``: paths are built only on the way back from a failure."""
    for step, value, sub in children:
        failure = _first_failure(value, sub, root)
        if failure is not None:
            path, keyword, detail = failure
            return (step, *path), keyword, detail
    return None


def _pointer(ref: str, root: dict) -> Any:
    """The sub-schema of ``root`` that ``ref``, such as ``#/$defs/perm``, names."""
    # Only local JSON pointers without escapes.
    if not ref.startswith("#/") or any(c in ref for c in "~%"):
        _unsupported("$ref", ref)
    target: Any = root
    for part in ref[2:].split("/"):
        target = target[part]
    return target


def _required(x: Any, keys: list, schema: dict, root: dict) -> tuple | None:
    missing = [k for k in keys if k not in x] if isinstance(x, dict) else []
    return ((), "required", missing[0]) if missing else None


def _additional(x: Any, sub: Any, schema: dict, root: dict) -> tuple | None:
    if not isinstance(x, dict):
        return None
    extras = [k for k in x if k not in schema.get("properties", {})]
    if sub is False:
        # jsonschema reports an unexpected property at the object itself.
        return ((), "additionalProperties", extras[0]) if extras else None
    return _below(((k, x[k], sub) for k in extras), root)


def _one_of(x: Any, subs: list, schema: dict, root: dict) -> tuple | None:
    failures = [_first_failure(x, sub, root) for sub in subs]
    valid = failures.count(None)
    if valid == 1:
        return None
    # When no branch holds, the branch that the instance's constants select,
    # such as a job's command, is the one that fails on another keyword.
    chosen = [f for f in failures if f[1] != "const"] if valid == 0 else []
    return chosen[0] if chosen else ((), "oneOf", valid)


# keyword -> check(instance, keyword value, enclosing schema, root schema):
# None, or the first failure within the instance.
_APPLICATORS = {
    "$ref": lambda x, ref, s, r: _first_failure(x, _pointer(ref, r), r),
    "items": lambda x, sub, s, r: _below(((i, v, sub) for i, v in enumerate(x)), r)
    if isinstance(x, list) else None,
    "properties": lambda x, props, s, r: _below(
        ((k, x[k], sub) for k, sub in props.items() if k in x), r)
    if isinstance(x, dict) else None,
    "required": _required,
    "additionalProperties": _additional,
    "anyOf": lambda x, subs, s, r: None if any(
        _first_failure(x, sub, r) is None for sub in subs) else ((), "anyOf", None),
    "oneOf": _one_of,
}
_ANNOTATIONS = {"title", "$defs", "description", "default"}
_DIALECT = "https://json-schema.org/draft/2020-12/schema"


def _first_failure(instance: Any, schema: Any, root: dict) -> tuple | None:
    """None if ``instance`` is valid under ``schema`` (Draft 2020-12), else
    its first failure ``(path, keyword, detail)``: the keys and indices that
    lead to the failing value, the keyword it fails, and what the message
    names of the keyword, such as its bound.  Every bound, pattern and
    constant is read from the schema; any keyword outside ``_ASSERTIONS``
    and ``_APPLICATORS`` raises NotImplementedError naming it.
    """
    if isinstance(schema, bool):
        return None if schema else ((), None, None)
    for key, value in schema.items():
        test = _ASSERTIONS.get(key)
        if test is not None:
            if not test(instance, value):
                return (), key, value
        elif key in _APPLICATORS:
            failure = _APPLICATORS[key](instance, value, schema, root)
            if failure is not None:
                return failure
        elif key not in _ANNOTATIONS and not (key == "$schema" and value == _DIALECT):
            _unsupported(key, value)
    return None


# keyword -> reason, in jsonschema's words, for the failing value and the
# failure's detail, each quoted up to a length bound.
_REASONS = {
    None: "False schema does not allow {value}",
    "type": "{value} is not of type {detail}",
    "const": "{detail} was expected",
    "pattern": "{value} does not match {detail}",
    "minimum": "{value} is less than the minimum of {detail}",
    "maximum": "{value} is greater than the maximum of {detail}",
    "minItems": "{value} is too short",
    "minLength": "{value} is too short",
    "required": "{detail} is a required property",
    "additionalProperties": "Additional properties are not allowed ({detail} was unexpected)",
    "anyOf": "{value} is not valid under any of the given schemas",
    "oneOf": "{value} is not valid under exactly one of the given schemas",
}


def _option(path: tuple) -> str:
    """Where a job fails: its option, such as ``--max-m``, and an item of a
    comma-separated list counted from 1, as in ``--perm item 2``."""
    if not path:
        return "job"
    return "--" + path[0].replace("_", "-") + "".join(f" item {i + 1}" for i in path[1:])


def _file_path(path: tuple) -> str:
    """Where a curve file fails: ``curve file`` and a path such as ``coeffs[2][0]``."""
    steps = "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path)
    return f"curve file {steps.removeprefix('.')}" if steps else "curve file"


def _validate(instance: Any, schema: dict, where: Callable[[tuple], str] = _option) -> None:
    """Raise SchemaRejection unless ``instance`` is valid under ``schema``;
    the message reads ``where(path): reason`` for the first failure."""
    failure = _first_failure(instance, schema, schema)
    if failure is not None:
        path, keyword, detail = failure
        value = instance
        for step in path:
            value = value[step]
        reason = _REASONS[keyword].format(value=_quoted(value), detail=_quoted(detail))
        raise SchemaRejection(f"{where(path)}: {reason}")


# ---------------------------------------------------------------------------
# serialization helpers


def _witness_payload(witness: Witness | None) -> dict | None:
    if witness is None:
        return None
    return {
        "chain_a": witness.chain_a,
        "index_a": witness.index_a,
        "chain_b": witness.chain_b,
        "index_b": witness.index_b,
        "classification": witness.relation.classification,
        "locus": witness.relation.locus,
    }


def _diagram_payload(diagram: SuspensionDiagram, simple: bool, witness: Witness | None) -> dict:
    return {
        "perm": diagram.sigma.images,
        "lengths": diagram.lengths,
        "heights": diagram.heights,
        "slopes": diagram.slopes,
        "top_chain": diagram.top_chain,
        "bottom_chain": diagram.bottom_chain,
        "return_profile": diagram.return_profile,
        "first_slope_vs_bottom_first": diagram.first_slope_vs_bottom_first,
        "first_slope_vs_bottom_last": diagram.first_slope_vs_bottom_last,
        "simple": simple,
        "witness": _witness_payload(witness),
    }


# ---------------------------------------------------------------------------
# SVG


def _svg_float(value: Fraction) -> float:
    try:
        return float(value)
    except OverflowError:
        raise IetkitError(
            f"SVG coordinate {_quoted(value, str)} is outside the float range") from None


def _svg_chains(diagram: SuspensionDiagram, witness: Witness | None) -> str:
    from .suspension import SegmentClass

    def flip(pt: Sequence[Fraction]) -> tuple[float, float]:
        return _svg_float(pt[0]), _svg_float(-pt[1])

    top = [flip(p) for p in diagram.top_chain]
    bottom = [flip(p) for p in diagram.bottom_chain]
    marks: list[tuple[float, float]] = []
    if witness is not None:
        locus = witness.relation.locus
        if witness.relation.classification is SegmentClass.COLLINEAR_OVERLAP:
            marks = [flip(locus[0]), flip(locus[1])]
        else:
            marks = [flip(locus)]

    xs = [x for x, _ in top + bottom + marks]
    ys = [y for _, y in top + bottom + marks]
    # Every a_i is positive, so the exact span is too: a float span of 0 means
    # that every coordinate underflowed to 0.
    float_span = max(max(xs) - min(xs), max(ys) - min(ys))
    span = max(float_span, 1e-9)
    margin = 0.05 * span
    view = (min(xs) - margin, min(ys) - margin, (max(xs) - min(xs)) + 2 * margin,
            (max(ys) - min(ys)) + 2 * margin)
    if float_span == 0 or not all(math.isfinite(v) for v in view):
        # A witness lies on both chains, so they alone bound the picture.
        points = diagram.top_chain + diagram.bottom_chain
        extent = max(max(pt[k] for pt in points) - min(pt[k] for pt in points) for k in (0, 1))
        problem = "rounds to 0 as a float" if float_span == 0 else "is outside the float range"
        raise IetkitError(f"SVG view box over a span of {_quoted(extent, str)} {problem}")
    stroke = 0.01 * span

    def polyline(points: list[tuple[float, float]], color: str) -> str:
        coords = " ".join(f"{x:.17g},{y:.17g}" for x, y in points)
        return (f'<polyline fill="none" stroke="{color}" stroke-width="{stroke:.17g}" '
                f'points="{coords}"/>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{view[0]:.17g} {view[1]:.17g} {view[2]:.17g} {view[3]:.17g}">',
        polyline(top, "#1f77b4"),
        polyline(bottom, "#d62728"),
    ]
    for x, y in marks:
        parts.append(f'<circle cx="{x:.17g}" cy="{y:.17g}" r="{1.5 * stroke:.17g}" fill="#ff7f0e"/>')
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# commands


def cmd_omega(job: dict, sigma: Permutation) -> None:
    _emit(omega(sigma).entries)


class _NotSimple(IetkitError):
    """A crossing curve under ``suspend --require-simple``."""


def cmd_suspend(job: dict, sigma: Permutation) -> None:
    from .suspension import build_suspension, self_intersects

    diagram = build_suspension(sigma, job["lengths"], job["heights"])
    report = self_intersects(diagram)
    # Serialized, drawn and written before anything is printed, so an output
    # that cannot be printed writes no file, and a curve that cannot be drawn
    # or a file that cannot be written prints nothing.
    text = canonical_json(_diagram_payload(diagram, report.simple, report.witness))
    if "svg" in job:
        svg = _svg_chains(diagram, report.witness)
        with open(job["svg"], "w") as fh:
            fh.write(svg + "\n")
    sys.stdout.write(text + "\n")
    if job["require_simple"] and not report.simple:
        raise _NotSimple("curve self-intersects but --require-simple was set")


def cmd_check(job: dict, sigma: Permutation) -> None:
    from . import criterion

    report = criterion.convexity_criterion(sigma, job["lengths"], job["heights"])
    _emit({
        "perm": sigma.images,
        "monotonicity": report.monotonicity,
        "simple": report.simple,
        "positivity": report.positivity,
        "verdict": report.verdict,
        "chains_exchanged": report.chains_exchanged,
        "connection_check_advised": report.connection_check_advised,
        "witness": _witness_payload(report.witness),
        "slopes": report.diagram.slopes,
        "return_profile": report.diagram.return_profile,
    })


def _parse_int(text: str) -> int:
    """``int(text)``, or an IetkitError past the interpreter's digit limit."""
    try:
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise IetkitError(f"a number in the curve file has more than {limit} digits") from None


def _load_curve(path: str) -> CurveSpec:
    from . import criterion

    # JSON is UTF-8, whatever the locale's encoding.
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh, parse_int=_parse_int)
        except UnicodeDecodeError as exc:
            raise IetkitError(f"the curve file is not UTF-8: {exc}") from None
        except RecursionError:
            raise IetkitError("the curve file is nested too deeply") from None
    _validate(raw, _load_schema()["$defs"]["curvespec"], _file_path)
    spec = criterion.curve_spec(raw["coeffs"])
    if spec.d != raw["d"]:
        raise DimensionMismatch(f'curve file says d={_quoted(raw["d"])} but has {spec.d} rows')
    return spec


def _grid(start: float, stop: float, samples: int) -> list[float]:
    for name, bound in (("from", start), ("to", stop)):
        if not math.isfinite(bound):
            raise InvalidBound(f"scan bound --{name} is not finite: {bound}")
    if stop < start:
        raise InvalidBound(f"empty scan range [{start}, {stop}]")
    if samples == 1:
        return [start]
    step = (stop - start) / (samples - 1)
    if not math.isfinite(step):
        raise InvalidBound(f"scan range [{start}, {stop}] is too wide: its grid step overflows")
    return [start + k * step for k in range(samples)]


def _scan_chunk(args: tuple) -> tuple[Verdict, ...]:
    from . import criterion

    spec, sigma, chunk = args
    return criterion.scan_curve(spec, sigma, chunk).verdicts


# The fewest samples a scan worker must have before a pool is worth forking.
# On a d = 4 power-type curve (2-vCPU VM, CPython 3.11.7, medians of 9
# alternating subprocess runs while both vCPUs ran in parallel), --jobs 2
# took 218 and 244 ms at 2,048 and 4,096 samples against 197 and 258 ms for
# --jobs 1.  So two workers break even near 4,096 samples, or 2,048 per worker.
_SAMPLES_PER_WORKER = 2048


def cmd_scan(job: dict, sigma: Permutation) -> None:
    from . import criterion

    spec = _load_curve(job["curve"])
    grid = _grid(job["from"], job["to"], job["samples"])
    # One worker per chunk, never more workers than the CPUs this process may
    # run on, and a pool only when each worker gets enough samples to pay
    # for it; otherwise run serially.
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(job["jobs"], len(grid) // _SAMPLES_PER_WORKER, cpus)
    if workers > 1:
        # The process pool takes tens of milliseconds to import, so only a
        # scan that forks loads it.
        from concurrent.futures import ProcessPoolExecutor

        chunk_size = (len(grid) + workers - 1) // workers
        # Floats pickle faster than Fractions; each worker rationalizes its own.
        chunks = [grid[k : k + chunk_size] for k in range(0, len(grid), chunk_size)]
        # pool.map re-raises a worker's error here, so exit codes match --jobs 1.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(_scan_chunk, [(spec, sigma, c) for c in chunks])
            verdicts = [v for part in parts for v in part]
        summary = criterion.ScanSummary(tuple(verdicts), tuple(map(Fraction, grid)))
    else:
        summary = criterion.scan_curve(spec, sigma, grid)
    _emit({
        "samples": summary.samples,
        "fractions": {v.value: frac for v, frac in summary.verdict_fractions.items()},
        "exceptional": [{"s": s, "verdict": v} for s, v in summary.exceptional],
    })


def cmd_orbit(job: dict, sigma: Permutation) -> None:
    from .diagnostics import DEFAULT_REFINEMENT, visit_frequencies
    from .iet import build_iet

    t = build_iet(sigma, job["lengths"])
    # The schema gives refine no default: this one is diagnostics', which only orbit loads.
    stats = visit_frequencies(t, job["x0"], job["iters"], job.get("refine", DEFAULT_REFINEMENT))
    _emit({
        "iterations": stats.n_iterations,
        "frequencies": stats.frequencies,
        "expected": stats.expected,
        "discrepancy": stats.discrepancy,
        "discrepancy_float": float(stats.discrepancy),
        "refinement_cells": stats.refinement_cells,
        "refinement_discrepancy": stats.refinement_discrepancy,
        "refinement_discrepancy_float": float(stats.refinement_discrepancy),
        "empirical": True,
    })


def cmd_connections(job: dict, sigma: Permutation) -> None:
    from .iet import build_iet, find_connections

    t = build_iet(sigma, job["lengths"])
    hits = find_connections(t, job["max_m"])
    _emit({
        "max_m": job["max_m"],
        "connections": [{"m": c.m, "i": c.i, "j": c.j} for c in hits],
    })


# ---------------------------------------------------------------------------
# argument parsing


def _typed(convert: Callable[[str], Any], problem: str) -> Callable[[str], Any]:
    """``convert`` as an argparse type, whose error quotes the token up to a
    length bound, as in ``invalid int value: 'x'``."""
    def parse(text: str) -> Any:
        try:
            return convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{problem}: {_quoted(text)}") from None
    return parse


def _split_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _split_strs(text: str) -> list[str]:
    return [v.strip() for v in text.split(",")]


class _SignedValues(argparse.ArgumentParser):
    """A subcommand's parser that reads a token such as ``-1,1``, ``-1/2`` or
    ``-inf`` as a value: argparse alone takes a token that starts with "-"
    and is not a plain negative number for an option.  Only the parser's own
    option strings, such as ``-h``, and tokens that start with "--" are read
    as options, so abbreviations and their errors stay argparse's."""

    def _parse_optional(self, arg_string: str) -> Any:
        if (arg_string.startswith("-") and not arg_string.startswith("--")
                and arg_string not in self._option_string_actions):
            return None
        return super()._parse_optional(arg_string)


def _build_parser() -> argparse.ArgumentParser:
    """The command line, read off the job schema.  Each ``oneOf`` branch is a
    subcommand, named by its ``command`` constant, helped by its
    ``description`` and run by ``cmd_<name>``.  Each other field is an option
    ``--<field>``, with "_" read as "-", whose dest is the field; it is
    required when the branch requires the field, its help is the first
    ``description`` on the field and the schemas its ``$ref`` leads to, and
    its default is the field's ``default``.  Its reader is that of the first
    ``$ref`` or ``type`` on that chain that has one:

    ``#/$defs/perm``                 comma-separated ints
    ``#/$defs/scalar_vector``        comma-separated strings, each stripped
    ``integer``, ``number``          int, float
    ``string``, ``#/$defs/scalar``   the text itself
    ``boolean``                      a flag that stores True
    """
    schema = _load_schema()
    readers = {
        "#/$defs/perm": {"type": _typed(_split_ints, "not a comma-separated integer list")},
        "#/$defs/scalar_vector": {"type": _split_strs},
        "integer": {"type": _typed(int, "invalid int value")},
        "number": {"type": _typed(float, "invalid float value")},
        "string": {},
        "#/$defs/scalar": {},
        "boolean": {"action": "store_true"},
    }
    parser = argparse.ArgumentParser(
        prog="ietkit",
        description="Interval exchanges, suspension polygons, and the convexity criterion.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SignedValues)
    for branch in schema["oneOf"]:
        fields = dict(branch["properties"])
        name = fields.pop("command")["const"]
        p = sub.add_parser(name, help=branch["description"])
        p.set_defaults(run=globals()[f"cmd_{name}"])
        for field, spec in fields.items():
            chain = [spec]
            while "$ref" in chain[-1]:
                chain.append(_pointer(chain[-1]["$ref"], schema))
            reader = next(readers[k] for k in (n.get("$ref", n.get("type")) for n in chain)
                          if k in readers)
            p.add_argument("--" + field.replace("_", "-"), dest=field,
                           required=field in branch["required"], default=spec.get("default"),
                           help=next((n["description"] for n in chain if "description" in n), None),
                           **reader)
    return parser


# The exit code of each error that has one of its own, looked up by the error's
# exact type, so a subclass of these would exit 2, as every other error does.
_EXIT_CODES = {_NotSimple: 3, ReduciblePermutation: 4, DomainViolation: 5}


def main(argv: Sequence[str] | None = None) -> int:
    # The parsed options, less those left unset.
    job = {k: v for k, v in vars(_build_parser().parse_args(argv)).items() if v is not None}
    run = job.pop("run")
    try:
        _validate(job, _load_schema())
        # Every branch requires a permutation, checked once the schema holds.
        run(job, validate_permutation(job["perm"]))
    except (IetkitError, OSError, json.JSONDecodeError) as exc:
        message = str(exc)
        if getattr(exc, "filename", None) is not None:
            # str(exc), with the path quoted up to a length bound.
            message = f"[Errno {exc.errno}] {exc.strerror}: {_quoted(exc.filename)}"
        print(f"error: {message}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), 2)
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
