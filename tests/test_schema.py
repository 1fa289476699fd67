"""The CLI's schema validator against jsonschema's Draft 2020-12 validator.

``ietkit.cli._first_failure`` is the CLI's only validator, and ``jsonschema``
is a test dependency alone.  On the job schema and on its ``curvespec``
sub-schema, it must reject exactly when ``Draft202012Validator`` does, and the
path and keyword of the failure it reports must be those of an error that
``jsonschema`` reports; for a job, an error of the branch that its command
selects.
"""

from __future__ import annotations

import copy
import math
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from ietkit.cli import _first_failure, _load_schema

SCHEMA = _load_schema()
CURVESPEC = SCHEMA["$defs"]["curvespec"]
JOB_VALIDATOR = Draft202012Validator(SCHEMA)
CURVE_VALIDATOR = Draft202012Validator(CURVESPEC)
BRANCHES = {b["properties"]["command"]["const"]: k for k, b in enumerate(SCHEMA["oneOf"])}


def accepts(instance: Any, schema: dict) -> bool:
    return _first_failure(instance, schema, schema) is None


def reported(validator: Draft202012Validator, instance: Any, branch: int | None = None) -> set:
    """The (path, keyword) of every error that ``validator`` reports for
    ``instance``, and of every error in their contexts; under ``oneOf``, only
    those of branch ``branch`` when it is given."""
    found = set()
    errors = list(validator.iter_errors(instance))
    while errors:
        error = errors.pop()
        found.add((tuple(error.absolute_path), error.validator))
        errors += [e for e in error.context if branch is None or error.validator != "oneOf"
                   or e.relative_schema_path[0] == branch]
    return found


# Values that probe types and bounds: bool and integral floats in integer
# slots, the refine maximum and one past it, non-finite floats, and scalar
# strings that differ from valid ones by a newline, a space, an exponent or a
# missing integer part.
ODD_VALUES = [
    True, False, 0, 1, -1, 1.0, 2.5, 1048576, 1048577, 1048576.0, math.nan, math.inf,
    -math.inf, "", "x", "1", "1\n", " 1", "1 ", "1e3", ".5", "1/0", "3/2", "-0.25",
    None, [], [1], ["1"], [True], {}, {"d": 1},
]
odd = st.sampled_from(ODD_VALUES)

scalar = st.one_of(
    st.integers(-50, 50).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-50, 50), st.integers(1, 50)),
    st.builds(lambda p, f: f"{p}.{f}", st.integers(-9, 9), st.integers(0, 999)),
    st.sampled_from(["+7", "-0", "1\n", " 1", "1e3", ".5", "1/0", "1.", "abc"]),
)
scalars = st.lists(scalar, min_size=1, max_size=4)
perm = st.lists(st.integers(1, 9), min_size=1, max_size=5)
path = st.sampled_from(["c.json", "out.svg", "a b", "x"])
positive = st.integers(1, 10**6)
number = st.one_of(st.integers(-10, 10), st.floats(allow_nan=True, allow_infinity=True))

# command -> (required fields, optional fields), each with a valid strategy
COMMANDS = {
    "omega": ({"perm": perm}, {}),
    "suspend": ({"perm": perm, "lengths": scalars, "heights": scalars},
                {"svg": path, "require_simple": st.booleans()}),
    "check": ({"perm": perm, "lengths": scalars, "heights": scalars}, {}),
    "scan": ({"perm": perm, "curve": path, "from": number,
              "to": number, "samples": positive}, {"jobs": positive}),
    "orbit": ({"perm": perm, "lengths": scalars, "x0": scalar, "iters": positive},
              {"refine": st.sampled_from([1, 64, 1048576, 1048577])}),
    "connections": ({"perm": perm, "lengths": scalars, "max_m": positive}, {}),
}


@st.composite
def mutated(draw, base):
    """``base`` with up to three keys dropped, added, retyped, or with one
    list entry replaced."""
    obj = draw(base)
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["drop", "extra", "set", "set_item"]))
        keys = sorted(obj)
        if op == "drop" and keys:
            del obj[draw(st.sampled_from(keys))]
        elif op == "extra":
            obj[draw(st.sampled_from(["seed", "name", "jobs", "svg", "d"]))] = draw(odd)
        elif op == "set" and keys:
            obj[draw(st.sampled_from(keys))] = draw(odd)
        elif op == "set_item":
            lists = [k for k in keys if isinstance(obj[k], list) and obj[k]]
            if lists:
                key = draw(st.sampled_from(lists))
                obj[key] = list(obj[key])
                obj[key][draw(st.integers(0, len(obj[key]) - 1))] = draw(odd)
    return obj


@st.composite
def valid_job(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    job = {"command": command}
    job.update({k: draw(v) for k, v in required.items()})
    job.update({k: draw(v) for k, v in optional.items() if draw(st.booleans())})
    return job


coefficient = st.one_of(st.integers(-5, 5), st.floats(allow_nan=True), scalar)
valid_curve = st.fixed_dictionaries({
    "d": st.one_of(st.integers(1, 6), st.just(2.0)),
    "coeffs": st.lists(st.lists(coefficient, min_size=1, max_size=4), min_size=1, max_size=4),
})


@settings(max_examples=1500)
@given(mutated(valid_job()))
def test_quick_check_agrees_with_jsonschema_on_jobs(job):
    failure = _first_failure(job, SCHEMA, SCHEMA)
    assert (failure is None) == JOB_VALIDATOR.is_valid(job)
    if failure is not None:
        command = job.get("command")
        branch = BRANCHES.get(command) if isinstance(command, str) else None
        assert failure[:2] in reported(JOB_VALIDATOR, job, branch)


@settings(max_examples=500)
@given(st.one_of(mutated(valid_curve), odd))
def test_quick_check_agrees_with_jsonschema_on_curve_files(raw):
    failure = _first_failure(raw, CURVESPEC, CURVESPEC)
    assert (failure is None) == CURVE_VALIDATOR.is_valid(raw)
    if failure is not None:
        assert failure[:2] in reported(CURVE_VALIDATOR, raw)


ORBIT = {"command": "orbit", "perm": [2, 1], "lengths": ["1", "1"], "x0": "0", "iters": 5}
SCAN = {"command": "scan", "perm": [2, 1], "curve": "c.json", "from": 1.0, "to": 2.0, "samples": 3}


@pytest.mark.parametrize("job, valid", [
    (ORBIT, True),
    ({**ORBIT, "refine": 1048576}, True),
    ({**ORBIT, "refine": 1048577}, False),
    ({**ORBIT, "iters": 5.0}, True),
    ({**ORBIT, "iters": True}, False),
    ({**ORBIT, "x0": "1\n"}, True),
    ({**ORBIT, "x0": " 1"}, False),
    ({**ORBIT, "x0": "1e3"}, False),
    ({**ORBIT, "x0": ".5"}, False),
    ({**SCAN, "from": math.nan, "to": math.nan}, True),
    ({**SCAN, "samples": 0}, False),
    ({**SCAN, "jobs": False}, False),
    ({**SCAN, "seed": 3}, False),
    ({"command": "omega"}, False),
    ({**SCAN, "samples": 1048576}, True),
    ({**SCAN, "samples": 1048577}, False),
])
def test_quick_check_named_cases(job, valid):
    assert JOB_VALIDATOR.is_valid(job) == valid
    assert accepts(job, SCHEMA) == valid


def test_quick_check_reads_the_schema():
    # A bound changed in the schema moves the check with it.
    schema = copy.deepcopy(SCHEMA)
    orbit = next(b for b in schema["oneOf"] if b["properties"]["command"] == {"const": "orbit"})
    orbit["properties"]["refine"]["maximum"] = 10
    assert accepts({**ORBIT, "refine": 10}, schema)
    assert not accepts({**ORBIT, "refine": 11}, schema)
    # A keyword the check does not know is an internal error that names it,
    # unless a keyword before it has already failed.
    orbit["properties"]["refine"]["multipleOf"] = 2
    assert Draft202012Validator(schema).is_valid({**ORBIT, "refine": 10})
    with pytest.raises(NotImplementedError, match="'multipleOf'"):
        accepts({**ORBIT, "refine": 10}, schema)
    assert _first_failure({**ORBIT, "refine": 11}, schema, schema) == (
        ("refine",), "maximum", 10)


OVERLAP = {"oneOf": [{"type": "integer"}, {"minimum": 0}]}


@pytest.mark.parametrize("schema, instance", [
    (OVERLAP, 1),  # valid under both branches, so not under oneOf
    (OVERLAP, -1),
    (OVERLAP, "x"),  # minimum ignores a string
    ({"anyOf": [{"type": "integer"}, {"minimum": 0}]}, 1),
    ({"items": False}, []),
    ({"items": False}, [1]),
    ({"additionalProperties": {"type": "string"}}, {"a": "b"}),
    ({"additionalProperties": {"type": "string"}}, {"a": 1}),
])
def test_quick_check_agrees_on_small_schemas(schema, instance):
    assert accepts(instance, schema) == Draft202012Validator(schema).is_valid(instance)
