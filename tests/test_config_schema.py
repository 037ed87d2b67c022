"""The config check agrees with jsonschema's Draft 2020-12 validator, error for error.

``harness._validate_config`` walks ``CONFIG_SCHEMA`` itself; jsonschema is
only the reference here.  A valid config that sets every optional field is
broken at every schema node (wrong types, bools and floats for integers,
values at and below each minimum, unknown keys, missing required keys, bad
enum values, short and long arrays), one break at a time and, under
hypothesis, several at once.  Both must accept or refuse alike, with the
same sorted errors and so the same ``InvalidConfigError`` text.
"""

import copy
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from online_unlearning.errors import InvalidConfigError
from online_unlearning.harness import CONFIG_SCHEMA, _schema_errors, _validate_config

ROOT = Path(__file__).resolve().parents[1]

# Every optional field set, so every schema node has an instance to break.
FULL = {
    "dimension": 2,
    "horizon": 40,
    "radius": 1.0,
    "stream": {"kind": "sc-quadratic", "mu": 1.0, "beta": 3.0, "kappa_rate": 0.5},
    "schedule": {"kind": "explicit", "entries": [[5, 12], [7, 25]], "k": 2, "gap": 0,
                 "spacing": 1, "first_time": 1},
    "algorithm": "active",
    "rate": {"kind": "constant", "eta": 0.1},
    "unlearner": {"alpha": 2.0, "eps": 0.5, "omega": 1.2, "gamma_mode": "per-step-product"},
    "active": {"i1": [0, 3], "i2": 0, "strict_schedule": True},
    "seeds": [0, 1],
    "mc_samples": 0,
    "sweep": {"rate.eta": [0.1, 0.2], "algorithm": ["passive"]},
}

# Wrong types for most nodes; for an integer node, True and 1.0 are among them.
_WRONG = ["x", None, [], {}, True, False, 1, 1.0, 2.5, -1, [1], {"a": 1}]
_UNKNOWN = ["zz", "bad.key", "1x", "it's"]


def _nodes(schema, value, path=()):
    """``(path, subschema)`` for every instance node ``FULL`` has under ``schema``."""
    yield path, schema
    if isinstance(value, dict):
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, item in value.items():
            sub = props.get(key, extra if isinstance(extra, dict) else None)
            if sub is not None:
                yield from _nodes(sub, item, path + (key,))
    elif isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            yield from _nodes(schema["items"], item, path + (index,))


NODES = list(_nodes(CONFIG_SCHEMA, FULL))


def _mutations(schema) -> list:
    """``(kind, argument)`` breaks of one node under ``schema``."""
    out = [("set", v) for v in _WRONG]
    if schema.get("type") == "integer":
        out += [("set", 3.0), ("set", 0.5)]
    for bound in ("minimum", "exclusiveMinimum"):
        if bound in schema:
            low = schema[bound]
            out += [("set", low), ("set", low - 1), ("set", low - 0.5), ("set", float(low))]
    if "enum" in schema:
        out += [("set", "nope"), ("set", schema["enum"][0].upper()), ("set", 1), ("set", True)]
    if schema.get("type") == "object":
        out += [("add", key) for key in _UNKNOWN]
        out += [("drop", key) for key in schema.get("required", [])]
    if schema.get("type") == "array" or "minItems" in schema:
        out += [("set", []), ("set", [1]), ("set", [1, 2, 3]), ("set", [[1], [1, 2, 3]])]
    return out


CASES = [(path, m) for path, schema in NODES for m in _mutations(schema)]


def _apply(raw, path: tuple, mutation):
    """``raw`` with one break applied at ``path``; the break is a no-op if the node is gone."""
    kind, arg = mutation
    if kind == "set" and not path:
        return copy.deepcopy(arg)
    parent, node = None, raw
    for step in path:
        present = (step in node if isinstance(node, dict)
                   else isinstance(node, list) and isinstance(step, int) and step < len(node))
        if not present:
            return raw
        parent, node = node, node[step]
    if kind == "set":
        parent[path[-1]] = copy.deepcopy(arg)
    elif isinstance(node, dict) and kind == "add":
        node[arg] = [1]
    elif isinstance(node, dict):
        node.pop(arg, None)
    return raw


def _broken(path, mutation):
    return _apply(copy.deepcopy(FULL), path, mutation)


def _reference(raw, schema=CONFIG_SCHEMA) -> list:
    """jsonschema's errors, sorted by path as ``_validate_config`` once sorted them."""
    validator = pytest.importorskip("jsonschema").Draft202012Validator(schema)
    return [(e.json_path, e.message)
            for e in sorted(validator.iter_errors(raw), key=lambda e: e.json_path)]


def _ours(raw, schema=CONFIG_SCHEMA) -> list:
    return sorted(_schema_errors(schema, raw), key=lambda e: e[0])


def _message(raw) -> str | None:
    try:
        _validate_config(raw)
    except InvalidConfigError as err:
        return str(err)
    return None


def _assert_agrees(raw) -> None:
    expected = _reference(raw)
    assert _ours(raw) == expected
    first = f"config invalid at {expected[0][0]}: {expected[0][1]}" if expected else None
    assert _message(raw) == first


def test_full_config_is_valid():
    assert _message(FULL) is None and _reference(FULL) == []


def test_schema_uses_only_the_known_keywords():
    known = {"type", "enum", "required", "properties", "additionalProperties", "items",
             "minItems", "maxItems", "minimum", "exclusiveMinimum"}
    for _, schema in NODES:
        assert set(schema) <= known


def test_each_single_break_matches_jsonschema():
    assert len(CASES) > 700
    for path, mutation in CASES:
        _assert_agrees(_broken(path, mutation))


@pytest.mark.parametrize("schema", [
    {"enum": [1, "a"]}, {"enum": [True, 0.0]}, {"type": "integer", "minimum": 1},
    {"type": "number", "exclusiveMinimum": 0}, {"minItems": 1, "maxItems": 0, "minimum": 1},
    {"required": ["a"], "items": {"type": "boolean"}, "exclusiveMinimum": 1},
], ids=repr)
def test_draft_2020_12_semantics_on_small_schemas(schema):
    # A bool is no integer or number, 1.0 is an integer, enum tells True from 1,
    # and each keyword applies only to its own instance type.
    for value in _WRONG + [0, 0.0, 1.5, "a", [True, 1], {"a": 1, "b": 2}]:
        assert _ours(value, schema) == _reference(value, schema)


def test_the_single_breaks_cover_the_named_cases():
    def message(path, value):
        return _message(_broken(path, ("set", value)))

    assert message(("dimension",), True).endswith("$.dimension: True is not of type 'integer'")
    assert message(("dimension",), 1.0) is None                       # 1.0 is an integer
    assert message(("algorithm",), True).endswith("True is not one of " + repr(
        CONFIG_SCHEMA["properties"]["algorithm"]["enum"]))
    assert message(("stream", "beta"), 0).endswith("0 is less than or equal to the minimum of 0")
    assert message(("radius",), 1e-300).endswith("1e-300 is less than the minimum of 1e-150")
    assert message(("seeds",), []).endswith("$.seeds: [] should be non-empty")
    assert message(("seeds", 1), -1).endswith("$.seeds[1]: -1 is less than the minimum of 0")
    assert message(("schedule", "entries", 0), [1]).endswith("[1] is too short")
    assert message(("schedule", "entries", 0), [1, 2, 3]).endswith("[1, 2, 3] is too long")
    assert message(("sweep", "rate.eta"), []).endswith("$.sweep['rate.eta']: [] should be non-empty")
    assert _message(_broken(("rate",), ("add", "zz"))).endswith(
        "$.rate: Additional properties are not allowed ('zz' was unexpected)")
    assert _message(_broken(("unlearner",), ("drop", "alpha"))).endswith(
        "$.unlearner: 'alpha' is a required property")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(CASES), min_size=2, max_size=5))
def test_several_breaks_match_jsonschema(cases):
    raw = copy.deepcopy(FULL)
    for path, mutation in cases:
        raw = _apply(raw, path, mutation)
    _assert_agrees(raw)


def _module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _shipped_configs() -> dict:
    configs = {p.name: json.loads(p.read_text()) for p in sorted((ROOT / "configs").glob("*.json"))}
    golden = _module("golden_configs", ROOT / "tests" / "test_golden.py")
    configs.update({f"golden:{name}": raw for name, raw in golden.CONFIGS.items()})
    workloads = _module("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    configs.update({f"perfbench:{name}": workloads.build(name, 0).config
                    for name in workloads.NAMES})
    return configs


@pytest.mark.parametrize("name, raw", sorted(_shipped_configs().items()))
def test_shipped_configs_validate(name, raw):
    assert _message(raw) is None and _reference(raw) == []


def test_loading_a_config_imports_neither_jsonschema_nor_the_process_pool():
    code = (
        "import sys\n"
        "import online_unlearning.cli\n"
        "from online_unlearning.harness import ExperimentConfig\n"
        f"ExperimentConfig.from_file({str(ROOT / 'configs' / 'passive_sc.json')!r})\n"
        "print([m for m in ('jsonschema', 'concurrent.futures.process') if m in sys.modules])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    assert out.stdout.strip() == "[]"
