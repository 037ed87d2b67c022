"""Schema-valid configs through the CLI: a refusal or a verdict, never a traceback.

Configs are drawn from ``CONFIG_SCHEMA`` itself: every enum value, now and
then one optional key of an object left out, integers just above their
minimum and numbers from zero and 1e-300 up to 1e300, with T <= 60, d <= 4
and mu <= 1 <= beta mostly, so each command is quick.  About one config in
five runs to a verdict; the rest are refused.
Each config goes through ``run`` and ``certify`` as ``cli.main`` runs them.
The exit status must be 0, 1 or 2, every line printed and every JSON
file written must be strict JSON (no ``NaN`` or ``Infinity``), and no CSV
field may hold a NaN or an infinity.  A command refused with status 2
prints its ``error:`` line alone: numpy raised no ``RuntimeWarning`` on
the way there.  The search is
derandomised and keeps no example database, so every run tries the same
configs and writes nothing outside its temporary directory.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from online_unlearning import cli
from online_unlearning.harness import CONFIG_SCHEMA

from conftest import strict_json

_NUMBERS = [0.0, 1e-300, 1e-12, 1e-3, 0.1, 0.5, 1.0, 2.0, 3.0, 10.0, 1e3, 1e12, 1e300]

# Sizes kept small so the whole search stays near a second; ``sweep`` is left
# out because its keys are free-form dotted paths, not a schema of their own.
_OVERRIDES = {
    "dimension": st.integers(1, 4),
    "horizon": st.integers(1, 60),
    "seeds": st.lists(st.integers(0, 3), min_size=1, max_size=2),
    "mc_samples": st.sampled_from([0, 0, 50]),
    "mu": st.sampled_from([0.1, 0.5, 1.0, 0.0, 1e-300]),
    "beta": st.sampled_from([1.0, 3.0, 10.0, 1e12, 1e300, 1e-300]),
}
_LEFT_OUT = {"sweep"}


def _above(schema: dict, value: float) -> bool:
    return value >= schema.get("minimum", -float("inf")) and (
        "exclusiveMinimum" not in schema or value > schema["exclusiveMinimum"])


def _values(schema: dict, name: str | None = None):
    """A strategy for instances of ``schema``, as small as the overrides ask."""
    if name in _OVERRIDES:
        return _OVERRIDES[name]
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "object":
        props = {key: sub for key, sub in schema["properties"].items() if key not in _LEFT_OUT}
        optional = sorted(set(props) - set(schema.get("required", ())))
        full = st.fixed_dictionaries({key: _values(sub, key) for key, sub in props.items()})
        dropped = st.sampled_from([None] * (3 * len(optional)) + optional)  # 1 in 4 drops one
        return st.tuples(full, dropped).map(
            lambda pair: {k: v for k, v in pair[0].items() if k != pair[1]})
    if kind == "array":
        return st.lists(_values(schema["items"]), min_size=schema.get("minItems", 0),
                        max_size=schema.get("maxItems", 4))
    if kind == "integer":
        low = schema.get("minimum", 0)
        return st.integers(low, low + 12)
    if kind == "number":
        return st.sampled_from([v for v in _NUMBERS if _above(schema, v)])
    return st.booleans()


def _finite_csv(path: Path) -> None:
    """Every field of a CSV, and every ``;``-separated entry of a vector field, is finite."""
    with open(path, newline="") as handle:
        for row in csv.reader(handle):
            for entry in (part for field in row for part in field.split(";")):
                try:
                    value = float(entry)
                except ValueError:
                    continue
                assert math.isfinite(value), (path.name, row)


@settings(max_examples=120, derandomize=True, database=None, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(_values(CONFIG_SCHEMA))
def test_every_schema_valid_config_exits_0_1_or_2_with_strict_json(raw):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(raw))
        for command in ("run", "certify"):
            out = Path(tmp) / command
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main([command, "--config", str(config), "--out", str(out)])
            assert code in (0, 1, 2), (command, raw)
            if code == 2:
                # numpy's floating-point warnings read "overflow encountered in ...".
                numpy_warnings = [f"{w.filename}:{w.lineno}: {w.message}" for w in caught
                                  if issubclass(w.category, RuntimeWarning)
                                  and "encountered in" in str(w.message)]
                assert not numpy_warnings, (command, raw, numpy_warnings)
            for line in stdout.getvalue().splitlines():
                strict_json(line)
            for path in out.rglob("*.json"):
                strict_json(path.read_text())
            for path in out.rglob("*.csv"):
                _finite_csv(path)
