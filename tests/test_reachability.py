"""Every package function is entered by some command, except a named few.

``run``, ``certify`` and ``regret-report`` run through ``cli.main`` under
``sys.setprofile`` on the golden configs, the shipped config, two small
configs that take the rate kinds and the grid the others leave out, and the
benchmark's workloads in their small copies.  A function that no command
enters is either in ``UNREACHED``, with the ROADMAP item that will reach it,
or it is code to delete; so no benchmark workload reaches it either.
"""

import importlib.util
import inspect
import json
import pkgutil
import sys
import types
from pathlib import Path

import online_unlearning
from online_unlearning.cli import main as cli_main

from test_golden import CONFIGS, _config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

UNREACHED = {
    "certifier.gaussian_renyi",               # item 4 folds it into the oracle's Gaussian form
    "passive.run_ogd",                        # item 9: the noise-free regret of the run
    "regret._projected_gd",                   # item 14: the comparator's fallback off the ball
    "trace.RunTrace.output_at",               # a one-line accessor of the 1-based public API
    "certifier.McDivergenceReport.wide",      # a one-line accessor of the 1-based public API
}

EXTRA_CONFIGS = {
    "constant-worst-case": _config(rate={"kind": "constant-worst-case"}),
    "constant-grid": _config(algorithm="discard", rate={"kind": "constant"},
                             sweep={"rate.eta": [0.1, 0.2]}),
}


def _workload_configs() -> dict:
    """The benchmark workloads' configs at ``shrink=True`` (T = 200), seed 0."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return {f"workload-{name}": module.build(name, 0, shrink=True).config for name in module.NAMES}


def _package_functions() -> dict:
    """``(file, first line) -> module.qualname`` of every named function and method.

    Lambdas, comprehensions and nested functions are left out, and so are
    class bodies.
    """
    found = {}
    for info in pkgutil.iter_modules(online_unlearning.__path__):
        path = online_unlearning.__path__[0] + f"/{info.name}.py"
        stack = [compile(Path(path).read_text(), path, "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    if "<" not in const.co_qualname and const.co_flags & inspect.CO_OPTIMIZED:
                        found[(path, const.co_firstlineno)] = f"{info.name}.{const.co_qualname}"
    return found


def test_every_function_but_the_named_few_is_entered(tmp_path, capsys):
    # One seed of the shipped config takes every path its four seeds take.
    shipped = {**json.loads((CONFIG_DIR / "passive_sc.json").read_text()), "seeds": [0]}
    configs = {**CONFIGS, **EXTRA_CONFIGS, "shipped": shipped, **_workload_configs()}
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    for name, raw in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(raw))
        for command in ("run", "certify", "regret-report"):
            sys.setprofile(record)
            try:
                code = cli_main([command, "--config", str(path), "--out", str(tmp_path / "out")])
            finally:
                sys.setprofile(None)
            assert code in (0, 1), (name, command)
    capsys.readouterr()
    keys = {(code.co_filename, code.co_firstlineno) for code in entered}
    never = {name for key, name in _package_functions().items() if key not in keys}
    assert never == UNREACHED
