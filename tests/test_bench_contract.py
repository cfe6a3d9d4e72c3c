"""The names the benchmark harness relies on still exist.

bench/run.py times each layer by wrapping the module attributes listed in
its BOUNDARIES, and times the tail functions by calling the scalar tails
in ``tail_times``.  Its plans run commands with flags, and ``engine_time``
calls ``pairwise_row_correlations`` with keywords.  A name that
disappears would silently zero a per-layer metric or break the traced
run, so all are read from the harness source here (parsed, not
imported) and checked against the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from rankmerge import cli, rstats
from rankmerge.matrix import DataMatrix
from rankmerge.numerics import LogP

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.fixture(scope="module")
def run_py() -> ast.Module:
    if not RUN_PY.exists():
        pytest.skip("bench/run.py is not in this checkout")
    return ast.parse(RUN_PY.read_text(encoding="utf-8"))


def _assigned(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/run.py assigns no {name}")


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    return next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == name)


def test_every_boundary_resolves_to_a_callable(run_py):
    boundaries = _assigned(run_py, "BOUNDARIES")
    assert boundaries
    for module, attr, _layer in boundaries:
        mod = importlib.import_module(f"rankmerge.{module}")
        assert callable(getattr(mod, attr, None)), f"rankmerge.{module}.{attr}"


def test_tail_times_calls_scalar_tails_that_take_one_float(run_py):
    called = {node.func.attr for node in ast.walk(_function(run_py, "tail_times"))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "numerics"}
    assert called == {"chi_sq_upper_tail_ln", "norm_upper_tail_ln"}
    numerics = importlib.import_module("rankmerge.numerics")
    assert isinstance(numerics.chi_sq_upper_tail_ln(3.5, 2), LogP)
    assert isinstance(numerics.norm_upper_tail_ln(1.25), LogP)


def test_ingest_calls_the_wrapped_parsers_by_bare_name(run_py):
    """The ingest parse spans wrap the ``cli`` attributes, so they time
    the whole parse only while ``cmd_ingest`` calls those names."""
    wrapped = {attr for module, attr, layer in _assigned(run_py, "BOUNDARIES")
               if module == "cli" and layer == "ingest"}
    parsers = {"parse_series_matrix", "parse_annotation"}
    assert parsers <= wrapped
    cli = importlib.import_module("rankmerge.cli")
    ingest = importlib.import_module("rankmerge.ingest")
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    calls = [node.func for node in ast.walk(_function(tree, "cmd_ingest"))
             if isinstance(node, ast.Call)]
    bare = {f.id for f in calls if isinstance(f, ast.Name)}
    dotted = {f.attr for f in calls if isinstance(f, ast.Attribute)}
    assert parsers <= bare and not parsers & dotted
    for name in parsers:
        assert getattr(cli, name) is getattr(ingest, name)


def test_every_plan_flag_is_declared_by_its_command(run_py):
    _, commands = cli._build_parser()
    plans = [node.args[1].elts for node in ast.walk(run_py)
             if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "Command"
             and isinstance(node.args[1], ast.List)]
    assert plans
    for argv in plans:
        command = argv[0].value
        declared = {o for a in commands[command]._actions for o in a.option_strings}
        flags = {e.value for e in argv if isinstance(e, ast.Constant)
                 and isinstance(e.value, str) and e.value.startswith("--")}
        assert flags <= declared, (command, flags - declared)


def test_engine_time_keywords_are_accepted(run_py):
    calls = [node for node in ast.walk(_function(run_py, "engine_time"))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", "") == "pairwise_row_correlations"]
    assert len(calls) == 1
    keywords = calls[0].keywords
    inspect.signature(rstats.pairwise_row_correlations).bind(
        None, None, **{k.arg: None for k in keywords})
    literal = {k.arg: ast.literal_eval(k.value) for k in keywords
               if isinstance(k.value, ast.Constant)}
    m = DataMatrix(("a", "b", "c"), ("x", "y", "z"),
                   [[1.0, 2.0, 4.0], [2.0, 1.0, 3.0], [0.0, 1.0, 1.0]])
    res = rstats.pairwise_row_correlations(m, lambda a, b, r: None, **literal)
    assert res.emitted == 3
