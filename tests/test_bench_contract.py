"""The names the benchmark harness relies on still exist.

bench/run.py times each layer by wrapping the module attributes listed in
its BOUNDARIES, and times the tail functions by calling the scalar tails
in ``tail_times``.  A name that disappears would silently zero a
per-layer metric or break the traced run, so both are read from the
harness source here (parsed, not imported) and checked against the
package.
"""

import ast
import importlib
from pathlib import Path

import pytest

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
