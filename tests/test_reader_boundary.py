"""Input files are read behind ``rankmerge.ingest``.

``ingest.text_lines`` and ``ingest.read_tab_table`` are the readers of
every text input; they decode through ``ingest.open_text``, so an
undecodable file exits 2 naming it.  This check parses ``rstats.py`` and
``cli.py`` (it does not import them) and fails on a builtin ``open``
without a write mode, and on an ``open_text`` call anywhere but
``cli._load_config``, whose JSON is read by ``json.load``.
"""

import ast
from pathlib import Path

import pytest

import rankmerge

SRC = Path(rankmerge.__file__).resolve().parent
OPEN_TEXT_CALLERS = {("cli", "_load_config")}


def calls(module: str):
    """(module, enclosing function, call) for every call in ``module``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                found.append((module, where, child))
            visit(child, where)

    visit(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")), None)
    return found


def mode(call: ast.Call):
    """The mode argument of an ``open`` call, "r" when absent."""
    arg = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    return arg.value if isinstance(arg, ast.Constant) else None


def name(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


@pytest.mark.parametrize("module", ["rstats", "cli"])
def test_builtin_open_only_writes(module):
    reads = [(where, call.lineno) for _, where, call in calls(module)
             if isinstance(call.func, ast.Name) and call.func.id == "open"
             and not (isinstance(mode(call), str) and set(mode(call)) & set("wax"))]
    assert reads == [], f"{module}.py opens an input with open()"


@pytest.mark.parametrize("module", ["rstats", "cli"])
def test_open_text_only_for_the_config(module):
    callers = {(m, where) for m, where, call in calls(module)
               if name(call) == "open_text"}
    assert callers <= OPEN_TEXT_CALLERS
