"""Every optional flag resolves by one rule: the flag, else the command's
config section, else the top-level config key, else the default that
its ``add_argument`` call declares.

The cases are generated from ``cli._build_parser``, so a flag added
there is covered here without a new test; one whose value cannot be
derived from its declaration needs an entry in ``option_values``.
"""

import ast
import contextlib
import io
import json
import shlex
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from rankmerge import cli
from rankmerge.ingest import load_dataset

from test_cli import FIXTURES, fabricated_results, make_ds, run

README = Path(__file__).resolve().parents[1] / "README.md"
_, COMMANDS = cli._build_parser()
OPTIONS = [(name, action) for name, parser in COMMANDS.items()
           for action in parser._actions if hasattr(action, "declared")]
OPTION_IDS = [f"{name}-{action.dest}" for name, action in OPTIONS]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(5)
    rows = [f"g{i}" for i in range(20)]
    vals = rng.normal(size=(20, 12))
    vals[4, :6] += 5.0
    # "sel" matches 3 samples exactly and 6 as a substring
    grouped = make_ds(root, "grouped", rows, [f"s{j}" for j in range(12)],
                      vals, fields=["grp"],
                      cells=[("sel",) * 3 + ("selx",) * 3 + ("rest",) * 6])
    a, b, c = (make_ds(root, n, rows, [f"{n}{j}" for j in range(4)],
                       rng.normal(size=(20, 4))) for n in "abc")
    ranked = root / "ranked.tsv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["test", grouped, "--test", "kw", "--field", "grp",
                         "--out", str(ranked)]) == 0
    enrich_results = root / "enrich.tsv"
    fabricated_results(enrich_results)
    universe = root / "universe.txt"
    universe.write_text("".join(f"G{i}\n" for i in range(8)))
    return SimpleNamespace(grouped=grouped, a=a, b=b, c=c, ranked=ranked,
                           enrich_results=enrich_results, universe=universe)


def base_argv(command, i, out):
    """Positional and required arguments of a run writing under ``out``."""
    return {
        "ingest": [FIXTURES / "series_small.txt",
                   FIXTURES / "annotation_multi.tsv", "--out", out / "ds"],
        "score": [i.grouped, "--kind", "vdw", "--out", out / "ds"],
        "merge": [i.a, i.b, "--out", out / "ds"],
        "select": [i.grouped, "--field", "grp", "--keyword", "sel",
                   "--out", out / "ds"],
        "partition": [i.grouped, "--sizes", "5,7", "--out", out / "parts"],
        "median-cor": [i.a, i.b, i.c, "--out", out / "m.tsv"],
        "pairwise": [i.grouped, "--out", out / "pairs.txt"],
        "test": [i.grouped, "--test", "wilcoxon", "--out", out / "r.tsv"],
        "pca": [i.grouped, "--out-svg", out / "p.svg"],
        "factor-plot": [i.a, i.b, i.c, "--out-svg", out / "f.svg"],
        "enrich": [i.enrich_results, FIXTURES / "sets_small.gmt",
                   "--out", out / "e.tsv"],
        "split-het": [i.grouped, "--feature", "g4"],
    }[command]


def option_values(i, out):
    """A value for each option that takes a value and has no choices."""
    return {"seed": 9, "threads": 2, "name": "renamed",
            "field": "grp", "keyword": "sel", "fdr": 0.5, "top": 3,
            "features": "g1,g2,g4", "results": str(i.ranked),
            "label_field": "grp", "out_tsv": str(out / "plot.tsv"),
            "universe": str(i.universe), "threshold": 0.0005}


def needed(command, dest, values):
    """Options a successful run needs, less the one under test."""
    if command == "test":
        want = {"field": values["field"], "keyword": values["keyword"]}
    elif command == "pca" and dest in ("top", "results"):
        want = {"top": values["top"], "results": values["results"]}
    elif command == "pca":
        want = {"features": values["features"]}
    else:
        want = {}
    want.pop(dest, None)
    return want


def value_for(action, values):
    """A value other than the declared default."""
    if action.nargs == 0:
        return True
    if action.choices is not None:
        return [c for c in action.choices if c != action.declared][-1]
    return values[action.dest]


def flag(command, dest, value):
    action = next(a for a in COMMANDS[command]._actions if a.dest == dest)
    return [action.option_strings[0]] + ([] if action.nargs == 0 else [value])


def outcome(capsys, out, argv):
    """Exit code, stdout, stderr and every file written under ``out``."""
    out.mkdir()
    code, stdout, stderr = run(capsys, *argv)
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return code, stdout, stderr, files


@pytest.mark.parametrize("command,action", OPTIONS, ids=OPTION_IDS)
def test_flag_section_and_top_level_key_agree(tmp_path, capsys, inputs,
                                              command, action):
    dest, seen = action.dest, []
    for how in ("flag", "section", "top-level"):
        out = tmp_path / how
        values = option_values(inputs, out)
        value = value_for(action, values)
        argv = [command, *base_argv(command, inputs, out)]
        for key, v in needed(command, dest, values).items():
            argv += flag(command, key, v)
        if how == "flag":
            argv += flag(command, dest, value)
        else:
            cfg = tmp_path / f"{how}.json"
            cfg.write_text(json.dumps(
                {command: {dest: value}} if how == "section" else {dest: value}))
            argv += ["--config", cfg]
        seen.append(outcome(capsys, out, argv))
    assert seen[0][0] == 0, seen[0][2]
    assert seen[1] == seen[0]
    assert seen[2] == seen[0]


@pytest.mark.parametrize("placement", ["section", "top-level"])
@pytest.mark.parametrize("command,action", OPTIONS, ids=OPTION_IDS)
def test_bad_config_value_exit_1_before_any_output(tmp_path, capsys, inputs,
                                                   command, action, placement):
    wrong_type = 1 if action.nargs == 0 else (
        "5" if action.type in (int, float) else 5)
    out = tmp_path / "out"
    out.mkdir()
    for value in [wrong_type] + (["nonesuch"] if action.choices else []):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({command: {action.dest: value}}
                                  if placement == "section"
                                  else {action.dest: value}))
        code, stdout, stderr = run(capsys, command,
                                   *base_argv(command, inputs, out),
                                   "--config", cfg)
        assert code == 1 and stdout == ""
        assert stderr.startswith(
            f"error: config key {action.dest!r} must be "), stderr
        assert f"got {value!r}" in stderr
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_unknown_key_in_command_section_exit_1(tmp_path, capsys, inputs,
                                               command):
    # in the section, a key that is none of the command's options is
    # refused ("out" is an argument, not a config key); at top level
    # the keys are shared by every command, and one it lacks is ignored
    out = tmp_path / "out"
    out.mkdir()
    for key in ("nonesuch", "chunk", "out", "config"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({command: {key: 4}}))
        code, stdout, stderr = run(capsys, command,
                                   *base_argv(command, inputs, out),
                                   "--config", cfg)
        assert (code, stdout) == (1, "")
        assert stderr == (f"error: config key {key!r} is unknown in section "
                          f"{command!r}\n")
        assert list(out.iterdir()) == []
    top = {"nonesuch": 4, "chunk": 4, "out": 4}
    if command != "pairwise":  # pairwise alone declares --threads
        top["threads"] = 0
    cfg.write_text(json.dumps(top))
    argv = [command, *base_argv(command, inputs, out), "--config", cfg]
    for key, value in needed(command, None, option_values(inputs, out)).items():
        argv += flag(command, key, value)
    code, _, stderr = run(capsys, *argv)
    assert code == 0, stderr


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_threads_below_one_exit_1_before_any_output(tmp_path, capsys, inputs,
                                                     command, how):
    # pairwise alone declares --threads and refuses a count below 1 from
    # the flag, its section or the top-level key; every other command
    # refuses the flag and the section key, whatever the count
    out = tmp_path / "out"
    out.mkdir()
    if command == "pairwise":
        refusal = "error: threads must be >= 1, got 0\n"
        cases = ([(["--threads", "0"], refusal)] if how == "flag" else
                 [({command: {"threads": 0}}, refusal), ({"threads": 0}, refusal)])
    elif how == "flag":
        cases = [(["--threads", n],
                  f"error: rankmerge: unrecognized arguments: --threads {n}\n")
                 for n in ("0", "2")]
    else:
        cases = [({command: {"threads": n}}, f"error: config key 'threads' "
                  f"is unknown in section {command!r}\n") for n in (0, 2)]
    for given, want in cases:
        if how == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(given))
            given = ["--config", cfg]
        code, stdout, stderr = run(capsys, command,
                                   *base_argv(command, inputs, out), *given)
        assert (code, stdout) == (1, "")
        assert stderr == want
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("config", [{"seed": 5}, {"partition": {"seed": 11}},
                                    {"seed": 5, "partition": {"seed": 11}}])
@pytest.mark.parametrize("before", [True, False])
def test_seed_flag_beats_config_on_either_side_of_the_command(
        tmp_path, capsys, inputs, config, before):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    seed = ["--seed", "9"]
    argv = [*(seed if before else []), "--config", cfg, "partition",
            *base_argv("partition", inputs, tmp_path), *([] if before else seed)]
    code, stdout, _ = run(capsys, *argv)
    assert code == 0 and "seed=9\n" in stdout
    assert load_dataset(tmp_path / "parts" / "part1").seed == 9


@pytest.mark.parametrize("leading", [["--threads", "2"], ["--bogus", "3"],
                                     ["--threads=2"], ["-x"]])
def test_flag_before_the_command_name_is_named(tmp_path, capsys, inputs, leading):
    # argparse alone would read the flag's value as the command name
    out = tmp_path / "out"
    out.mkdir()
    code, stdout, stderr = run(capsys, *leading, "pairwise",
                               *base_argv("pairwise", inputs, out))
    name = leading[0].partition("=")[0]
    assert (code, stdout, list(out.iterdir())) == (1, "", [])
    assert stderr == (f"error: rankmerge: {name} goes after the command name "
                      f"(only --seed and --config go before it)\n")


@pytest.mark.parametrize("seed", [["--seed", "3"], ["--seed=3"], ["--se", "3"]])
def test_seed_before_the_command_name_still_runs(tmp_path, capsys, inputs, seed):
    code, stdout, _ = run(capsys, *seed, "pairwise",
                          *base_argv("pairwise", inputs, tmp_path))
    assert code == 0 and stdout.startswith("pairs=")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_shows_each_default(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "SUPPRESS" not in text
    options = text[text.index("options:"):]
    formatter = COMMANDS[command]._get_formatter()
    starts = [(options.index(formatter._format_action_invocation(a)), a)
              for a in COMMANDS[command]._actions if a.option_strings]
    ends = [s for s, _ in starts[1:]] + [len(options)]
    for (start, action), end in zip(starts, ends):
        shown = getattr(action, "declared", None)
        if shown is not None:
            assert f"(default: {shown})" in options[start:end], action.dest


def test_score_help_states_what_scoring_assumes(capsys):
    with pytest.raises(SystemExit):
        cli.main(["score", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "this assumes most features unchanged (see README)" in text


def readme_rows():
    """The expected rows of the README's table of config keys."""
    rows = {}
    for command, action in OPTIONS:
        kind = ("true or false" if action.nargs == 0 else
                {int: "integer", float: "number"}.get(action.type, "string"))
        choices = ", ".join(f"`{c}`" for c in action.choices or ())
        key = (action.dest, action.option_strings[0], kind, choices,
               json.dumps(action.declared))
        rows.setdefault(key, []).append(command)
    lines = []
    for (dest, flag_, kind, choices, default), commands in sorted(rows.items()):
        where = ("every command" if len(commands) == len(COMMANDS)
                 else ", ".join(f"`{c}`" for c in commands))
        lines.append(f"| `{dest}` | `{flag_}` | {kind} | {choices} "
                     f"| `{default}` | {where} |")
    return lines


def readme_commands():
    """The argument list of each ``rankmerge`` command in README's
    walkthrough, its backslash continuations joined."""
    text = README.read_text(encoding="utf-8").replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("rankmerge ")]


def test_readme_walkthrough_runs(tmp_path, monkeypatch, capsys):
    # every command, in order, where the walkthrough's tests/fixtures
    # paths resolve; each exits 0
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(COMMANDS)
    shutil.copytree(FIXTURES, tmp_path / "tests" / "fixtures")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, stderr = run(capsys, *argv)
        assert code == 0, (argv, stderr)


def test_readme_lists_every_config_key():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Configuration"):]
    section = section[:section.index("\n## ", 1)]
    table = [line for line in section.splitlines() if line.startswith("| `")]
    assert table == readme_rows()


# ---------------------------------------------------------------------------
# one resolution path
# ---------------------------------------------------------------------------

CLI_TREE = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
FUNCTIONS = {f.name: f for f in CLI_TREE.body if isinstance(f, ast.FunctionDef)}


def users(name):
    """Top-level functions of ``cli`` that mention ``name``."""
    return {f for f, node in FUNCTIONS.items()
            if any(isinstance(n, ast.Name) and n.id == name
                   for n in ast.walk(node))}


def test_every_command_takes_args_alone():
    commands = {f: node for f, node in FUNCTIONS.items()
                if f.startswith("cmd_")}
    assert len(commands) == len(COMMANDS)
    for name, node in commands.items():
        a = node.args
        assert [p.arg for p in a.args] == ["args"], name
        assert not (a.posonlyargs or a.vararg or a.kwonlyargs or a.kwarg), name


def test_config_is_read_by_the_resolver_only():
    assert users("config") == {"main", "_resolve_options"}
    assert users("_load_config") == {"main"}
    assert users("_resolve_options") == {"main"}
    assert users("_config_value") == {"_resolve_options"}
