"""The process entry of the CLI: ``python -m rankmerge.cli`` and the
installed ``rankmerge`` script behave exactly like ``main(argv)`` called
in-process, and only they freeze the start-up objects out of the cycle
collector."""

import filecmp
import gc
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from rankmerge.cli import main

from test_cli_options import readme_commands

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"

# Each child prints gc.get_freeze_count() to stderr as its last act.
REPORT_FREEZE = ("import atexit, gc, sys; atexit.register(lambda: "
                 "sys.stderr.write(f'frozen={gc.get_freeze_count()}\\n'))")
ENTRIES = {
    # what -m does: run the module as __main__ with sys.argv set
    "python -m": "import runpy; runpy.run_module("
                 "'rankmerge.cli', run_name='__main__', alter_sys=True)",
    # what the console-script wrapper of [project.scripts] does
    "rankmerge script": "from rankmerge.cli import main; sys.exit(main())",
}


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def _child(args: list[str], cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=_env(), timeout=120, cwd=cwd)


def _in_process(capsys, argv) -> tuple[int, str, str]:
    frozen = gc.get_freeze_count()
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    assert gc.get_freeze_count() == frozen  # main(argv) never freezes
    return code, out.out, out.err


def _ingest_argv(series: str, out: Path) -> list:
    return ["ingest", FIXTURES / series, FIXTURES / "annotation_small.tsv",
            "--out", out]


@pytest.mark.parametrize("series,code", [("series_small.txt", 0),
                                         ("bad_missing_end.txt", 2)])
def test_python_m_matches_in_process_main(tmp_path, capsys, series, code):
    argv = _ingest_argv(series, tmp_path / "child")
    child = _child(["-m", "rankmerge.cli", *map(str, argv)])
    got = _in_process(capsys, _ingest_argv(series, tmp_path / "inproc"))
    assert (child.returncode, child.stdout, child.stderr) == got
    assert got[0] == code
    if code == 0:
        assert got[1].startswith("probes=3 ")
        files = sorted(p.name for p in (tmp_path / "inproc").iterdir())
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "child", tmp_path / "inproc", files, shallow=False)
        assert (mismatch, errors) == ([], []) and match
    else:
        assert got[2].startswith("error: ") and "line 3" in got[2]
        assert not (tmp_path / "child").exists()


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


def test_readme_walkthrough_as_processes(tmp_path, capsys, monkeypatch):
    """Each command of README's walkthrough in its own process, which
    imports only that command's modules, exits 0 with the stdout and
    the files of ``main(argv)`` run in-process."""
    child, inproc = tmp_path / "child", tmp_path / "inproc"
    for root in (child, inproc):
        shutil.copytree(FIXTURES, root / "tests" / "fixtures")
    monkeypatch.chdir(inproc)
    for argv in readme_commands():
        proc = _child(["-m", "rankmerge.cli", *argv], cwd=child)
        assert (proc.returncode, proc.stdout, proc.stderr) \
            == _in_process(capsys, argv) == (0, proc.stdout, ""), argv
    assert _files(child) == _files(inproc)


def test_console_script_targets_main():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'rankmerge = "rankmerge.cli:main"' in text


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("series,code", [("series_small.txt", 0),
                                         ("bad_missing_end.txt", 2)])
def test_process_entry_freezes(tmp_path, entry, series, code):
    argv = ["rankmerge", *map(str, _ingest_argv(series, tmp_path / "out"))]
    script = (f"{REPORT_FREEZE}; sys.argv = {argv!r}; {ENTRIES[entry]}")
    child = _child(["-c", script])
    assert child.returncode == code
    frozen = int(child.stderr.splitlines()[-1].removeprefix("frozen="))
    # the numpy, stdlib and rankmerge objects alive after the imports
    assert frozen > 10_000
