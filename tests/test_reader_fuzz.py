"""Hypothesis fuzzing of the readers of GMT files, results tables,
dataset directories (formats 1 and 2) and --config files.

Each reader gets arbitrary bytes and near-valid text: a valid file with
a few characters inserted, replaced or deleted.  Only the documented
exception types may escape a reader, and through ``cli.main`` each case
ends in its row of the exit-code table (2 for a malformed input), never
in an uncaught exception.
"""

import argparse
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankmerge.cli import _UsageError, _build_parser, _load_config, _resolve_options, main
from rankmerge.errors import ManifestError, ParseError
from rankmerge.ingest import load_dataset, save_dataset
from rankmerge.matrix import DataMatrix, Dataset, InfoMatrix
from rankmerge.numerics import LogP
from rankmerge.rstats import TestResult as Result
from rankmerge.rstats import parse_gmt, read_results_tsv, write_results_tsv

FIXTURES = Path(__file__).parent / "fixtures"
DOCUMENTED = (ParseError, ManifestError)
EXIT_CODES = range(9)

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

EDITS = st.one_of(
    st.sampled_from(["\t", "\n", "\r", "\r\n", " ", "", "NA", "nan", "inf",
                     "-", "1e999", "0", "x", '"', "[", "]", "{", "}", ",", ":",
                     "\x00", "\x1c", "\u2028", "\ufeff"]),
    st.characters(blacklist_categories=("Cs",)))


@st.composite
def near(draw, text: str) -> str:
    """``text`` with a few characters inserted, replaced or deleted."""
    chars = list(text)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(chars)))
        edit, op = draw(EDITS), draw(st.sampled_from(["insert", "replace", "delete"]))
        if op == "insert" or i == len(chars):
            chars.insert(i, edit)
        else:
            chars[i] = edit if op == "replace" else ""
    return "".join(chars)


def file_bytes(text: str):
    """Near-valid text (sometimes with a byte that is not UTF-8), or any bytes."""
    return st.one_of(
        near(text).map(str.encode),
        st.tuples(near(text).map(str.encode), st.integers(0, len(text))).map(
            lambda t: t[0][:t[1]] + b"\xff" + t[0][t[1]:]),
        st.binary(max_size=200))


@st.composite
def nested_json(draw) -> str:
    """Deeply nested arrays or objects, closed or not."""
    depth = draw(st.sampled_from([2, 500, 5000, 100000]))
    opener, closer = draw(st.sampled_from([("[", "]"), ('{"a":', "}")]))
    inner = draw(st.sampled_from(["1", "", "{}"]))
    closers = closer * draw(st.sampled_from([depth, depth // 2, 0]))
    return opener * depth + inner + closers


def json_bytes(text: str):
    return st.one_of(file_bytes(text), nested_json().map(str.encode))


def outcome(read, *args):
    """What ``read`` returned, or the documented error it raised."""
    try:
        return read(*args)
    except DOCUMENTED as exc:
        return exc


def run(argv) -> int:
    code = main([str(a) for a in argv])
    assert code in EXIT_CODES
    return code


# ---------------------------------------------------------------------------
# GMT and results tables, read directly and through ``enrich``
# ---------------------------------------------------------------------------

GMT_TEXT = (FIXTURES / "sets_small.gmt").read_text()


def results_text() -> str:
    rows = [Result(f"G{i}", 1.5 - i, LogP.from_p(p), LogP.from_p(p), d)
            for i, (p, d) in enumerate([(1e-5, "over"), (0.02, "under"),
                                        (0.7, "none")])]
    rows.append(Result("G3", float("nan"), None, None, "none"))
    buf = io.StringIO()
    write_results_tsv(rows, buf)
    return buf.getvalue()


RESULTS_TEXT = results_text()


@FUZZ
@given(file_bytes(GMT_TEXT))
def test_gmt_bytes(tmp_path, data):
    gmt, results, out = tmp_path / "sets.gmt", tmp_path / "r.tsv", tmp_path / "e.tsv"
    gmt.write_bytes(data)
    results.write_text(RESULTS_TEXT)
    out.unlink(missing_ok=True)
    got = outcome(parse_gmt, gmt)
    code = run(["enrich", results, gmt, "--out", out])
    assert code == (2 if isinstance(got, ParseError) else 0)
    assert out.exists() == (code == 0)


@FUZZ
@given(file_bytes(RESULTS_TEXT))
def test_results_bytes(tmp_path, data):
    results, out = tmp_path / "r.tsv", tmp_path / "e.tsv"
    results.write_bytes(data)
    out.unlink(missing_ok=True)
    got = outcome(read_results_tsv, results)
    code = run(["enrich", results, FIXTURES / "sets_small.gmt", "--out", out])
    if isinstance(got, ParseError):
        assert code == 2
    else:
        assert code == (0 if len(got) else 8)  # no rows: an empty universe
    assert out.exists() == (code == 0)


# ---------------------------------------------------------------------------
# dataset directories, read directly and through ``split-het``
# ---------------------------------------------------------------------------

def base_files(tmp_path: Path, version: int) -> dict[str, bytes]:
    """The files of a small valid dataset directory in ``version``."""
    root = tmp_path / f"base{version}"
    data = DataMatrix(("A", "B", "C"), ("s1", "s2", "s3", "s4"),
                      np.array([[1.0, -2.0, 0.5, -0.25], [3.0, np.nan, 1.0, 2.0],
                                [0.0, 1.5, -1.0, 4.0]]))
    info = InfoMatrix(("grp", "site"), data.col_names,
                      (("a", "a", "b", "b"), ("x", "y", "x", "y")))
    save_dataset(Dataset(data, info, name="toy", source="toy.txt", seed=1), root)
    if version == 1:
        rows = ["\t".join(["feature", *data.col_names])]
        rows += ["\t".join([n, *("NA" if np.isnan(v) else repr(v) for v in row)])
                 for n, row in zip(data.row_names, data.values.tolist())]
        (root / "data.tsv").write_text("\n".join(rows) + "\n")
        (root / "data.npy").unlink()
        (root / "features.txt").unlink()
        manifest = json.loads((root / "manifest.json").read_text())
        (root / "manifest.json").write_text(json.dumps({**manifest, "version": 1}))
    return {p.name: p.read_bytes() for p in root.iterdir()}


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bases")
    return {version: base_files(tmp, version) for version in (1, 2)}


def directory(tmp_path, files: dict[str, bytes], version: int) -> Path:
    root = tmp_path / f"ds{version}"
    root.mkdir(exist_ok=True)
    for name, body in files.items():
        (root / name).write_bytes(body)
    return root


TEXT_FILES = {1: ("manifest.json", "info.tsv", "data.tsv"),
              2: ("manifest.json", "info.tsv", "features.txt")}


@FUZZ
@given(st.data())
def test_dataset_directory_bytes(tmp_path, bases, data):
    version = data.draw(st.sampled_from([1, 2]))
    name = data.draw(st.sampled_from(TEXT_FILES[version]
                                     + (("data.npy",) if version == 2 else ())))
    body = bases[version][name]
    if name == "data.npy":
        # one byte replaced: a header or value fault, never a large shape
        i = data.draw(st.integers(0, len(body) - 1))
        body = body[:i] + bytes([data.draw(st.integers(0, 255))]) + body[i + 1:]
    else:
        body = data.draw((json_bytes if name == "manifest.json" else file_bytes)(
            body.decode()))
    root = directory(tmp_path, {**bases[version], name: body}, version)
    got = outcome(load_dataset, root)
    code = run(["split-het", root, "--feature", "A"])
    assert (code == 2) == isinstance(got, DOCUMENTED)


def test_valid_directories_load(tmp_path, bases):
    for version in (1, 2):
        ds = load_dataset(directory(tmp_path, bases[version], version))
        assert ds.data.n_rows == 3 and ds.info.field_names == ("grp", "site")


# ---------------------------------------------------------------------------
# --config files, read directly and through ``split-het``
# ---------------------------------------------------------------------------

CONFIG_TEXT = json.dumps({"seed": 3, "threads": 2, "test": {"fdr": 0.1},
                          "name": "x"})


def refused(config: dict, command: str = "split-het") -> bool:
    """Whether ``config`` gives an option of ``command`` (split-het has
    --seed alone) a value that does not match its declaration, or has a
    key in the command's section that is none of its options."""
    _, commands = _build_parser()
    try:
        _resolve_options(argparse.Namespace(command=command), config,
                         commands[command])
    except _UsageError:
        return True
    return False


@FUZZ
@given(json_bytes(CONFIG_TEXT))
def test_config_bytes(tmp_path, bases, data):
    root = directory(tmp_path, bases[2], 2)
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(data)
    got = outcome(_load_config, str(cfg))
    assert isinstance(got, (dict, ParseError))
    code = run(["--config", cfg, "split-het", root, "--feature", "A"])
    assert code == (2 if isinstance(got, ParseError)
                    else 1 if refused(got) else 0)


# near-valid configs whose values parse as JSON but fail the declaration
# of split-het's --seed or of pairwise's --threads: 1e999 reads as inf,
# quotes make a string; or whose split-het section has a key that is no
# option of it
@pytest.mark.parametrize("text, key", [
    ('{"split-het": {"chunk": 4}}', "chunk"),
    ('{"split-het": {"feature": "A"}}', "feature"),
    ('{"seed": 31e999}', "seed"),
    ('{"seed": "3"}', "seed"),
    ('{"seed": 3.5}', "seed"),
    ('{"threads": true}', "threads"),
    ('{"threads": null}', "threads"),
])
def test_config_value_refused(tmp_path, bases, capsys, text, key):
    root = directory(tmp_path, bases[2], 2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    # pairwise alone declares --threads
    command = "pairwise" if key == "threads" else "split-het"
    assert refused(_load_config(str(cfg)), command)
    argv = (["pairwise", root, "--out", tmp_path / "pairs.txt"]
            if command == "pairwise" else ["split-het", root, "--feature", "A"])
    assert run(["--config", cfg, *argv]) == 1
    assert f"config key {key!r}" in capsys.readouterr().err


def test_config_values_accepted(tmp_path, bases):
    root = directory(tmp_path, bases[2], 2)
    cfg = tmp_path / "cfg.json"
    for text in (CONFIG_TEXT, '{"seed": 3.0, "threads": 1}',
                 '{"name": 1e999, "test": 0.1, "split-het": {}}'):
        cfg.write_text(text)
        assert not refused(_load_config(str(cfg)))
        assert run(["--config", cfg, "split-het", root, "--feature", "A"]) == 0
