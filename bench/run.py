#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the rankmerge CLI.

Run from the repository root:

    python3 bench/run.py --workload merge-test --seed 1 --seconds 56 --trace 0
    python3 bench/run.py --workload merge-test --seed 1 --seconds 56 --trace 1
    python3 bench/run.py --smoke

A run writes the workload's inputs from --seed (bench/gen.py), then acts
as one closed-loop client: it runs the workload's CLI commands in
sequence, one process per command as users run them, and repeats the
whole pass while the next one should end within --seconds (at least two
passes).  Every output of every pass is checked.  The report lines name
each metric with its unit; the last stdout line is the JSON result, and
a record of the run (environment, per-pass numbers, spans) goes to
.bench_results/.

--trace 0 reports the end-to-end metrics over the passes (see upper_quartile).
--trace 1 runs one untraced pass, then the same commands in this process
through rankmerge.cli.main with spans around the public functions each
layer calls in another (bench/spans.py), and reports per-layer metrics.
--smoke runs every workload at a tiny size with every check, in seconds.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
from spans import Recorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

COMMAND_TIMEOUT_S = 150.0
RUN_BUDGET_S = 140.0  # cap on --seconds: runs must end within 180 s
SETUP_REPEATS = 6
STARTUP_REPEATS = 5
PAIRS_VERIFIED = 2000  # leading pairwise lines recomputed independently

# ---------------------------------------------------------------------------
# workload command plans
# ---------------------------------------------------------------------------


@dataclass
class Command:
    key: str              # metric name of the command: cli.<key>_s
    argv: list[str]
    expect: dict          # summary fields that must read exactly so
    outputs: list[Path]   # files or directories whose bytes must repeat


@dataclass
class Outcome:
    key: str
    wall_s: float
    rss_mb: float
    summary: dict
    errors: list[str] = field(default_factory=list)


def _merge_test_plan(inp: Path, out: Path, t: dict) -> list[Command]:
    g = t["genes"]
    cmds, scored = [], []
    for st in t["studies"]:
        acc = st["accession"]
        cmds.append(Command(
            "ingest", ["ingest", str(inp / f"{acc}_series_matrix.txt"),
                       str(inp / f"{acc}_annotation.tsv"), "--name", acc,
                       "--out", str(out / acc)],
            {"probes": st["probes"], "features": g, "samples": st["samples"],
             "unmapped": st["unmapped"], "multi_dropped": 0,
             "collapsed": st["collapsed"], "all_missing": 0},
            [out / acc]))
    for st in t["studies"]:
        acc = st["accession"]
        scored.append(str(out / f"{acc}.vdw"))
        cmds.append(Command(
            "score", ["score", str(out / acc), "--kind", "vdw",
                      "--out", scored[-1]],
            {"kind": "vdw", "features": g, "samples": st["samples"]},
            [Path(scored[-1])]))
    merged = str(out / "merged")
    cmds.append(Command("merge", ["merge", *scored, "--out", merged],
                        {"datasets": 3, "features": g,
                         "samples": t["samples"]}, [Path(merged)]))
    cmds.append(Command(
        "test_kw", ["test", merged, "--test", "kw", "--field", gen.STATUS_FIELD,
                    "--out", str(out / "kw.tsv")],
        {"features": g, "threshold": "0.05"}, [out / "kw.tsv"]))
    cmds.append(Command(
        "test_wilcoxon", ["test", merged, "--test", "wilcoxon",
                          "--field", gen.STATUS_FIELD, "--keyword", "case",
                          "--out", str(out / "wilcoxon.tsv")],
        {"features": g, "threshold": "0.05"}, [out / "wilcoxon.tsv"]))
    cmds.append(Command(
        "enrich", ["enrich", str(out / "kw.tsv"), str(inp / "sets.gmt"),
                   "--out", str(out / "enrich.tsv")],
        {"sets": t["sets"], "universe": g}, [out / "enrich.tsv"]))
    cmds.append(Command(
        "median_cor", ["median-cor", *scored, "--out",
                       str(out / "median_cor.tsv")],
        {"datasets": 3, "common_rows": g, "method": "pearson"},
        [out / "median_cor.tsv"]))
    return cmds


def _pairwise_expect(t: dict) -> dict:
    rows = t["rows"]
    emitted = math.comb(rows - t["constant"], 2)
    return {"pairs": emitted, "skipped": math.comb(rows, 2) - emitted}


def _coexpr_plan(inp: Path, out: Path, t: dict) -> list[Command]:
    ds = str(inp / "coexpr")
    return [
        Command("pairwise", ["pairwise", ds, "--threads", "2",
                             "--out", str(out / "pairs.txt")],
                _pairwise_expect(t), [out / "pairs.txt"]),
        Command("pca", ["pca", ds, "--features", ",".join(t["pca_features"]),
                        "--label-field", gen.TISSUE_FIELD,
                        "--out-svg", str(out / "pca.svg")],
                {"samples": t["samples"], "variables": len(t["pca_features"])},
                [out / "pca.svg"]),
    ]


def _small_cohort_plan(inp: Path, out: Path, t: dict) -> list[Command]:
    g, st = t["genes"], t["study"]
    acc = st["accession"]
    raw, scored = str(out / acc), str(out / f"{acc}.vdw")
    rows = t["subset_rows"]
    return [
        Command("ingest", ["ingest", str(inp / f"{acc}_series_matrix.txt"),
                           str(inp / f"{acc}_annotation.tsv"), "--name", acc,
                           "--out", raw],
                {"probes": st["probes"], "features": g,
                 "samples": st["samples"], "unmapped": st["unmapped"],
                 "multi_dropped": 0, "collapsed": 0, "all_missing": 0},
                [Path(raw)]),
        Command("score", ["score", raw, "--kind", "vdw", "--out", scored],
                {"kind": "vdw", "features": g, "samples": st["samples"]},
                [Path(scored)]),
        Command("test_wilcoxon", ["test", scored, "--test", "wilcoxon",
                                  "--field", gen.STATUS_FIELD,
                                  "--keyword", "case",
                                  "--out", str(out / "wilcoxon.tsv")],
                {"features": g, "threshold": "0.05"}, [out / "wilcoxon.tsv"]),
        Command("test_kw", ["test", scored, "--test", "kw",
                            "--field", gen.SUBTYPE_FIELD,
                            "--out", str(out / "kw.tsv")],
                {"features": g, "threshold": "0.05"}, [out / "kw.tsv"]),
        Command("pairwise", ["pairwise", str(inp / "subset"),
                             "--method", "spearman", "--threads", "2",
                             "--out", str(out / "pairs.txt")],
                {"pairs": t["subset_emitted"],
                 "skipped": math.comb(rows, 2) - t["subset_emitted"]},
                [out / "pairs.txt"]),
    ]


PLANS = {"merge-test": _merge_test_plan, "coexpr-pairwise": _coexpr_plan,
         "small-cohort": _small_cohort_plan}

# ---------------------------------------------------------------------------
# output checks beyond the summary lines
# ---------------------------------------------------------------------------


def _significant(path: Path, alpha: float = 0.05) -> set[str]:
    limit = math.log10(alpha)
    out = set()
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            cells = line.rstrip("\n").split("\t")
            if cells[5] != "NA" and float(cells[5]) <= limit:  # log10_p_adj
                out.add(cells[0])
    return out


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xm, ym = x - x.mean(), y - y.mean()
    return float(xm @ ym / math.sqrt(float(xm @ xm) * float(ym @ ym)))


def _ranks(v: np.ndarray) -> np.ndarray:
    """Ranks 1..n of tie-free values, NaN kept."""
    out = np.full(v.shape, np.nan)
    p = ~np.isnan(v)
    out[p] = np.argsort(np.argsort(v[p])) + 1.0
    return out


def _check_pairs(path: Path, names: list[str], values: np.ndarray,
                 spearman: bool) -> list[str]:
    """Recompute the leading pairwise lines from the generated matrix.

    Spearman with missing values has two common definitions (rank each
    row, then drop incomplete pairs; or drop first, then rank); a value
    matching either is accepted.
    """
    index = {n: i for i, n in enumerate(names)}
    errors = []
    with open(path, encoding="utf-8") as fh:
        for _, line in zip(range(PAIRS_VERIFIED), fh):
            a, b, r = line.rstrip("\n").split("\t")
            x, y = values[index[a]], values[index[b]]
            keep = ~(np.isnan(x) | np.isnan(y))
            if spearman:
                want = [_pearson(_ranks(x)[keep], _ranks(y)[keep]),
                        _pearson(_ranks(x[keep]), _ranks(y[keep]))]
            else:
                want = [_pearson(x[keep], y[keep])]
            if min(abs(float(r) - w) for w in want) > 1e-9:
                errors.append(f"pair {a},{b}: r={r}, expected {want}")
                break
    return errors


def verify_outputs(workload: str, out: Path, truth: dict) -> dict[str, list[str]]:
    """Checks of output content, keyed by the command that wrote it."""
    errors: dict[str, list[str]] = {}
    if workload == "merge-test":
        planted = set(truth["planted"])
        for key, name in (("test_kw", "kw.tsv"),
                          ("test_wilcoxon", "wilcoxon.tsv")):
            found = len(planted & _significant(out / name)) / len(planted)
            if found < 0.8:
                errors[key] = [f"only {found:.0%} of planted genes significant"]
        with open(out / "median_cor.tsv", encoding="utf-8") as fh:
            rows = [line.split("\t")[1:] for line in fh
                    if not line.startswith(("dataset", "#"))]
        if len(rows) != 3 or min(float(c) for r in rows for c in r) < 0.9:
            errors["median_cor"] = [f"median-profile correlations {rows}"]
    elif workload == "coexpr-pairwise":
        errors["pairwise"] = _check_pairs(out / "pairs.txt", truth["names"],
                                          truth["values"], spearman=False)
        if "<svg" not in (out / "pca.svg").read_text(encoding="utf-8")[:200]:
            errors["pca"] = ["pca.svg is not an SVG document"]
    else:
        errors["pairwise"] = _check_pairs(out / "pairs.txt",
                                          truth["subset_names"],
                                          truth["subset_values"], spearman=True)
    return {k: v for k, v in errors.items() if v}

# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_process(argv: list[str], log: Path) -> tuple[int, float, float, str, str]:
    """Run a Python child; return (exit code, wall s, max RSS MB, out, err)."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log.with_suffix(".out"), "w+", encoding="utf-8") as out, \
            open(log.with_suffix(".err"), "w+", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                stderr=err, env=_child_env(), cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, out.read(), err.read()


def parse_summary(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        return {}
    return dict(tok.split("=", 1) for tok in lines[-1].split() if "=" in tok)


def summary_errors(cmd: Command, code: int, summary: dict, stderr: str) -> list[str]:
    errors = [f"exit code {code}: {stderr.strip()[-300:]}"] if code else []
    for k, v in cmd.expect.items():
        if summary.get(k) != str(v):
            errors.append(f"{k}={summary.get(k)}, expected {v}")
    return errors


def run_cli(cmd: Command, log: Path) -> Outcome:
    code, wall, rss, out, err = run_process(["-m", "rankmerge.cli", *cmd.argv],
                                            log)
    summary = parse_summary(out)
    return Outcome(cmd.key, wall, rss, summary,
                   summary_errors(cmd, code, summary, err))


def digest(path: Path) -> str:
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) \
        if path.is_dir() else [path]
    for f in files:
        h.update(f.relative_to(path).as_posix().encode() if f != path else b"")
        with open(f, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def output_digests(cmds: list[Command], out: Path) -> list[dict]:
    return [{p.relative_to(out).as_posix(): digest(p) if p.exists() else None
             for p in c.outputs} for c in cmds]


def compare_digests(outcomes: list[Outcome], got: list[dict],
                    ref: list[dict]) -> None:
    for o, g, r in zip(outcomes, got, ref):
        for name in g:
            if g[name] is None or g[name] != r[name]:
                o.errors.append(f"{name} differs from the first pass")


def attach(outcomes: list[Outcome], errors: dict[str, list[str]]) -> None:
    for key, errs in errors.items():
        next(o for o in outcomes if o.key == key).errors.extend(errs)

# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _summed(outcomes: list[Outcome], key_prefix: str, field_name: str) -> int:
    return sum(int(o.summary.get(field_name, 0)) for o in outcomes
               if o.key.startswith(key_prefix))


def pass_metrics(outcomes: list[Outcome], wall: float) -> dict:
    """One pass: its wall time, peak RSS, rates, and each command's time."""
    tests = [o for o in outcomes if o.key.startswith("test_")]
    pairs = [o for o in outcomes if o.key == "pairwise"]
    m = {"wall_s": wall, "peak_rss_mb": max(o.rss_mb for o in outcomes)}
    if tests:
        m["features_per_s"] = _summed(tests, "test_", "tested") \
            / sum(o.wall_s for o in tests)
    if pairs:
        m["pairs_per_s"] = _summed(pairs, "pairwise", "pairs") \
            / sum(o.wall_s for o in pairs)
    for o in outcomes:
        m[f"cli.{o.key}_s"] = m.get(f"cli.{o.key}_s", 0.0) + o.wall_s
    return m


def upper_quartile(values: list[float]) -> float:
    """The time a step takes at the host's usual speed.

    On a shared host, steps run up to a third faster while the neighbours
    are idle, and how many such spells a run catches varies.  The upper
    quartile of a run's samples moved less from run to run than their
    median did.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def medians(rows: list[dict]) -> dict:
    keys = dict.fromkeys(k for r in rows for k in r)
    return {k: statistics.median(r[k] for r in rows if k in r) for k in keys}


# reported beside the end-to-end metrics where they apply, but not gated:
# each covers only some workloads, the rates swing more than wall_s on a
# shared host, and failed_ratio is 0 when the program is right
EXTRA_UNITS = {"features_per_s": "1/s", "pairs_per_s": "1/s",
               "failed_ratio": "ratio"}


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit of the "end_to_end" or "per_layer" list."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; src_sha256 identifies the code
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    src = hashlib.sha256()
    for f in sorted((SRC / "rankmerge").glob("*.py")):
        src.update(f.name.encode() + f.read_bytes())
    return {"git_sha": _git_sha(), "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "loadavg_before": os.getloadavg()}

# ---------------------------------------------------------------------------
# untraced runs: the end-to-end metrics
# ---------------------------------------------------------------------------


def setup_inputs(workload: str, seed: int, size: str, work: Path,
                 repeats: int) -> tuple[Path, dict, list[float], list[str]]:
    """Generate the inputs ``repeats`` times; they must come out identical."""
    times, digests, truth = [], [], {}
    for r in range(repeats):
        d = work / f"inputs{r}"
        t0 = time.perf_counter()
        truth = gen.generate(workload, seed, d, size)
        times.append(time.perf_counter() - t0)
        digests.append(digest(d))
        if r:
            shutil.rmtree(work / f"inputs{r - 1}")
    errors = [] if len(set(digests)) == 1 else ["inputs differ between set-ups"]
    return work / f"inputs{repeats - 1}", truth, times, errors


def run_passes(workload: str, inputs: Path, truth: dict, work: Path,
               seconds: float, min_passes: int = 2, after_pass=None):
    """Closed loop: repeat the command pass until ``seconds`` is spent.

    ``after_pass`` runs after each pass; its time does not count toward
    ``seconds``.
    """
    plan = PLANS[workload]
    passes, ref = [], None
    t_start = time.perf_counter()
    paused = 0.0
    while True:
        out = work / f"pass{len(passes) + 1}"
        cmds = plan(inputs, out, truth)
        outcomes = [run_cli(c, out / "logs" / f"{i:02d}")
                    for i, c in enumerate(cmds)]
        wall = sum(o.wall_s for o in outcomes)
        got = output_digests(cmds, out)
        if ref is None:
            ref = got
            attach(outcomes, verify_outputs(workload, out, truth))
        compare_digests(outcomes, got, ref)
        shutil.rmtree(out)
        passes.append((outcomes, pass_metrics(outcomes, wall)))
        if after_pass is not None:
            t0 = time.perf_counter()
            after_pass()
            paused += time.perf_counter() - t0
        elapsed = time.perf_counter() - t_start - paused
        typical = statistics.median(m["wall_s"] for _, m in passes)
        if len(passes) >= min_passes and (
                elapsed + typical > min(seconds, RUN_BUDGET_S)):
            return passes, ref


def threads_check(workload: str, inputs: Path, truth: dict, work: Path,
                  ref: list[dict]) -> Outcome | None:
    """The pairwise text with --threads 1 must equal the --threads 2 text."""
    out = work / "threads1"
    cmds = PLANS[workload](inputs, out, truth)
    i, cmd = next(((i, c) for i, c in enumerate(cmds) if c.key == "pairwise"),
                  (None, None))
    if cmd is None:
        return None
    argv = list(cmd.argv)
    argv[argv.index("--threads") + 1] = "1"
    single = Command("pairwise_threads1", argv, cmd.expect, cmd.outputs)
    o = run_cli(single, out / "logs" / "threads1")
    name, want = next(iter(ref[i].items()))
    if digest(out / name) != want:
        o.errors.append("pairwise text differs between --threads 1 and 2")
    shutil.rmtree(out)
    return o


def measure(workload: str, seed: int, seconds: float, size: str,
            work: Path, setup_repeats: int) -> dict:
    inputs, truth, setup, errors = setup_inputs(workload, seed, size, work, 1)
    digests = {digest(inputs)}

    def set_up_again() -> None:
        if len(setup) >= setup_repeats:
            return
        d = work / "inputs-again"
        t0 = time.perf_counter()
        gen.generate(workload, seed, d, size)
        setup.append(time.perf_counter() - t0)
        digests.add(digest(d))
        shutil.rmtree(d)

    run_process(["-c", "import rankmerge.cli"], work / "logs" / "warm")
    # the set-ups are spread over the run, one after each pass, so that
    # they see a mix of host speeds like the passes do
    passes, ref = run_passes(workload, inputs, truth, work, seconds,
                             after_pass=set_up_again)
    while len(setup) < setup_repeats:
        set_up_again()
    if len(digests) > 1:
        errors.append("inputs differ between set-ups")
    outcomes = [o for p, _ in passes for o in p]
    extra = threads_check(workload, inputs, truth, work, ref)
    if extra is not None:
        outcomes.append(extra)
    metrics = medians([m for _, m in passes])
    # a pass at the host's usual speed: each command's time, summed
    metrics["wall_s"] = sum(upper_quartile([m[k] for _, m in passes])
                            for k in metrics if k.startswith("cli."))
    metrics["setup_s"] = upper_quartile(setup)
    failed = sum(1 for o in outcomes if o.errors) + len(errors)
    metrics["failed_ratio"] = failed / len(outcomes)
    return {"metrics": metrics, "attempted": len(outcomes), "failed": failed,
            "errors": errors + [f"{o.key}: {e}" for o in outcomes
                                for e in o.errors],
            "passes": [m for _, m in passes], "setup_s": setup,
            "truth": {k: v for k, v in truth.items()
                      if isinstance(v, (int, dict)) or k == "studies"}}

# ---------------------------------------------------------------------------
# traced run: the per-layer metrics
# ---------------------------------------------------------------------------

# the public functions one layer calls in another: (module, attribute, layer)
BOUNDARIES = [
    ("cli", "parse_series_matrix", "ingest"), ("cli", "parse_annotation", "ingest"),
    ("cli", "annotate", "ingest"), ("cli", "save_dataset", "ingest"),
    ("cli", "load_dataset", "ingest"),
    ("cli", "reduce_duplicates", "matrix"), ("cli", "merge_datasets", "matrix"),
    ("cli", "select_samples", "matrix"), ("cli", "exclude_samples", "matrix"),
    ("cli", "common_rows", "matrix"), ("cli", "median_column", "matrix"),
    ("cli", "score_dataset", "transform"),
    ("cli", "kw_per_feature", "rstats"), ("cli", "wilcoxon_group_vs_rest", "rstats"),
    ("cli", "apply_fdr", "rstats"), ("cli", "rank_features", "rstats"),
    ("cli", "significant_features", "rstats"),
    ("cli", "write_results_tsv", "rstats"), ("cli", "read_results_tsv", "rstats"),
    ("cli", "parse_gmt", "rstats"), ("cli", "enrich_genesets", "rstats"),
    ("cli", "benjamini_yekutieli", "rstats"),
    ("cli", "median_correlation", "rstats"),
    ("cli", "correlation_threshold", "rstats"),
    ("cli", "pairwise_row_correlations", "rstats"),
    ("cli", "pca", "multivar"), ("cli", "project_first_plane", "multivar"),
    ("cli", "build_plot_spec", "svgplot"), ("cli", "render_svg", "svgplot"),
    ("rstats", "select_samples", "matrix"), ("rstats", "exclude_samples", "matrix"),
    ("rstats", "common_rows", "matrix"),
    ("transform", "inv_norm_cdf", "numerics"),
]

LAYERS = ("cli", "ingest", "matrix", "transform", "numerics", "rstats",
          "multivar", "svgplot")


def _dir_bytes(path) -> int:
    p = Path(path)
    return sum(f.stat().st_size for f in p.iterdir()) if p.is_dir() \
        else p.stat().st_size


def install_spans(rec: Recorder, modules: dict) -> None:
    def counter(name, which):
        return lambda args, result: rec.count(name, _dir_bytes(args[which]))

    after = {"parse_series_matrix": counter("ingest.bytes_read", 0),
             "parse_annotation": counter("ingest.bytes_read", 0),
             "load_dataset": counter("ingest.bytes_read", 0),
             "save_dataset": counter("ingest.bytes_written", 1)}
    for mod, attr, layer in BOUNDARIES:
        rec.patch(modules[mod], attr, f"{layer}.{attr}", after.get(attr))


def traced_pass(rec: Recorder, cli, cmds: list[Command]) -> list[Outcome]:
    outcomes = []
    for cmd in cmds:
        buf, err = io.StringIO(), io.StringIO()
        with rec.span(f"cli.{cmd.key}") as sp, \
                contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            try:
                code = cli.main(cmd.argv)
            except Exception as exc:  # a traceback fails the command, as in a child
                code = 1
                err.write(repr(exc))
        summary = parse_summary(buf.getvalue())
        outcomes.append(Outcome(cmd.key, sp.duration, 0.0, summary,
                                summary_errors(cmd, code, summary,
                                               err.getvalue())))
    return outcomes


def layer_metrics(rec: Recorder, outcomes: list[Outcome], out: Path) -> dict:
    st = rec.self_times()
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in rec.spans:
        m[f"{s.name}_s"] = m.get(f"{s.name}_s", 0.0) + s.duration
        m[f"{s.name.split('.')[0]}.self_s"] += st[s.id]
    m.update(rec.counters)
    tested = _summed(outcomes, "test_", "tested")
    emitted = _summed(outcomes, "pairwise", "pairs")
    skipped = _summed(outcomes, "pairwise", "skipped")
    m.update({
        "trace.total_s": sum(s.duration for s in rec.spans if s.parent is None),
        "rstats.features_tested": tested,
        "rstats.features_degenerate": _summed(outcomes, "test_", "features") - tested,
        "rstats.features_significant": _summed(outcomes, "test_", "significant"),
        "rstats.pairs_emitted": emitted,
        "rstats.pairs_skipped": skipped,
        "rstats.pairs_considered": emitted + skipped,
        "rstats.pair_yield": emitted / (emitted + skipped) if emitted + skipped else 0.0,
        "matrix.rows_collapsed": _summed(outcomes, "ingest", "collapsed"),
        "transform.columns_scored": _summed(outcomes, "score", "samples"),
        "cli.pairwise_bytes": (out / "pairs.txt").stat().st_size
        if (out / "pairs.txt").exists() else 0,
    })
    return m


def span_errors(rec: Recorder) -> list[str]:
    """Child self times inside a command span may not exceed its wall time."""
    st = rec.self_times()
    inside: dict[int, float] = {}
    for s in rec.spans:
        top = s
        while top.parent is not None:
            top = rec.spans[top.parent]
        if top is not s:
            inside[top.id] = inside.get(top.id, 0.0) + st[s.id]
    return [f"span {rec.spans[i].name}: child self time {v:.6f} s exceeds "
            f"{rec.spans[i].duration:.6f} s"
            for i, v in inside.items() if v > rec.spans[i].duration + 1e-9]


def tail_times(numerics, out: Path, kw_groups: int) -> dict:
    """Time the tail functions on every statistic the pass produced."""
    def stats(name):
        path = out / name
        if not path.exists():
            return []
        with open(path, encoding="utf-8") as fh:
            next(fh)
            return [float(c[1]) for c in (line.split("\t") for line in fh)
                    if c[1] != "NA"]

    kw, wx = stats("kw.tsv"), stats("wilcoxon.tsv")
    t0 = time.perf_counter()
    for h in kw:
        numerics.chi_sq_upper_tail_ln(h, kw_groups - 1)
    t1 = time.perf_counter()
    for z in wx:
        numerics.norm_upper_tail_ln(z)
    t2 = time.perf_counter()
    return {"numerics.chi_sq_tail_s": t1 - t0, "numerics.norm_tail_s": t2 - t1}


def engine_time(modules: dict, workload: str, inputs: Path, truth: dict) -> tuple[float, list[str]]:
    """The pairwise engine alone, through a counting no-op sink."""
    cmd = next((c for c in PLANS[workload](inputs, inputs, truth)
                if c.key == "pairwise"), None)
    if cmd is None:
        return 0.0, []
    ds = modules["ingest"].load_dataset(cmd.argv[1])
    method = "spearman" if "spearman" in cmd.argv else "pearson"
    seen = [0]

    def sink(a, b, r):
        seen[0] += 1

    t0 = time.perf_counter()
    res = modules["rstats"].pairwise_row_correlations(ds.data, sink,
                                                      method=method, threads=2)
    elapsed = time.perf_counter() - t0
    ok = seen[0] == res.emitted == cmd.expect["pairs"] \
        and res.skipped == cmd.expect["skipped"]
    return elapsed, [] if ok else [f"no-op sink saw {seen[0]} pairs, engine "
                                   f"reported {res.emitted}/{res.skipped}"]


# groups of the workload's KW test, which set the chi-square degrees of freedom
KW_GROUPS = {"merge-test": 2, "small-cohort": 3}


def measure_traced(workload: str, seed: int, seconds: float, size: str,
                   work: Path, setup_repeats: int = 1,
                   startup_repeats: int = STARTUP_REPEATS) -> dict:
    inputs, truth, _, errors = setup_inputs(workload, seed, size, work,
                                            setup_repeats)
    run_process(["-c", "import rankmerge.cli"], work / "logs" / "warm")
    startup = statistics.median(
        run_process(["-c", "import rankmerge.cli"], work / "logs" / f"start{i}")[1]
        for i in range(startup_repeats))
    t_start = time.perf_counter()
    untraced, ref = run_passes(workload, inputs, truth, work, 0, min_passes=1)
    outcomes = list(untraced[0][0])
    untraced_wall = untraced[0][1]["wall_s"]

    sys.path.insert(0, str(SRC))
    import rankmerge.cli as cli
    import rankmerge.ingest
    import rankmerge.numerics
    import rankmerge.rstats
    import rankmerge.transform
    modules = {"cli": cli, "ingest": rankmerge.ingest,
               "rstats": rankmerge.rstats, "transform": rankmerge.transform}

    rows, recorders = [], []
    while True:
        i = len(rows) + 1
        out = work / f"traced{i}"
        cmds = PLANS[workload](inputs, out, truth)
        rec = Recorder(f"{workload}-seed{seed}-pass{i}-{os.getpid()}")
        install_spans(rec, modules)
        try:
            passed = traced_pass(rec, cli, cmds)
        finally:
            rec.unpatch()
        compare_digests(passed, output_digests(cmds, out), ref)
        for e in span_errors(rec):
            passed[0].errors.append(e)
        row = layer_metrics(rec, passed, out)
        row.update(tail_times(rankmerge.numerics, out, KW_GROUPS.get(workload, 0)))
        shutil.rmtree(out)
        rows.append(row)
        recorders.append(rec)
        outcomes += passed
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(r["trace.total_s"] for r in rows)
        if elapsed + typical > min(seconds, RUN_BUDGET_S):
            break

    extra = threads_check(workload, inputs, truth, work, ref)
    if extra is not None:
        outcomes.append(extra)
    engine, engine_errors = engine_time(modules, workload, inputs, truth)
    metrics = medians(rows)
    n_cmds = len(PLANS[workload](inputs, inputs, truth))
    metrics.update({
        "cli.startup_s": startup,
        "rstats.pairwise_engine_s": engine,
        "cli.pairwise_emit_s": metrics.get("cli.pairwise_s", 0.0) - engine,
        "rstats.exact_tail_features": truth.get("exact_tail_features", 0),
        "trace.untraced_wall_s": untraced_wall,
        "trace.startup_all_s": startup * n_cmds,
        # untraced wall = traced total - tracing overhead + process start-ups
        "trace.overhead_s": metrics["trace.total_s"]
        - (untraced_wall - startup * n_cmds),
    })
    failed = sum(1 for o in outcomes if o.errors) + len(errors) \
        + len(engine_errors)
    return {"metrics": metrics, "attempted": len(outcomes), "failed": failed,
            "errors": errors + engine_errors
            + [f"{o.key}: {e}" for o in outcomes for e in o.errors],
            "passes": rows, "recorders": recorders}

# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def report(workload: str, res: dict, units: dict[str, str]) -> dict:
    """Print every metric by name with its unit; return the JSON metrics.

    A per-layer metric of a layer the workload does not reach reads 0.
    """
    m = res["metrics"]
    print(f"== {workload}: {len(res['passes'])} passes, "
          f"{res['attempted']} commands, {res['failed']} failed")
    for name, unit in {**units, **EXTRA_UNITS}.items():
        if name in m:
            print(f"  {name:34s} {m[name]:>18.6f} {unit}")
    for e in res["errors"][:20]:
        print(f"  ERROR {e}")
    return {n: {"value": m.get(n, 0), "unit": u} for n, u in units.items()}


def write_record(tag: str, env: dict, res: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    path = RESULTS / f"{stamp}-{tag}-{os.getpid()}"
    record = {"env": env, **{k: v for k, v in res.items() if k != "recorders"}}
    with open(path.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    for i, rec in enumerate(res.get("recorders", []), start=1):
        rec.write_jsonl(path.with_name(f"{path.name}-spans{i}.jsonl"))


def smoke() -> dict:
    """Every workload at a tiny size with every check, in a few seconds.

    The traced mode covers the checks of both modes: its untraced pass
    and its traced pass must write the same bytes.
    """
    attempted = failed = 0
    metrics = {}
    for w in gen.WORKLOADS:
        work = WORK / f"smoke-{w}-{os.getpid()}"
        try:
            res = measure_traced(w, 0, 0, "smoke", work, setup_repeats=2,
                                 startup_repeats=1)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        attempted += res["attempted"]
        failed += res["failed"]
        for e in res["errors"]:
            print(f"  ERROR {w}: {e}")
        metrics[f"{w}.wall_s"] = {"value": res["metrics"]["trace.untraced_wall_s"],
                                  "unit": "s"}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=56.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at a tiny size and check it")
    args = ap.parse_args(argv)
    if not (SRC / "rankmerge" / "cli.py").is_file():
        print(f"error: no rankmerge sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        result = smoke()
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")

    env = environment()
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            res = measure_traced(args.workload, args.seed, args.seconds,
                                 "full", work)
            units = declared("per_layer")
        else:
            res = measure(args.workload, args.seed, args.seconds, "full", work,
                          SETUP_REPEATS)
            units = declared("end_to_end")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()
    print("env " + json.dumps(env))
    metrics = report(args.workload, res, units)
    write_record(f"{args.workload}-seed{args.seed}-trace{args.trace}", env, res)
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
