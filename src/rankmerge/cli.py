"""Command-line frontend chaining the pipeline stages.

Commands: ingest, score, merge, select, partition, median-cor,
pairwise, test, pca, factor-plot, enrich, split-het.

Flags are long-form only.  A JSON config file (--config) may supply
defaults: top-level keys apply to every command, a key named after a
command holds per-command overrides, and explicit flags beat both.
--seed, --threads and --config are accepted before or after the
command name.  --threads N formats the text of pairwise in N worker
processes (other commands ignore it); the output bytes are the same for
any N.

Exit codes: 0 success, 1 usage or generic data error, 2 input parse
error, 3 annotation failure, 4 dataset already scored, 5 no common
features, 6 degenerate grouping, 7 unknown feature symbol, 8 empty
enrichment universe.

Primary outputs are written to "<path>.partial" and renamed into place
on success, so an interrupted or failed run never leaves a truncated
file at the final path; a command that fails removes its partial file.

The process entry, ``python -m rankmerge.cli`` or the installed
``rankmerge`` script (both call ``main()`` without arguments), first
calls ``gc.freeze()``: the objects alive after the imports (numpy, the
standard library, this package) go to the collector's permanent
generation, so the full collections the interpreter runs at exit no
longer scan them, about 40 ms per command.  ``main(argv)`` called
in-process with an argument list never freezes, so its caller's cyclic
garbage stays collectable.  Neither changes any output or exit code.
"""

from __future__ import annotations

import argparse
import difflib
import gc
import json
import os
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import (
    AlreadyScoredError,
    AnnotationError,
    DegenerateDataError,
    ManifestError,
    NoCommonFeaturesError,
    ParseError,
)
from .ingest import (
    annotate,
    load_dataset,
    open_text,
    parse_annotation,
    parse_series_matrix,
    save_dataset,
    text_lines,
)
from .matrix import (
    Dataset,
    common_rows,
    exclude_samples,
    median_column,
    merge_datasets,
    random_partition,
    reduce_duplicates,
    select_samples,
)
from .multivar import factor_plot_medians, pca, project_first_plane
from .rstats import (
    apply_fdr,
    benjamini_yekutieli,
    correlation_threshold,
    enrich_genesets,
    heterogeneity_split,
    kw_per_feature,
    median_correlation,
    p_cells,
    pairwise_row_correlations,  # unused; bench/run.py wraps this cli name
    parse_gmt,
    rank_features,
    sample_groups,
    significant_features,
    wilcoxon_group_vs_rest,
    wilcoxon_per_feature,
    write_pairwise_text,
    write_results_tsv,
    read_results_tsv,
)
from .svgplot import build_plot_spec, render_svg
from .transform import score_dataset

EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_ANNOTATION = 3
EXIT_ALREADY_SCORED = 4
EXIT_NO_COMMON = 5
EXIT_DEGENERATE = 6
EXIT_UNKNOWN_FEATURE = 7
EXIT_EMPTY_UNIVERSE = 8


class _UsageError(Exception):
    pass


class _UnknownFeatureError(Exception):
    def __init__(self, symbol: str, candidates):
        near = difflib.get_close_matches(symbol, list(candidates), n=5)
        msg = f"unknown feature {symbol!r}"
        if near:
            msg += "; closest matches: " + ", ".join(near)
        super().__init__(msg)


class _EmptyUniverseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not exits."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# option resolution (flags > per-command config > top-level config > default)
# ---------------------------------------------------------------------------

class Options:
    def __init__(self, ns: argparse.Namespace, config: dict, command: str):
        self._ns = ns
        self._config = config
        self._command = command

    def get(self, key: str, default=None):
        if hasattr(self._ns, key):
            return getattr(self._ns, key)
        section = self._config.get(self._command)
        if isinstance(section, dict) and key in section:
            return section[key]
        value = self._config.get(key)
        if value is not None and not isinstance(value, dict):
            return value
        return default

    # Flags arrive typed from argparse; a config value must be a JSON
    # value of the option's type, never a string to convert or a bool
    # read as 0 or 1.
    def _typed(self, key: str, default, what: str, ok):
        value = self.get(key, default)
        if not ok(value):
            raise _UsageError(f"config key {key!r} must be {what}, "
                              f"got {value!r}")
        return value

    def get_int(self, key: str, default: int) -> int:
        return int(self._typed(key, default, "an integer",
                               lambda v: _number(v) is not None
                               and _number(v).is_integer()))

    def get_float(self, key: str, default: float) -> float:
        return float(self._typed(key, default, "a number",
                                 lambda v: _number(v) is not None))

    def get_str(self, key: str, default: str | None = None) -> str | None:
        return self._typed(key, default, "a string",
                           lambda v: v is default or isinstance(v, str))

    def get_bool(self, key: str, default: bool) -> bool:
        return self._typed(key, default, "true or false",
                           lambda v: isinstance(v, bool))


def _number(value) -> float | None:
    """A JSON number as a float; None for a bool, any other type, or an
    integer beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:
        return None


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open_text(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read config: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deeply
        raise ParseError(f"{path}: config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ParseError("config must be a JSON object")
    return cfg


# ---------------------------------------------------------------------------
# atomic outputs
# ---------------------------------------------------------------------------

@contextmanager
def _partial_file(path: str | Path):
    """Write to <path>.partial; rename it into place on success only."""
    final = Path(path)
    partial = final.with_name(final.name + ".partial")
    final.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    os.replace(partial, final)


def _new_dir(path: str | Path) -> Path:
    """``path``, refused if it exists (checked before reading any input)."""
    final = Path(path)
    if final.exists():
        raise _UsageError(f"output directory {final} already exists")
    return final


def _save_dataset_atomic(ds: Dataset, path: str | Path) -> None:
    final = _new_dir(path)
    partial = final.with_name(final.name + ".partial")
    if partial.exists():
        shutil.rmtree(partial)
    save_dataset(ds, partial)
    os.replace(partial, final)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _check_features(symbols, available) -> None:
    known = set(available)
    for s in symbols:
        if s not in known:
            raise _UnknownFeatureError(s, available)


def _choice(value, allowed: dict, flag: str):
    if value not in allowed:
        raise _UsageError(f"{flag} must be one of "
                          f"{', '.join(allowed)}; got {value!r}")
    return allowed[value]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_ingest(args: argparse.Namespace, opts: Options) -> int:
    _new_dir(args.out)
    doc = parse_series_matrix(args.series)
    mapping = parse_annotation(args.annotation)
    policy = opts.get_str("multi_policy", "first")
    result = annotate(doc, mapping, policy)
    reduced, all_missing = reduce_duplicates(result.data)
    name = opts.get_str("name") or Path(args.series).stem
    ds = Dataset(reduced, result.info, name=name,
                 source=Path(args.series).name)
    _save_dataset_atomic(ds, args.out)
    collapsed = result.data.n_rows - reduced.n_rows - len(all_missing)
    print(f"probes={len(doc.probe_ids)} features={reduced.n_rows} "
          f"samples={reduced.n_cols} unmapped={result.n_unmapped} "
          f"multi_dropped={result.n_multi_dropped} collapsed={collapsed} "
          f"all_missing={len(all_missing)}")
    return 0


def cmd_score(args: argparse.Namespace, opts: Options) -> int:
    _new_dir(args.out)
    ds = load_dataset(args.dataset)
    out = score_dataset(ds, args.kind)
    _save_dataset_atomic(out, args.out)
    print(f"scored kind={args.kind} features={out.data.n_rows} "
          f"samples={out.n_samples}")
    return 0


def cmd_merge(args: argparse.Namespace, opts: Options) -> int:
    if len(args.datasets) < 2:
        raise _UsageError("merge needs at least two dataset directories")
    _new_dir(args.out)
    dsets = [load_dataset(p) for p in args.datasets]
    merged = merge_datasets(dsets, name=opts.get_str("name"))
    _save_dataset_atomic(merged, args.out)
    print(f"merged datasets={len(dsets)} features={merged.data.n_rows} "
          f"samples={merged.n_samples}")
    return 0


def cmd_select(args: argparse.Namespace, opts: Options) -> int:
    _new_dir(args.out)
    ds = load_dataset(args.dataset)
    mode = opts.get_str("mode", "substring")
    op = exclude_samples if args.invert else select_samples
    out = op(ds, args.field, args.keyword, mode)
    name = opts.get_str("name")
    if name:
        out = Dataset(out.data, out.info, name=name, score=out.score,
                      source=out.source, seed=out.seed)
    _save_dataset_atomic(out, args.out)
    print(f"selected samples={out.n_samples} of {ds.n_samples}")
    return 0


def cmd_partition(args: argparse.Namespace, opts: Options) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s != ""]
    except ValueError:
        raise _UsageError(f"--sizes must be comma-separated integers, "
                          f"got {args.sizes!r}") from None
    outs = [_new_dir(Path(args.out) / f"part{i}")
            for i in range(1, len(sizes) + 1)]
    ds = load_dataset(args.dataset)
    seed = opts.get_int("seed", 0)
    parts = random_partition(ds, sizes, seed)
    for part, out in zip(parts, outs):
        _save_dataset_atomic(part, out)
    print(f"parts={len(parts)} sizes={','.join(str(s) for s in sizes)} "
          f"seed={seed}")
    return 0


def cmd_median_cor(args: argparse.Namespace, opts: Options) -> int:
    dsets = [load_dataset(p) for p in args.datasets]
    method = opts.get_str("method", "pearson")
    features = common_rows([d.data for d in dsets])
    medians = [median_column(d.data.take_rows(features)) for d in dsets]
    k = len(dsets)
    corr = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            corr[i, j] = corr[j, i] = median_correlation(
                medians[i], medians[j], method)
    names = [d.name for d in dsets]
    n = len(features)
    with _partial_file(args.out) as fh:
        fh.write("\t".join(["dataset"] + names) + "\n")
        for i, nm in enumerate(names):
            fh.write("\t".join([nm] + [f"{corr[i, j]:.6f}" for j in range(k)])
                     + "\n")
        if n >= 10:
            thr = correlation_threshold(n, 0.05, "one")
            fh.write(f"# common_rows={n} alpha=0.05 "
                     f"one_sided_threshold={thr:.4f}\n")
        else:
            fh.write(f"# common_rows={n} threshold=NA "
                     f"(needs at least 10 common rows)\n")
    print(f"datasets={k} common_rows={n} method={method}")
    return 0


def cmd_pairwise(args: argparse.Namespace, opts: Options) -> int:
    ds = load_dataset(args.dataset)
    method = opts.get_str("method", "pearson")
    chunk = opts.get_int("chunk", 256)
    threads = opts.get_int("threads", 1)
    with _partial_file(args.out) as fh:
        result = write_pairwise_text(ds.data, fh, method=method, chunk=chunk,
                                     threads=threads)
    print(f"pairs={result.emitted} skipped={result.skipped}")
    return 0


def cmd_test(args: argparse.Namespace, opts: Options) -> int:
    alternative = _choice(opts.get_str("alternative", "greater"),
                          {"greater": "A_greater", "less": "A_less"},
                          "--alternative")
    exact = _choice(opts.get_str("exact", "auto"),
                    {"auto": None, "on": True, "off": False}, "--exact")
    mode = _choice(opts.get_str("mode", "substring"),
                   {"substring": "substring", "exact": "exact"}, "--mode")
    alpha = opts.get_float("fdr", 0.05)
    rank_by = opts.get_str("rank_by", "p")

    if len(args.datasets) == 1:
        if args.field is None:
            raise _UsageError("a single dataset needs --field to form groups")
        ds = load_dataset(args.datasets[0])
        if args.test == "wilcoxon" and args.keyword is None:
            raise _UsageError("--test wilcoxon needs --keyword "
                              "to pick the comparison group")
        try:
            if args.test == "wilcoxon":
                results = wilcoxon_group_vs_rest(ds, args.field, args.keyword,
                                                 alternative, mode, exact)
            else:
                groups = sample_groups(ds, args.field, args.keyword, mode)
        except ValueError as exc:
            raise DegenerateDataError(str(exc)) from None
        if args.test == "kw":
            results = kw_per_feature(groups)
    else:
        dsets = [load_dataset(p) for p in args.datasets]
        empty = [d.name for d in dsets if d.n_samples == 0]
        if empty:
            raise DegenerateDataError(f"empty group dataset {empty[0]!r}")
        if args.test == "wilcoxon":
            if len(dsets) != 2:
                raise _UsageError("--test wilcoxon compares exactly "
                                  "two dataset groups")
            results = wilcoxon_per_feature(dsets[0].data, dsets[1].data,
                                           alternative, exact)
        else:
            results = kw_per_feature([d.data for d in dsets])

    adjusted = apply_fdr(results)
    ranked = rank_features(adjusted, by=rank_by)
    sig = len(significant_features(ranked, alpha))
    with _partial_file(args.out) as fh:
        write_results_tsv(ranked, fh)
    tested = int(ranked.tested.sum())
    print(f"features={len(ranked)} tested={tested} significant={sig} "
          f"threshold={alpha:g}")
    return 0


def _feature_list(args: argparse.Namespace, opts: Options) -> list[str]:
    features = opts.get_str("features")
    top = opts.get("top")
    if (features is None) == (top is None):
        raise _UsageError("exactly one of --features and --top is required")
    if features is not None:
        out = [f for f in features.split(",") if f]
        if not out:
            raise _UsageError("--features lists no symbols")
        return out
    top = opts.get_int("top", 0)
    results_path = opts.get_str("results")
    if results_path is None:
        raise _UsageError("--top needs --results (a ranked results table)")
    ranked = read_results_tsv(results_path)
    if top < 1:
        raise _UsageError("--top must be positive")
    return list(ranked.features[:top])


def cmd_pca(args: argparse.Namespace, opts: Options) -> int:
    scale = opts.get_bool("scale", False)
    dsets = [load_dataset(p) for p in args.datasets]
    if len(dsets) == 1:
        ds = dsets[0]
        if args.label_field is not None:
            labels = list(ds.info.field(args.label_field))
        else:
            labels = [ds.name] * ds.n_samples
    else:
        ds = merge_datasets(dsets)
        labels = []
        for d in dsets:
            labels.extend([d.name] * d.n_samples)

    wanted = _feature_list(args, opts)
    _check_features(wanted, ds.data.row_names)
    x = ds.data.take_rows(wanted).values.T
    result = pca(x, scale=scale)
    points = project_first_plane(result, labels, names=ds.data.col_names)

    spec = build_plot_spec([(px, py, lab) for _, px, py, lab in points],
                           "PC1", "PC2",
                           f"PCA of {len(wanted)} features, "
                           f"{len(points)} samples")
    with _partial_file(args.out_svg) as fh:
        fh.write(render_svg(spec))
    if args.out_tsv is not None:
        with _partial_file(args.out_tsv) as fh:
            fh.write("sample\tpc1\tpc2\tlabel\n")
            for nm, px, py, lab in points:
                fh.write(f"{nm}\t{px:.6g}\t{py:.6g}\t{lab}\n")
    total = float(np.sum(result.eigenvalues))
    share = result.eigenvalues[:2] / total if total > 0 else [0.0, 0.0]
    print(f"samples={len(points)} variables={len(wanted)} "
          f"pc1_share={share[0]:.3f} pc2_share={share[1]:.3f}")
    return 0


def cmd_factor_plot(args: argparse.Namespace, opts: Options) -> int:
    if len(args.datasets) < 3:
        raise _UsageError("factor-plot needs at least three datasets")
    dsets = [load_dataset(p) for p in args.datasets]
    features = common_rows([d.data for d in dsets])
    medians = np.column_stack([median_column(d.data.take_rows(features)) for d in dsets])
    names = [d.name for d in dsets]
    coords = factor_plot_medians(medians, names)

    spec = build_plot_spec([(c1, c2, nm) for nm, c1, c2 in coords],
                           "C1", "C2",
                           f"Median profiles of {len(names)} datasets")
    with _partial_file(args.out_svg) as fh:
        fh.write(render_svg(spec))
    if args.out_tsv is not None:
        with _partial_file(args.out_tsv) as fh:
            fh.write("dataset\tc1\tc2\n")
            for nm, c1, c2 in coords:
                fh.write(f"{nm}\t{c1:.6g}\t{c2:.6g}\n")
    print(f"datasets={len(names)} common_rows={len(features)}")
    return 0


def cmd_enrich(args: argparse.Namespace, opts: Options) -> int:
    results = read_results_tsv(args.results)
    threshold = opts.get_float("threshold", 0.05)
    selected = set(significant_features(results, threshold).features)

    if args.universe is not None:
        universe = {s for s in map(str.strip, text_lines(args.universe)) if s}
    else:
        universe = set(results.features)
    if not universe:
        raise _EmptyUniverseError("the enrichment universe is empty")

    gene_sets = parse_gmt(args.gmt)
    rows = enrich_genesets(selected, universe, gene_sets)
    adjusted = benjamini_yekutieli([p for _, _, _, p in rows])
    raw_cells = p_cells(np.array([p.ln_p for _, _, _, p in rows]))
    adj_cells = p_cells(np.array([p.ln_p for p in adjusted]))
    with _partial_file(args.out) as fh:
        fh.write("set\tset_size\toverlap\tselected\tuniverse\t"
                 "p_raw\tlog10_p_raw\tp_adj\tlog10_p_adj\n")
        for (gs, size, overlap, _), *cells in zip(rows, *raw_cells, *adj_cells):
            fh.write("\t".join([
                gs.name, str(size), str(overlap), str(len(selected & universe)),
                str(len(universe)), *cells,
            ]) + "\n")
    print(f"sets={len(rows)} selected={len(selected & universe)} "
          f"universe={len(universe)}")
    return 0


def cmd_split_het(args: argparse.Namespace, opts: Options) -> int:
    ds = load_dataset(args.dataset)
    if args.feature not in ds.data.row_names:
        raise _UnknownFeatureError(args.feature, ds.data.row_names)
    try:
        r, (n_pos, n_neg) = heterogeneity_split(ds, args.feature)
    except ValueError as exc:
        raise DegenerateDataError(str(exc)) from None
    print(f"feature={args.feature} r={r:.4f} n_pos={n_pos} n_neg={n_neg}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON file with default option values")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for randomized operations (default 0)")
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS,
                        help="processes formatting pairwise text, >= 1 (default 1)")

    parser = _Parser(prog="rankmerge", parents=[common],
                     description="Rank-based merging and analysis "
                                 "of expression matrices.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add(name, func, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("ingest", cmd_ingest, "parse, annotate and reduce a series matrix")
    p.add_argument("series", help="series-matrix text file")
    p.add_argument("annotation", help="probe-to-symbol TSV")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--multi-policy", dest="multi_policy",
                   choices=("first", "drop"), default=argparse.SUPPRESS,
                   help="multi-symbol probes: keep first symbol or drop")
    p.add_argument("--name", default=argparse.SUPPRESS,
                   help="dataset name (default: series file stem)")

    p = add("score", cmd_score, "replace values by per-column rank scores")
    p.add_argument("dataset")
    p.add_argument("--kind", required=True, choices=("ecdf", "vdw"))
    p.add_argument("--out", required=True)

    p = add("merge", cmd_merge, "merge datasets on common features")
    p.add_argument("datasets", nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--name", default=argparse.SUPPRESS)

    p = add("select", cmd_select, "keep samples matching a metadata keyword")
    p.add_argument("dataset")
    p.add_argument("--field", required=True)
    p.add_argument("--keyword", required=True)
    p.add_argument("--mode", choices=("exact", "substring"),
                   default=argparse.SUPPRESS)
    p.add_argument("--invert", action="store_true",
                   help="drop matching samples instead")
    p.add_argument("--out", required=True)
    p.add_argument("--name", default=argparse.SUPPRESS)

    p = add("partition", cmd_partition, "split samples at random")
    p.add_argument("dataset")
    p.add_argument("--sizes", required=True,
                   help="comma-separated part sizes summing to the "
                        "sample count")
    p.add_argument("--out", required=True,
                   help="directory receiving part1..partN")

    p = add("median-cor", cmd_median_cor,
            "correlation matrix of dataset median profiles")
    p.add_argument("datasets", nargs="+")
    p.add_argument("--method", choices=("pearson", "spearman"),
                   default=argparse.SUPPRESS)
    p.add_argument("--out", required=True)

    p = add("pairwise", cmd_pairwise, "stream all row-pair correlations")
    p.add_argument("dataset")
    p.add_argument("--method", choices=("pearson", "spearman"),
                   default=argparse.SUPPRESS)
    p.add_argument("--chunk", type=int, default=argparse.SUPPRESS,
                   help="rows per block (default 256)")
    p.add_argument("--out", required=True)

    p = add("test", cmd_test, "per-feature group tests with FDR control")
    p.add_argument("datasets", nargs="+",
                   help="group datasets, or one dataset to split by --field")
    p.add_argument("--test", required=True, choices=("kw", "wilcoxon"))
    p.add_argument("--field", default=None)
    p.add_argument("--keyword", default=None)
    p.add_argument("--mode", choices=("exact", "substring"),
                   default=argparse.SUPPRESS)
    p.add_argument("--alternative", choices=("greater", "less"),
                   default=argparse.SUPPRESS,
                   help="one-sided direction for wilcoxon (default greater)")
    p.add_argument("--exact", choices=("auto", "on", "off"),
                   default=argparse.SUPPRESS,
                   help="wilcoxon exact enumeration (default auto)")
    p.add_argument("--fdr", type=float, default=argparse.SUPPRESS,
                   help="significance threshold on adjusted p (default 0.05)")
    p.add_argument("--rank-by", dest="rank_by", choices=("p", "statistic"),
                   default=argparse.SUPPRESS)
    p.add_argument("--out", required=True)

    p = add("pca", cmd_pca, "scatter samples on the first principal plane")
    p.add_argument("datasets", nargs="+")
    p.add_argument("--features", default=argparse.SUPPRESS,
                   help="comma-separated feature symbols")
    p.add_argument("--top", type=int, default=argparse.SUPPRESS,
                   help="take the N best features from --results")
    p.add_argument("--results", default=argparse.SUPPRESS,
                   help="ranked results table for --top")
    p.add_argument("--label-field", dest="label_field", default=None,
                   help="metadata field providing point labels")
    p.add_argument("--scale", action="store_true", default=argparse.SUPPRESS,
                   help="scale variables to unit variance first")
    p.add_argument("--out-svg", dest="out_svg", required=True)
    p.add_argument("--out-tsv", dest="out_tsv", default=None)

    p = add("factor-plot", cmd_factor_plot,
            "project dataset median vectors on the first plane")
    p.add_argument("datasets", nargs="+")
    p.add_argument("--out-svg", dest="out_svg", required=True)
    p.add_argument("--out-tsv", dest="out_tsv", default=None)

    p = add("enrich", cmd_enrich, "gene-set enrichment of significant features")
    p.add_argument("results", help="results table from the test command")
    p.add_argument("gmt", help="gene sets in GMT format")
    p.add_argument("--universe", default=None,
                   help="file with one universe symbol per line "
                        "(default: all tested features)")
    p.add_argument("--threshold", type=float, default=argparse.SUPPRESS,
                   help="adjusted-p cutoff selecting features (default 0.05)")
    p.add_argument("--out", required=True)

    p = add("split-het", cmd_split_het,
            "split samples by the sign of one feature and correlate halves")
    p.add_argument("dataset")
    p.add_argument("--feature", required=True)

    return parser


# Exit code per exception type, first match wins: ParseError and the
# other package errors subclass ValueError, so they come before it.
_EXIT_CODES = (
    (_UsageError, EXIT_USAGE),
    (ParseError, EXIT_PARSE),
    (ManifestError, EXIT_PARSE),
    (AnnotationError, EXIT_ANNOTATION),
    (AlreadyScoredError, EXIT_ALREADY_SCORED),
    (NoCommonFeaturesError, EXIT_NO_COMMON),
    (DegenerateDataError, EXIT_DEGENERATE),
    (_UnknownFeatureError, EXIT_UNKNOWN_FEATURE),
    (_EmptyUniverseError, EXIT_EMPTY_UNIVERSE),
    (ValueError, EXIT_USAGE),
    (KeyError, EXIT_USAGE),
    (OSError, EXIT_USAGE),
)


def main(argv=None) -> int:
    """Run one command.  ``argv=None`` (read sys.argv) is the process
    entry, which freezes the start-up objects (see the module docstring)."""
    if argv is None:
        gc.freeze()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(getattr(args, "config", None))
        opts = Options(args, config, args.command)
        return args.func(args, opts)
    except tuple(t for t, _ in _EXIT_CODES) as exc:
        # str() of a KeyError is the repr of its message
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return next(code for t, code in _EXIT_CODES if isinstance(exc, t))


if __name__ == "__main__":
    sys.exit(main())
