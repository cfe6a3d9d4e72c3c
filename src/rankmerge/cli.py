"""Command-line frontend chaining the pipeline stages.

Commands: ingest, score, merge, select, partition, median-cor,
pairwise, test, pca, factor-plot, enrich, split-het.

Flags are long-form only.  Each option's type, choices and default are
declared once, in its ``add_argument`` call in ``_build_parser``.  A JSON
config file (--config) may supply option values: ``_resolve_options``
fills each optional flag the command line left out from the command's
section (a top-level key named after the command), else the top-level
key, else the declared default, and refuses, before the command runs,
a config value that does not match the declaration and a key in the
command's section that is none of its options.  Positional and
required arguments come from the command line only.  --seed and
--config are accepted before or after the command name; any other flag
before it is refused, named in the message.  pairwise alone
takes --threads N, after its name; N must be >= 1, as a flag or a config
value (exit 1 before any input is read), and is otherwise unused: every
command runs in one process.

A usage fault the command line alone shows, such as test's --field with
several datasets or pca's --top without --results, is refused (exit 1)
before any input is read, so an unreadable input never hides it.

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
import dataclasses
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
    MULTI_POLICIES,
    annotate,
    load_dataset,
    open_text,
    parse_annotation,
    parse_series_matrix,
    save_dataset,
    text_lines,
)
from .matrix import (
    MATCH_MODES,
    RANK_SCORES,
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
    CORRELATION_METHODS,
    RANK_KEYS,
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
    wilcoxon_group_vs_rest,  # unused; bench/run.py wraps this cli name
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

def _suppress_defaults(commands: dict[str, _Parser]) -> None:
    """Move each optional flag's declared default to ``action.declared``.

    argparse copies every default of the command's parser over the
    namespace, flags given before the command name included, so options
    stay out of the namespace until ``_resolve_options`` fills them.  The
    --seed action is shared by every parser and moved once; --config is
    declared suppressed and never resolved.  The default is added to the
    flag's help text."""
    for command in commands.values():
        for action in command._actions:
            if (action.option_strings and not action.required
                    and action.default is not argparse.SUPPRESS):
                action.declared, action.default = action.default, argparse.SUPPRESS
                if action.declared is not None:
                    action.help = (f"{action.help or ''} "
                                   f"(default: {action.declared})").lstrip()


def _resolve_options(args: argparse.Namespace, config: dict,
                     command: _Parser) -> None:
    """Fill each optional flag the command line left out: the command's
    config section, else the top-level key, else the declared default.
    A top-level dict is always a command section, never a value; a key
    in the section that is none of the command's options is refused, and
    so is pairwise's thread count below 1, from the flag or the config."""
    section = config.get(args.command)
    section = section if isinstance(section, dict) else {}
    options = {a.dest: a for a in command._actions if hasattr(a, "declared")}
    for key in section:
        if key not in options:
            raise _UsageError(f"config key {key!r} is unknown in section "
                              f"{args.command!r}")
    for key, action in options.items():
        if hasattr(args, key):
            continue
        if key in section:
            value = _config_value(action, section[key])
        elif key in config and not isinstance(config[key], dict):
            value = _config_value(action, config[key])
        else:
            value = action.declared
        setattr(args, key, value)
    if getattr(args, "threads", 1) < 1:
        raise _UsageError(f"threads must be >= 1, got {args.threads}")


def _config_value(action: argparse.Action, value):
    """``value`` checked against its option's declaration.

    Flags arrive typed from argparse; a config value must be a JSON value
    of the option's type, never a string to convert or a bool read as 0
    or 1, and one of its choices.  null is accepted where the declared
    default is none."""
    if value is None and action.declared is None:
        return None
    number = _number(value)
    if action.nargs == 0:
        what, ok = "true or false", isinstance(value, bool)
    elif action.type is int:
        what, ok = "an integer", number is not None and number.is_integer()
    elif action.type is float:
        what, ok = "a number", number is not None
    else:
        what, ok = "a string", isinstance(value, str)
    if ok and action.choices is not None and value not in action.choices:
        what, ok = f"one of {', '.join(action.choices)}", False
    if not ok:
        raise _UsageError(f"config key {action.dest!r} must be {what}, "
                          f"got {value!r}")
    return value if action.type is None else action.type(value)


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


def _median_profiles(dsets: list[Dataset]):
    """The features common to ``dsets`` and each dataset's median over them."""
    features = common_rows([d.data for d in dsets])
    return features, [median_column(d.data.take_rows(features)) for d in dsets]


def _write_plot(out_svg: str, out_tsv: str | None, spec, header: str,
                rows) -> None:
    """Render ``spec`` to ``out_svg``; then, when ``out_tsv`` is given,
    write ``header`` and each row of text cells to it."""
    with _partial_file(out_svg) as fh:
        fh.write(render_svg(spec))
    if out_tsv is not None:
        with _partial_file(out_tsv) as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write("\t".join(row) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_ingest(args: argparse.Namespace) -> int:
    _new_dir(args.out)
    doc = parse_series_matrix(args.series)
    mapping = parse_annotation(args.annotation)
    result = annotate(doc, mapping, args.multi_policy)
    reduced, all_missing = reduce_duplicates(result.data)
    ds = Dataset(reduced, result.info, name=args.name or Path(args.series).stem,
                 source=Path(args.series).name)
    _save_dataset_atomic(ds, args.out)
    collapsed = result.data.n_rows - reduced.n_rows - len(all_missing)
    print(f"probes={len(doc.probe_ids)} features={reduced.n_rows} "
          f"samples={reduced.n_cols} unmapped={result.n_unmapped} "
          f"multi_dropped={result.n_multi_dropped} collapsed={collapsed} "
          f"all_missing={len(all_missing)}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    _new_dir(args.out)
    ds = load_dataset(args.dataset)
    out = score_dataset(ds, args.kind)
    _save_dataset_atomic(out, args.out)
    print(f"scored kind={args.kind} features={out.data.n_rows} "
          f"samples={out.n_samples}")
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    if len(args.datasets) < 2:
        raise _UsageError("merge needs at least two dataset directories")
    _new_dir(args.out)
    dsets = [load_dataset(p) for p in args.datasets]
    merged = merge_datasets(dsets, name=args.name)
    _save_dataset_atomic(merged, args.out)
    print(f"merged datasets={len(dsets)} features={merged.data.n_rows} "
          f"samples={merged.n_samples}")
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    _new_dir(args.out)
    ds = load_dataset(args.dataset)
    op = exclude_samples if args.invert else select_samples
    out = op(ds, args.field, args.keyword, args.mode)
    if args.name:
        out = dataclasses.replace(out, name=args.name)
    _save_dataset_atomic(out, args.out)
    print(f"selected samples={out.n_samples} of {ds.n_samples}")
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s != ""]
    except ValueError:
        raise _UsageError(f"--sizes must be comma-separated integers, "
                          f"got {args.sizes!r}") from None
    outs = [_new_dir(Path(args.out) / f"part{i}")
            for i in range(1, len(sizes) + 1)]
    ds = load_dataset(args.dataset)
    parts = random_partition(ds, sizes, args.seed)
    for part, out in zip(parts, outs):
        _save_dataset_atomic(part, out)
    print(f"parts={len(parts)} sizes={','.join(str(s) for s in sizes)} "
          f"seed={args.seed}")
    return 0


def cmd_median_cor(args: argparse.Namespace) -> int:
    dsets = [load_dataset(p) for p in args.datasets]
    features, medians = _median_profiles(dsets)
    k = len(dsets)
    corr = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            corr[i, j] = corr[j, i] = median_correlation(
                medians[i], medians[j], args.method)
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
    print(f"datasets={k} common_rows={n} method={args.method}")
    return 0


def cmd_pairwise(args: argparse.Namespace) -> int:
    ds = load_dataset(args.dataset)
    with _partial_file(args.out) as fh:
        result = write_pairwise_text(ds.data, fh, method=args.method)
    print(f"pairs={result.emitted} skipped={result.skipped}")
    return 0


# library value of each --alternative and --exact choice; the keys are
# the choices that _build_parser declares
_ALTERNATIVES = {"greater": "A_greater", "less": "A_less"}
_EXACT = {"auto": None, "on": True, "off": False}


def cmd_test(args: argparse.Namespace) -> int:
    if len(args.datasets) == 1:
        if args.field is None:
            raise _UsageError("a single dataset needs --field to form groups")
        if args.test == "wilcoxon" and args.keyword is None:
            raise _UsageError("--test wilcoxon needs --keyword "
                              "to pick the comparison group")
    elif args.field is not None or args.keyword is not None:
        raise _UsageError("--field and --keyword split one dataset; "
                          "several datasets are the groups themselves")
    elif args.test == "wilcoxon" and len(args.datasets) != 2:
        raise _UsageError("--test wilcoxon compares exactly two dataset groups")

    dsets = [load_dataset(p) for p in args.datasets]
    if len(dsets) == 1:
        try:
            groups = sample_groups(dsets[0], args.field, args.keyword, args.mode)
        except ValueError as exc:
            raise DegenerateDataError(str(exc)) from None
    else:
        empty = [d.name for d in dsets if d.n_samples == 0]
        if empty:
            raise DegenerateDataError(f"empty group dataset {empty[0]!r}")
        groups = [d.data for d in dsets]

    if args.test == "kw":
        results = kw_per_feature(groups)
    else:
        results = wilcoxon_per_feature(*groups, _ALTERNATIVES[args.alternative],
                                       _EXACT[args.exact])

    adjusted = apply_fdr(results)
    ranked = rank_features(adjusted, by=args.rank_by)
    sig = len(significant_features(ranked, args.fdr))
    with _partial_file(args.out) as fh:
        write_results_tsv(ranked, fh)
    tested = int(ranked.tested.sum())
    print(f"features={len(ranked)} tested={tested} significant={sig} "
          f"threshold={args.fdr:g}")
    return 0


def _feature_list(args: argparse.Namespace) -> list[str]:
    if (args.features is None) == (args.top is None):
        raise _UsageError("exactly one of --features and --top is required")
    if args.features is not None:
        out = [f for f in args.features.split(",") if f]
        if not out:
            raise _UsageError("--features lists no symbols")
        return out
    if args.top < 1:
        raise _UsageError("--top must be positive")
    if args.results is None:
        raise _UsageError("--top needs --results (a ranked results table)")
    return list(read_results_tsv(args.results).features[:args.top])


def cmd_pca(args: argparse.Namespace) -> int:
    wanted = _feature_list(args)
    dsets = [load_dataset(p) for p in args.datasets]
    ds = dsets[0] if len(dsets) == 1 else merge_datasets(dsets)
    if args.label_field is not None:
        labels = list(ds.info.field(args.label_field))
    else:
        labels = [d.name for d in dsets for _ in range(d.n_samples)]

    _check_features(wanted, ds.data.row_names)
    x = ds.data.take_rows(wanted).values.T
    result = pca(x, scale=args.scale)
    points = project_first_plane(result, labels, names=ds.data.col_names)
    spec = build_plot_spec([(x, y, label) for _, x, y, label in points],
                           "PC1", "PC2",
                           f"PCA of {len(wanted)} features, "
                           f"{len(points)} samples")
    _write_plot(args.out_svg, args.out_tsv, spec, "sample\tpc1\tpc2\tlabel",
                [(name, f"{x:.6g}", f"{y:.6g}", label)
                 for name, x, y, label in points])
    total = float(np.sum(result.eigenvalues))
    share = result.eigenvalues[:2] / total if total > 0 else [0.0, 0.0]
    print(f"samples={len(points)} variables={len(wanted)} "
          f"pc1_share={share[0]:.3f} pc2_share={share[1]:.3f}")
    return 0


def cmd_factor_plot(args: argparse.Namespace) -> int:
    if len(args.datasets) < 3:
        raise _UsageError("factor-plot needs at least three datasets")
    dsets = [load_dataset(p) for p in args.datasets]
    features, medians = _median_profiles(dsets)
    coords = factor_plot_medians(np.column_stack(medians),
                                 [d.name for d in dsets])
    spec = build_plot_spec([(x, y, name) for name, x, y in coords], "C1", "C2",
                           f"Median profiles of {len(dsets)} datasets")
    _write_plot(args.out_svg, args.out_tsv, spec, "dataset\tc1\tc2",
                [(name, f"{x:.6g}", f"{y:.6g}") for name, x, y in coords])
    print(f"datasets={len(dsets)} common_rows={len(features)}")
    return 0


def cmd_enrich(args: argparse.Namespace) -> int:
    results = read_results_tsv(args.results)
    selected = set(significant_features(results, args.threshold).features)

    if args.universe is not None:
        universe = {s for s in map(str.strip, text_lines(args.universe)) if s}
    else:
        universe = set(results.features)
    if not universe:
        raise _EmptyUniverseError("the enrichment universe is empty")

    gene_sets = parse_gmt(args.gmt)
    rows = enrich_genesets(selected, universe, gene_sets)
    n_selected = len(selected & universe)
    ln_p = np.array([p.ln_p for _, _, _, p in rows])
    raw_cells, adj_cells = p_cells(ln_p), p_cells(benjamini_yekutieli(ln_p))
    with _partial_file(args.out) as fh:
        fh.write("set\tset_size\toverlap\tselected\tuniverse\t"
                 "p_raw\tlog10_p_raw\tp_adj\tlog10_p_adj\n")
        for (gs, size, overlap, _), *cells in zip(rows, *raw_cells, *adj_cells):
            fh.write("\t".join([
                gs.name, str(size), str(overlap), str(n_selected),
                str(len(universe)), *cells,
            ]) + "\n")
    print(f"sets={len(rows)} selected={n_selected} "
          f"universe={len(universe)}")
    return 0


def cmd_split_het(args: argparse.Namespace) -> int:
    ds = load_dataset(args.dataset)
    _check_features([args.feature], ds.data.row_names)
    try:
        r, (n_pos, n_neg) = heterogeneity_split(ds, args.feature)
    except ValueError as exc:
        raise DegenerateDataError(str(exc)) from None
    print(f"feature={args.feature} r={r:.4f} n_pos={n_pos} n_neg={n_neg}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The ``rankmerge`` parser and the parser of each command."""
    common = _Parser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON file with default option values")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized operations")

    parser = _Parser(prog="rankmerge", parents=[common],
                     description="Rank-based merging and analysis "
                                 "of expression matrices.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add(name, func, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text,
                           description=help_text)
        p.set_defaults(func=func)
        return p

    p = add("ingest", cmd_ingest, "parse, annotate and reduce a series matrix")
    p.add_argument("series", help="series-matrix text file")
    p.add_argument("annotation", help="probe-to-symbol TSV")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--multi-policy", dest="multi_policy",
                   choices=MULTI_POLICIES, default="first",
                   help="multi-symbol probes: keep first symbol or drop")
    p.add_argument("--name", help="dataset name (default: series file stem)")

    p = add("score", cmd_score, "replace values by per-column rank scores; "
            "this assumes most features unchanged (see README)")
    p.add_argument("dataset")
    p.add_argument("--kind", required=True, choices=RANK_SCORES)
    p.add_argument("--out", required=True)

    p = add("merge", cmd_merge, "merge datasets on common features")
    p.add_argument("datasets", nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--name", help="dataset name (default: the dataset "
                                  "names joined by +)")

    p = add("select", cmd_select, "keep samples matching a metadata keyword")
    p.add_argument("dataset")
    p.add_argument("--field", required=True)
    p.add_argument("--keyword", required=True)
    p.add_argument("--mode", choices=MATCH_MODES, default="substring")
    p.add_argument("--invert", action="store_true",
                   help="drop matching samples instead")
    p.add_argument("--out", required=True)
    p.add_argument("--name", help="dataset name (default: the input's)")

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
    p.add_argument("--method", choices=CORRELATION_METHODS, default="pearson")
    p.add_argument("--out", required=True)

    p = add("pairwise", cmd_pairwise, "stream all row-pair correlations")
    p.add_argument("dataset")
    p.add_argument("--method", choices=CORRELATION_METHODS, default="pearson")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and unused, >= 1")
    p.add_argument("--out", required=True)

    p = add("test", cmd_test, "per-feature group tests with FDR control")
    p.add_argument("datasets", nargs="+",
                   help="group datasets, or one dataset to split by --field")
    p.add_argument("--test", required=True, choices=("kw", "wilcoxon"))
    p.add_argument("--field", help="metadata field splitting one dataset")
    p.add_argument("--keyword",
                   help="compare the samples matching it against the rest "
                        "(default: one group per field value)")
    p.add_argument("--mode", choices=MATCH_MODES, default="substring")
    p.add_argument("--alternative", choices=_ALTERNATIVES, default="greater",
                   help="one-sided direction for wilcoxon")
    p.add_argument("--exact", choices=_EXACT, default="auto",
                   help="wilcoxon exact enumeration")
    p.add_argument("--fdr", type=float, default=0.05,
                   help="significance threshold on adjusted p")
    p.add_argument("--rank-by", dest="rank_by", choices=RANK_KEYS, default="p")
    p.add_argument("--out", required=True)

    p = add("pca", cmd_pca, "scatter samples on the first principal plane")
    p.add_argument("datasets", nargs="+")
    p.add_argument("--features", help="comma-separated feature symbols")
    p.add_argument("--top", type=int,
                   help="take the N best features from --results")
    p.add_argument("--results", help="ranked results table for --top")
    p.add_argument("--label-field", dest="label_field",
                   help="metadata field providing point labels "
                        "(default: each sample's dataset name)")
    p.add_argument("--scale", action="store_true",
                   help="scale variables to unit variance first")
    p.add_argument("--out-svg", dest="out_svg", required=True)
    p.add_argument("--out-tsv", dest="out_tsv", help="point coordinates")

    p = add("factor-plot", cmd_factor_plot,
            "project dataset median vectors on the first plane")
    p.add_argument("datasets", nargs="+")
    p.add_argument("--out-svg", dest="out_svg", required=True)
    p.add_argument("--out-tsv", dest="out_tsv", help="dataset coordinates")

    p = add("enrich", cmd_enrich, "gene-set enrichment of significant features")
    p.add_argument("results", help="results table from the test command")
    p.add_argument("gmt", help="gene sets in GMT format")
    p.add_argument("--universe",
                   help="file with one universe symbol per line "
                        "(default: all tested features)")
    p.add_argument("--threshold", type=float, default=0.05,
                   help="adjusted-p cutoff selecting features")
    p.add_argument("--out", required=True)

    p = add("split-het", cmd_split_het,
            "split samples by the sign of one feature and correlate halves")
    p.add_argument("dataset")
    p.add_argument("--feature", required=True)

    _suppress_defaults(sub.choices)
    return parser, sub.choices


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


def _check_leading_flags(argv) -> None:
    """Refuse a flag before the command name other than --seed, --config
    and help, or a prefix argparse expands to one of them: argparse would
    read the flag's value as the command name."""
    tokens = iter(argv)
    for token in tokens:
        if token == "--" or not token.startswith("-"):
            return
        name, eq, _ = token.partition("=")
        if name != "-h" and (len(name) < 3 or not any(
                f.startswith(name) for f in ("--seed", "--config", "--help"))):
            raise _UsageError(f"rankmerge: {name} goes after the command name "
                              f"(only --seed and --config go before it)")
        if not eq:
            next(tokens, None)


def main(argv=None) -> int:
    """Run one command.  ``argv=None`` (read sys.argv) is the process
    entry, which freezes the start-up objects (see the module docstring)."""
    if argv is None:
        gc.freeze()
    parser, commands = _build_parser()
    try:
        _check_leading_flags(sys.argv[1:] if argv is None else argv)
        args = parser.parse_args(argv)
        config = _load_config(getattr(args, "config", None))
        _resolve_options(args, config, commands[args.command])
        return args.func(args)
    except tuple(t for t, _ in _EXIT_CODES) as exc:
        # str() of a KeyError is the repr of its message
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return next(code for t, code in _EXIT_CODES if isinstance(exc, t))


if __name__ == "__main__":
    sys.exit(main())
