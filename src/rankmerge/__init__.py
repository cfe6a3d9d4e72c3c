"""Rank-based merging and analysis of expression matrices.

Each public name loads its module on first use (PEP 562), so importing
the package, as ``python -m rankmerge.cli`` does first, imports none of
its modules.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it, in the order of __all__
_EXPORTS = {
    "AlreadyScoredError": "errors", "AnnotationError": "errors",
    "DegenerateDataError": "errors", "ManifestError": "errors",
    "NoCommonFeaturesError": "errors", "ParseError": "errors",
    "UnknownFeatureError": "errors", "EmptyUniverseError": "errors",
    "DataMatrix": "matrix", "Dataset": "matrix", "InfoMatrix": "matrix",
    "common_rows": "matrix", "exclude_samples": "matrix",
    "heterogeneity_split": "rstats", "median_column": "matrix",
    "merge_datasets": "matrix", "random_partition": "matrix",
    "reduce_duplicates": "matrix", "select_samples": "matrix",
    "SeriesMatrixDocument": "ingest", "annotate": "ingest",
    "load_dataset": "ingest", "parse_annotation": "ingest",
    "parse_series_matrix": "ingest", "save_dataset": "ingest",
    "serialize_series_matrix": "ingest",
    "ecdf_score": "transform", "midrank": "transform",
    "score_dataset": "transform", "score_matrix": "transform",
    "vdw_score": "transform",
    "LogP": "numerics", "chi_sq_upper_tail_ln": "numerics",
    "inv_norm_cdf": "numerics", "log_choose": "numerics",
    "norm_upper_tail_ln": "numerics",
    "GeneSet": "rstats", "ResultTable": "rstats", "TestResult": "rstats",
    "apply_fdr": "rstats", "benjamini_yekutieli": "rstats",
    "correlation_threshold": "rstats", "enrich_genesets": "rstats",
    "fisher_enrichment": "rstats", "kruskal_wallis": "rstats",
    "kw_per_feature": "rstats", "median_correlation": "rstats",
    "pair_count": "rstats", "pairwise_row_correlations": "rstats",
    "parse_gmt": "rstats", "pearson": "rstats", "rank_features": "rstats",
    "sample_groups": "rstats", "significant_features": "rstats",
    "spearman": "rstats", "wilcoxon_group_vs_rest": "rstats",
    "wilcoxon_one_sided": "rstats", "wilcoxon_per_feature": "rstats",
    "write_pairwise_text": "rstats", "read_results_tsv": "rstats",
    "write_results_tsv": "rstats", "p_cells": "rstats",
    "factor_plot_medians": "multivar", "pca": "multivar",
    "project_first_plane": "multivar",
    "build_plot_spec": "svgplot", "render_svg": "svgplot",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
