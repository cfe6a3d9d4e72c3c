"""Rank-based merging and analysis of expression matrices."""

from .errors import (
    AlreadyScoredError,
    AnnotationError,
    DegenerateDataError,
    ManifestError,
    NoCommonFeaturesError,
    ParseError,
)
from .matrix import (
    DataMatrix,
    Dataset,
    InfoMatrix,
    common_rows,
    exclude_samples,
    median_column,
    merge_datasets,
    random_partition,
    reduce_duplicates,
    select_samples,
)
from .ingest import (
    SeriesMatrixDocument,
    annotate,
    load_dataset,
    parse_annotation,
    parse_series_matrix,
    save_dataset,
    serialize_series_matrix,
)
from .transform import ecdf_score, midrank, score_dataset, score_matrix, vdw_score
from .numerics import (
    LogP,
    chi_sq_upper_tail_ln,
    inv_norm_cdf,
    log_choose,
    norm_upper_tail_ln,
)
from .rstats import (
    GeneSet,
    ResultTable,
    TestResult,
    apply_fdr,
    benjamini_yekutieli,
    correlation_threshold,
    enrich_genesets,
    fisher_enrichment,
    heterogeneity_split,
    kruskal_wallis,
    kw_per_feature,
    median_correlation,
    pair_count,
    pairwise_row_correlations,
    parse_gmt,
    pearson,
    rank_features,
    sample_groups,
    significant_features,
    spearman,
    wilcoxon_group_vs_rest,
    wilcoxon_one_sided,
    wilcoxon_per_feature,
)
from .multivar import factor_plot_medians, pca, project_first_plane

__version__ = "0.1.0"

__all__ = [
    "AlreadyScoredError", "AnnotationError", "DegenerateDataError",
    "ManifestError", "NoCommonFeaturesError", "ParseError",
    "DataMatrix", "Dataset", "InfoMatrix",
    "common_rows", "exclude_samples", "heterogeneity_split", "median_column",
    "merge_datasets", "random_partition", "reduce_duplicates", "select_samples",
    "SeriesMatrixDocument", "annotate", "load_dataset", "parse_annotation",
    "parse_series_matrix", "save_dataset", "serialize_series_matrix",
    "ecdf_score", "midrank", "score_dataset", "score_matrix", "vdw_score",
    "LogP", "chi_sq_upper_tail_ln", "inv_norm_cdf", "log_choose",
    "norm_upper_tail_ln",
    "GeneSet", "ResultTable", "TestResult", "apply_fdr", "benjamini_yekutieli",
    "correlation_threshold", "enrich_genesets", "fisher_enrichment",
    "kruskal_wallis", "kw_per_feature", "median_correlation", "pair_count",
    "pairwise_row_correlations", "parse_gmt", "pearson", "rank_features",
    "sample_groups", "significant_features", "spearman", "wilcoxon_group_vs_rest",
    "wilcoxon_one_sided", "wilcoxon_per_feature",
    "factor_plot_medians", "pca", "project_first_plane",
    "__version__",
]
