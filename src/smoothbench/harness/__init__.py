"""Benchmark harness: metrics, random search, nested CV, rank statistics, reports."""

from .metrics import FAILURE_SCORE, adjusted_r2, clip_bounds, r2
from .nested_cv import BenchRunConfig, FoldResult, run_benchmark, run_outer_fold, tune
from .report import (
    SCHEMA_VERSION,
    TIMING_FIELDS,
    build_report,
    read_results_jsonl,
    report_model_columns,
    write_report_files,
    write_results_jsonl,
)
from .search import Param, SearchSpace, Trial, random_search, search_space
from .stats import (
    FriedmanResult,
    GapPairSummary,
    friedman_test,
    matched_gap_wins,
    nemenyi_cd,
    rank_matrix,
)

__all__ = [
    "FAILURE_SCORE", "adjusted_r2", "clip_bounds", "r2",
    "BenchRunConfig", "FoldResult", "run_benchmark", "run_outer_fold", "tune",
    "SCHEMA_VERSION", "TIMING_FIELDS", "build_report", "read_results_jsonl",
    "report_model_columns", "write_report_files", "write_results_jsonl",
    "Param", "SearchSpace", "Trial", "random_search", "search_space",
    "FriedmanResult", "GapPairSummary", "friedman_test",
    "matched_gap_wins", "nemenyi_cd", "rank_matrix",
]
