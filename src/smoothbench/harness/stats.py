"""Rank aggregation and the Friedman / Nemenyi post-hoc machinery.

Ranks: 1 is best, ties share the average rank, and a failed (dataset, model)
pair is pinned to the worst rank k. The Friedman test uses the chi-square
approximation with hardcoded 5% critical values for df 1..10; the Nemenyi
critical difference uses the standard two-tailed 5% studentised-range
constants for k = 2..10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

# chi-square upper 5% critical values, df 1..10
CHI2_CRIT_05 = {
    1: 3.841, 2: 5.991, 3: 7.815, 4: 9.488, 5: 11.070,
    6: 12.592, 7: 14.067, 8: 15.507, 9: 16.919, 10: 18.307,
}

# Nemenyi q_alpha at alpha = 0.05 for k = 2..10
NEMENYI_Q_05 = {
    2: 1.960, 3: 2.343, 4: 2.569, 5: 2.728, 6: 2.850,
    7: 2.949, 8: 3.031, 9: 3.102, 10: 3.164,
}

# largest |mean adjusted R^2 difference| at which a dataset counts as matched
MATCH_THRESHOLD = 0.02


def rank_matrix(score_table: np.ndarray, failed: np.ndarray) -> np.ndarray:
    """Ranks per row of an (n_datasets, k_models) score table; rank 1 is best.

    A higher score is better, and ties take the average of the positions they
    straddle. Entries flagged in failed get rank k (the worst) whatever their
    score, and are left out of the other entries' counts.
    """
    scores = np.asarray(score_table, dtype=np.float64)
    k = scores.shape[1]
    ok = ~np.asarray(failed, bool)
    # [i, a, b] compares entry b of row i with entry a; only non-failed b count
    others, own, counted = scores[:, None, :], scores[:, :, None], ok[:, None, :]
    higher = ((others > own) & counted).sum(axis=2)
    tied = ((others == own) & counted).sum(axis=2) - 1
    return np.where(ok, 1.0 + higher + 0.5 * tied, float(k))


@dataclass(frozen=True)
class FriedmanResult:
    statistic: float
    df: int
    critical_value: float
    significant: bool


def friedman_test(ranks: np.ndarray) -> FriedmanResult:
    """Friedman chi-square test over an (n_datasets, k_models) rank matrix.

    chi2_F = 12n / (k(k+1)) * (sum_j Rbar_j^2 - k(k+1)^2 / 4), compared with
    the df = k-1 critical value at alpha = 0.05.
    """
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.ndim != 2:
        raise ValueError("ranks must be (n_datasets, k_models)")
    n, k = ranks.shape
    if n < 1 or k < 2:
        raise ValueError("need at least one dataset and two models")
    df = k - 1
    if df not in CHI2_CRIT_05:
        raise ValueError(f"no critical value for df={df}; supported df 1..10")
    mean_ranks = ranks.mean(axis=0)
    statistic = 12.0 * n / (k * (k + 1)) * (float(np.sum(mean_ranks ** 2)) - k * (k + 1) ** 2 / 4.0)
    critical = CHI2_CRIT_05[df]
    return FriedmanResult(
        statistic=float(statistic),
        df=df,
        critical_value=critical,
        significant=bool(statistic > critical),
    )


def nemenyi_cd(k: int, n: int) -> float:
    """Nemenyi critical difference q_0.05(k) * sqrt(k(k+1) / (6n))."""
    if k not in NEMENYI_Q_05:
        raise ValueError(f"unsupported model count k={k}; supported k 2..10")
    if n < 1:
        raise ValueError("need at least one dataset")
    return NEMENYI_Q_05[k] * (k * (k + 1) / (6.0 * n)) ** 0.5


@dataclass
class GapPairSummary:
    smooth: str
    tree: str
    matched: int
    smooth_wins: float  # ties count one half
    fraction: Optional[float]  # None when nothing matched


def matched_gap_wins(
    score_table: np.ndarray,
    gap_table: np.ndarray,
    failed: np.ndarray,
    models: List[str],
    pairs: List[Tuple[str, str]],
) -> List[GapPairSummary]:
    """Generalisation-gap win counts on accuracy-matched datasets.

    The tables are (n_datasets, k_models), with columns in models' order. A
    dataset is matched for a (smooth, tree) pair when neither entry is
    flagged in failed and their mean adjusted R^2 differ by at most
    MATCH_THRESHOLD. On matched datasets the model with the strictly smaller
    mean gap wins; exact ties score half a win each.
    """
    ok = ~failed
    out = []
    for smooth, tree in pairs:
        s, t = models.index(smooth), models.index(tree)
        diff = np.abs(score_table[:, s] - score_table[:, t])
        matched = ok[:, s] & ok[:, t] & (diff <= MATCH_THRESHOLD)
        s_gap, t_gap = gap_table[matched, s], gap_table[matched, t]
        n_matched = int(matched.sum())
        wins = float(np.sum(s_gap < t_gap) + 0.5 * np.sum(s_gap == t_gap))
        out.append(GapPairSummary(
            smooth=smooth, tree=tree, matched=n_matched, smooth_wins=wins,
            fraction=(wins / n_matched) if n_matched else None,
        ))
    return out
