"""Random hyperparameter search over declarative parameter spaces.

Each model kind declares a fixed-budget space. Trials sample parameters
independently in declaration order from one seeded generator. A categorical
choice may itself be a Param, which is drawn (and consumes randomness) only
when it is chosen. Failed trials score a large negative sentinel and keep
their error instead of aborting the search, and ties keep the earliest trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .metrics import FAILURE_SCORE


@dataclass(frozen=True)
class Param:
    """One dimension of a search space.

    kind: 'uniform' | 'log_uniform' | 'int' | 'categorical'. A categorical
    choice that is a Param is sampled in turn when it is chosen.
    """

    kind: str
    lo: float = 0.0
    hi: float = 0.0
    choices: Tuple[Any, ...] = ()

    def sample(self, rng: np.random.Generator) -> Any:
        if self.kind == "uniform":
            return float(rng.uniform(self.lo, self.hi))
        if self.kind == "log_uniform":
            return float(math.exp(rng.uniform(math.log(self.lo), math.log(self.hi))))
        if self.kind == "int":
            return int(rng.integers(int(self.lo), int(self.hi) + 1))
        if self.kind == "categorical":
            choice = self.choices[int(rng.integers(len(self.choices)))]
            return choice.sample(rng) if isinstance(choice, Param) else choice
        raise ValueError(f"unknown parameter kind {self.kind!r}")


@dataclass(frozen=True)
class SearchSpace:
    params: Dict[str, Param]
    budget: int

    def sample_trial(self, rng: np.random.Generator) -> Dict[str, Any]:
        return {pname: spec.sample(rng) for pname, spec in self.params.items()}


@dataclass
class Trial:
    number: int
    params: Dict[str, Any]
    score: float
    error: Optional[Exception] = None  # why a failed trial failed


def random_search(
    objective: Callable[[Dict[str, Any]], float],
    space: SearchSpace,
    seed: int,
    budget: Optional[int] = None,
) -> Tuple[Dict[str, Any], float, List[Trial]]:
    """Run the search; returns (best_params, best_score, all trials).

    An objective that raises (or returns a non-finite score) marks that trial
    with FAILURE_SCORE, keeps the error (a ValueError for a non-finite score)
    in Trial.error, and the search continues. Strict improvement updates the
    incumbent, so equal scores keep the earlier trial.
    """
    n_trials = space.budget if budget is None else budget
    if n_trials < 1:
        raise ValueError("search budget must be >= 1")
    rng = np.random.default_rng(seed)
    trials: List[Trial] = []
    best_params: Optional[Dict[str, Any]] = None
    best_score = -math.inf
    for t in range(n_trials):
        params = space.sample_trial(rng)
        try:
            score, error = float(objective(params)), None
            if not math.isfinite(score):
                raise ValueError(f"score is not finite: {score}")
        except Exception as exc:
            # without its traceback, a kept error holds no frame of the failed fit
            score, error = FAILURE_SCORE, exc.with_traceback(None)
        trials.append(Trial(number=t, params=params, score=score, error=error))
        if best_params is None or score > best_score:
            best_params = params
            best_score = score
    return best_params, best_score, trials


# ---------------------------------------------------------------------------
# Per-model spaces (budgets are the benchmark trial counts); every name is a
# keyword parameter of the kind's fit function (registry.hyperparameters)

SPACES: Dict[str, SearchSpace] = {
    "ridge": SearchSpace({
        "alpha": Param("log_uniform", lo=1e-3, hi=1e3),
    }, budget=20),
    "dt": SearchSpace({
        "max_depth": Param("int", lo=1, hi=20),
        "min_samples_leaf": Param("uniform", lo=0.005, hi=0.1),
        "min_samples_split": Param("uniform", lo=0.01, hi=0.1),
    }, budget=25),
    "erbf": SearchSpace({
        # None sizes the network by auto_k
        "n_rbf": Param("categorical", choices=(None, Param("int", lo=10, hi=80))),
        "alpha": Param("log_uniform", lo=1e-3, hi=1e3),
        "center_init": Param("categorical", choices=("lipschitz", "kmeans")),
        "width_init": Param("categorical", choices=("local_ridge", "local_variance")),
    }, budget=30),
    "chebypoly": SearchSpace({
        "complexity": Param("int", lo=1, hi=14),
        "alpha": Param("log_uniform", lo=1e-3, hi=1e3),
        "interactions": Param("categorical",
                              choices=(Param("categorical", choices=(1, 2)), 0)),
    }, budget=30),
    "chebytree": SearchSpace({
        "complexity": Param("int", lo=1, hi=6),
        "alpha": Param("log_uniform", lo=1e-3, hi=1e3),
        "max_depth": Param("int", lo=1, hi=12),
        "min_samples_leaf": Param("uniform", lo=0.01, hi=0.1),
    }, budget=30),
}


def search_space(kind: str) -> SearchSpace:
    if kind not in SPACES:
        raise ValueError(f"no search space for model kind {kind!r}")
    return SPACES[kind]
