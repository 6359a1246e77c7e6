"""Random hyperparameter search over declarative parameter spaces.

Each model kind declares a fixed-budget space. Trials sample parameters
independently in declaration order from one seeded generator; a parameter
gated on a categorical parent is only drawn (and only consumes randomness)
when the parent takes its activating value. Failed trials score a large
negative sentinel instead of aborting the search, and ties keep the earliest
trial.
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

    kind: 'uniform' | 'log_uniform' | 'int' | 'categorical'.
    Conditional parameters set parent (another parameter's name) and
    active_when (the parent value that switches them on).
    """

    kind: str
    lo: float = 0.0
    hi: float = 0.0
    choices: Tuple[Any, ...] = ()
    parent: Optional[str] = None
    active_when: Any = None

    def sample(self, rng: np.random.Generator) -> Any:
        if self.kind == "uniform":
            return float(rng.uniform(self.lo, self.hi))
        if self.kind == "log_uniform":
            return float(math.exp(rng.uniform(math.log(self.lo), math.log(self.hi))))
        if self.kind == "int":
            return int(rng.integers(int(self.lo), int(self.hi) + 1))
        if self.kind == "categorical":
            return self.choices[int(rng.integers(len(self.choices)))]
        raise ValueError(f"unknown parameter kind {self.kind!r}")


@dataclass(frozen=True)
class SearchSpace:
    params: Dict[str, Param]
    budget: int

    def sample_trial(self, rng: np.random.Generator) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for pname, spec in self.params.items():
            if spec.parent is not None and out.get(spec.parent) != spec.active_when:
                continue
            out[pname] = spec.sample(rng)
        return out


@dataclass
class Trial:
    number: int
    params: Dict[str, Any]
    score: float


def random_search(
    objective: Callable[[Dict[str, Any]], float],
    space: SearchSpace,
    seed: int,
    budget: Optional[int] = None,
) -> Tuple[Dict[str, Any], float, List[Trial]]:
    """Run the search; returns (best_params, best_score, all trials).

    An objective that raises (or returns a non-finite score) marks that trial
    with FAILURE_SCORE and the search continues. Strict improvement updates
    the incumbent, so equal scores keep the earlier trial.
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
            score = float(objective(params))
            if not math.isfinite(score):
                score = FAILURE_SCORE
        except Exception:
            score = FAILURE_SCORE
        trials.append(Trial(number=t, params=params, score=score))
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
        "n_rbf_mode": Param("categorical", choices=("auto", "fixed")),
        "n_rbf": Param("int", lo=10, hi=80, parent="n_rbf_mode", active_when="fixed"),
        "alpha": Param("log_uniform", lo=1e-3, hi=1e3),
        "center_init": Param("categorical", choices=("lipschitz", "kmeans")),
        "width_init": Param("categorical", choices=("local_ridge", "local_variance")),
    }, budget=30),
    "chebypoly": SearchSpace({
        "complexity": Param("int", lo=1, hi=14),
        "alpha": Param("log_uniform", lo=1e-3, hi=1e3),
        "include_interactions": Param("categorical", choices=(True, False)),
        "max_interaction_complexity": Param(
            "categorical", choices=(1, 2),
            parent="include_interactions", active_when=True),
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
