"""smoothbench: smooth-basis regressors and a nested-CV benchmark harness.

Models: anisotropic Gaussian RBF networks (erbf), global Chebyshev polynomial
regressors (chebypoly), Chebyshev model trees (chebytree), plus ridge and
decision-tree baselines. The harness runs nested cross-validation with random
hyperparameter search and reports adjusted-R^2 scores, generalisation gaps,
average ranks and the Friedman/Nemenyi comparison.
"""

__version__ = "0.1.0"

from .cart import RegressionTree, cart_fit, cart_route
from .chebypoly import fit_chebypoly
from .chebyshev import BasisConfig, build_design_matrix, cheb_eval
from .chebytree import ChebyTreeModel, fit_chebytree
from .data import (
    Dataset,
    FoldPlan,
    Standardizer,
    drop_quasi_constant,
    impute_median,
    inner_fold_count,
    kfold_split,
    load_csv,
    write_csv,
)
from .erbf import ErbfModel, auto_k, fit_erbf
from .linear import RidgeModel, fit_ridge
from .numkit import OptimResult, kmeans, knn_indices, lbfgs_minimize, ridge_solve
from .registry import MODEL_KINDS, fit_model, hyperparameters, model_from_dict, predict_model
from .synth import CATALOG, clean_target, gen

__all__ = [
    "__version__",
    "RegressionTree", "cart_fit", "cart_route",
    "fit_chebypoly",
    "BasisConfig", "build_design_matrix", "cheb_eval",
    "ChebyTreeModel", "fit_chebytree",
    "Dataset", "FoldPlan", "Standardizer",
    "drop_quasi_constant", "impute_median", "inner_fold_count",
    "kfold_split", "load_csv", "write_csv",
    "ErbfModel", "auto_k", "fit_erbf",
    "RidgeModel", "fit_ridge",
    "OptimResult", "kmeans", "knn_indices", "lbfgs_minimize", "ridge_solve",
    "MODEL_KINDS", "fit_model", "hyperparameters", "model_from_dict", "predict_model",
    "CATALOG", "clean_target", "gen",
]
