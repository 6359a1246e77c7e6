"""Work shared by the fits of one training split.

A hyperparameter search fits many models on the same training arrays, and
some steps of those fits do not depend on the hyperparameters. A FitContext
is bound to one split's read-only X and y and keeps such work, each piece
under its own key, for as long as the context lives: harness.tune makes one
per inner split and drops them when it returns. There is no global cache.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable

import numpy as np


class FitContext:
    """What fits on one (X, y) share; a fit takes it as its ctx argument."""

    def __init__(self, X: np.ndarray, y: np.ndarray):
        for name, a in (("X", X), ("y", y)):
            if not isinstance(a, np.ndarray) or a.dtype != np.float64 or a.flags.writeable:
                raise ValueError(f"a fit context needs a read-only float64 array as {name}")
        self.X, self.y = X, y
        self._shared: Dict[Hashable, Any] = {}

    def shared(self, key: Hashable, X: np.ndarray, y: np.ndarray, make: Callable[[], Any]):
        """make()'s result for key, made on the first call; X and y must be this context's."""
        if X is not self.X or y is not self.y:
            raise ValueError("this fit context was made for other arrays")
        if key not in self._shared:
            self._shared[key] = make()
        return self._shared[key]
