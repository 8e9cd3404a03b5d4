"""Min-plus semantics for lambda-calculi: tropical series, relational
matrices, weighted reduction, Taylor expansion and Lipschitz analysis."""

__version__ = "0.1.0"

from .values import INF, Trop, trop_add, trop_dist, trop_mul
from .series import MultiDegree, TropSeries, tropicalize, truncate, univariate_roots
from .terms import parse, pretty, typecheck
from .model import Caps, TropMatrix, interpret, matrix_apply
from .reduction import adequacy_check, best_case, mle, outcome_series, path_likelihood, step
from .taylor import (
    empirical_lipschitz,
    lipschitz_estimate,
    taylor_expand,
    taylor_gap,
)

__all__ = [
    "INF",
    "Trop",
    "trop_add",
    "trop_mul",
    "trop_dist",
    "MultiDegree",
    "TropSeries",
    "tropicalize",
    "truncate",
    "univariate_roots",
    "parse",
    "pretty",
    "typecheck",
    "Caps",
    "TropMatrix",
    "interpret",
    "matrix_apply",
    "step",
    "best_case",
    "path_likelihood",
    "outcome_series",
    "adequacy_check",
    "mle",
    "taylor_expand",
    "taylor_gap",
    "lipschitz_estimate",
    "empirical_lipschitz",
]
