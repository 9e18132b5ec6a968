"""Rating recovery on item-item similarity graphs.

Neighborhood collaborative filtering caps every estimate at the observed
ratings it averages, so a user's true local favorites and dislikes are
systematically mispredicted (the rating bound problem). This package treats
each user's ratings as a scalar function on the item graph and recovers it
by driving the discrete second derivative to zero almost everywhere:

* :func:`rategraph.estimators.predict_knn` - observed-neighbor averaging,
* :func:`rategraph.estimators.predict_hcp` - harmonic interpolation,
* :func:`rategraph.estimators.predict_sfr` - sparse-source recovery via the
  smoothed l_{1/2} norm of the second derivative,
* :func:`rategraph.estimators.l0_oracle` - exhaustive minimal-source search
  for small graphs,

plus dataset ingestion, graph construction from Pearson similarity, an
evaluation harness for the bound problem, and a CLI (``rategraph``).
"""

from .data import (
    RatingMatrix,
    RatingParseError,
    RatingRecord,
    Split,
    ToyFixture,
    ladder_toy_26,
    parse_ratings,
    split_ratings,
    square_toy,
    write_test_manifest,
)
from .estimators import (
    ConvergenceError,
    OracleResult,
    OracleSolution,
    SolverConfig,
    SolverDiagnostics,
    UserRecovery,
    l0_oracle,
    predict_hcp,
    predict_knn,
    predict_sfr,
    sfr_objective,
)
from .evaluation import (
    BoundClass,
    EvaluationReport,
    Histogram,
    UnknownItemError,
    classify_bound,
    evaluate,
    examine_linearity,
)
from .graph import (
    ItemGraph,
    SecondDerivativeField,
    build_item_graph,
    pearson_similarity,
    second_derivative,
    serialize_graph,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # data
    "RatingMatrix",
    "RatingParseError",
    "RatingRecord",
    "Split",
    "ToyFixture",
    "ladder_toy_26",
    "parse_ratings",
    "split_ratings",
    "square_toy",
    "write_test_manifest",
    # graph
    "ItemGraph",
    "SecondDerivativeField",
    "build_item_graph",
    "pearson_similarity",
    "second_derivative",
    "serialize_graph",
    # estimators
    "ConvergenceError",
    "OracleResult",
    "OracleSolution",
    "SolverConfig",
    "SolverDiagnostics",
    "UserRecovery",
    "l0_oracle",
    "predict_hcp",
    "predict_knn",
    "predict_sfr",
    "sfr_objective",
    # evaluation
    "BoundClass",
    "EvaluationReport",
    "Histogram",
    "UnknownItemError",
    "classify_bound",
    "evaluate",
    "examine_linearity",
]
