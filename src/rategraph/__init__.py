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

from . import data, estimators, evaluation, graph
from .data import *
from .estimators import *
from .evaluation import *
from .graph import *

__version__ = "0.1.0"

# each module's __all__ is the list of its public names
__all__ = ["__version__", *data.__all__, *graph.__all__, *estimators.__all__, *evaluation.__all__]
