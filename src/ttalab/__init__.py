"""Numerical laboratory for test-time self-training with pseudo-labels.

A linear predictor adapts to an unlabeled Gaussian test domain by gradient
descent on a self-training loss built from its own predictions (hard or
conjugate pseudo-labels, square/logistic/exponential families).  The package
simulates the sampled and infinite-data dynamics, certifies the convergence
and non-convergence claims numerically, and reproduces the benchmark figures.
"""

__version__ = "0.1.0"  # set before the imports: serialize reads it

# The public API is the union of the modules' __all__ lists; each public name
# is declared once, in the module that defines it.  cli is not re-exported.
from . import analysis, dynamics, harness, losses, model, presets, serialize
from .model import *
from .losses import *
from .dynamics import *
from .analysis import *
from .serialize import *
from .presets import *
from .harness import *

__all__ = ["__version__", *model.__all__, *losses.__all__, *dynamics.__all__,
           *analysis.__all__, *serialize.__all__, *presets.__all__, *harness.__all__]
