"""hetstab: stability indices for quasi-simple heteroclinic cycles.

Build transition matrices from per-node eigenvalue data (or inject them
directly), compute the local stability index along every connection from
the closed-form slice index, classify the cycle, and cross-check the
analytic answers with a Monte-Carlo return-map oracle.

Each module lists its public names in its own __all__, and the package's
API is those lists in this order: cycle, transition, spectral, findex,
stability, oracle, rsp.
"""

__version__ = "0.1.0"

from . import cycle, findex, oracle, rsp, spectral, stability, transition
from .cycle import *
from .transition import *
from .spectral import *
from .findex import *
from .stability import *
from .oracle import *
from .rsp import *

__all__ = ["__version__", *cycle.__all__, *transition.__all__, *spectral.__all__, *findex.__all__,
           *stability.__all__, *oracle.__all__, *rsp.__all__]
