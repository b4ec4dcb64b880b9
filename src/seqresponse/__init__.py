"""Transfer-operator numerics for sequential circle dynamics.

Equivariant density families, loss-of-memory rates, and first-order
linear response for sequential expanding circle maps with
post-composition kicks and for random circle maps with additive noise,
with independent finite-difference and Monte Carlo validation.
"""

__version__ = "0.1.0"

from .maps import CircleMap, KickedMap, TrigPoly  # noqa: F401
from .noise import DriftMap, NoiseDensity  # noqa: F401
from .sequence import DeterministicEntry, NoisyEntry, SequenceSystem  # noqa: F401
