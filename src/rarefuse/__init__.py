"""rarefuse: rare-event failure probability estimation toolkit.

Builds biasing densities from surrogate-model failure sets, runs
importance-sampling estimators against the high-fidelity model, and fuses
the unbiased estimators into a single minimum-variance estimate.  Plain
Monte Carlo and subset simulation are included as baselines, together with
desk-scale benchmarks whose failure probabilities have independent
oracles.
"""

from . import densities, estimators, fusion, mfis, models, subset_sim
from .densities import *  # noqa: F401,F403
from .estimators import *  # noqa: F401,F403
from .fusion import *  # noqa: F401,F403
from .mfis import *  # noqa: F401,F403
from .models import *  # noqa: F401,F403
from .subset_sim import *  # noqa: F401,F403

__version__ = "0.1.0"

# each public name is declared once, in its own module's __all__
__all__ = [
    name
    for module in (densities, estimators, fusion, mfis, models, subset_sim)
    for name in module.__all__
]
