"""gaussesd: two-mode Gaussian states in thermal channels.

Covariance-matrix dynamics in closed form, the Simon separability test,
entanglement-sudden-death detection (analytic and numeric), and an
independent truncated-Fock-space master-equation propagator for
cross-validation.

The public names are the ``__all__`` lists of the modules states, channel,
esd, fock and errors, re-exported here in that order.
"""

from . import channel, errors, esd, fock, states
from .channel import *  # noqa: F403
from .errors import *  # noqa: F403
from .esd import *  # noqa: F403
from .fock import *  # noqa: F403
from .states import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*states.__all__, *channel.__all__, *esd.__all__, *fock.__all__, *errors.__all__]
