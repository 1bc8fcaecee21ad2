"""Simulator and verification library for entanglement-based QKD over
four-level systems: channel verification, a stabilized-subspace
uniqueness oracle, a message-driven protocol engine, pluggable
eavesdropping models with an exact prediction oracle, and a CLI.

The package root carries the names of the README's library example; the
rest of the library is imported from its modules.
"""

from .attacks import AttackModel, predict
from .channels import two_party_channel
from .session import SessionConfig, run_session

__all__ = ["AttackModel", "SessionConfig", "predict", "run_session", "two_party_channel", "__version__"]

__version__ = "0.1.0"
