"""Distributed estimation of scaled frequency moments F_k / N^k.

Sketching maps composed with exponential min-sketches spread over gossip or
slotted-Aloha networks, with exact oracles validating every probabilistic
claim at desk scale.
"""

__version__ = "0.1.0"
