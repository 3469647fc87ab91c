"""Desk-scale granular hopping workbench.

A one-leg hopper drops onto a simulated bead bed, and an onboard-style
pipeline (Kalman filter, momentum observer, acceleration-aware weighted
regression) recovers the bed's depth stiffness from proprioceptive
signals alone.
"""

__version__ = "0.1.0"
