"""oscbath: exact and Markovian dynamics of damped harmonic oscillators.

Evolves single, coupled, and driven oscillators both exactly (finite
discretized bath, Gaussian-state propagation) and under Markovian master
equations reduced to moment flows, and quantifies their agreement through
Gaussian-state fidelity.
"""

__version__ = "0.1.0"
