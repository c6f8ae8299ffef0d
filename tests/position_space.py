"""Position-space oracles for the package's mode-space results.

The package works on coefficients over the Dirichlet sine modes of a
piece.  These helpers read a state pointwise, so that a test can check a
mode-space quantity against a grid or a quadrature in x.
"""

import numpy as np


def sine_modes(m, ell, x):
    """Normalized Dirichlet modes sqrt(2/ell) sin(pi k x / ell), k = 1..m,
    as an (m, len(x)) array."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    k = np.arange(1, m + 1)[:, None]
    return np.sqrt(2.0 / ell) * np.sin(np.pi * k * x[None, :] / ell)


def pair_amplitude(sol, x, y):
    """The pair state of a TwoBodySolution at the points (x, y), summed over
    its free pair states (s_i(x) s_j(y) - s_j(x) s_i(y)) / sqrt(2)."""
    Sx = sine_modes(sol.M, sol.ell, x)
    Sy = sine_modes(sol.M, sol.ell, y)
    return sum(c * (Sx[i - 1] * Sy[j - 1] - Sx[j - 1] * Sy[i - 1])
               for (i, j), c in zip(sol.pairs, sol.coeffs)) / np.sqrt(2.0)


def density(G, ell, x):
    """Particle density at x of a 1-RDM G over the sine modes of [0, ell]."""
    S = sine_modes(len(G), ell, x)
    return np.sum(S * (G @ S), axis=0)
