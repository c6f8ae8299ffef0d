"""One-particle spectral data of a piece configuration.

Each piece of length l carries the Dirichlet levels (pi*k/l)^2, k >= 1, with
eigenfunctions sqrt(2/l) sin(pi k (x - left)/l).  The integrated density of
states has the closed form

    N(E) = mu * exp(-mu*l_E) / (1 - exp(-mu*l_E)),   l_E = pi/sqrt(E),

from which Fermi energy/length at density rho and the free ground-state
energy per particle follow.

Level k of a piece of length l lies at or below E exactly when l >= l_k,
the least float with (pi*k/l_k)^2 <= E; the level table and the counting
function both read these thresholds.
"""

import numpy as np

__all__ = [
    "SpectrumTable",
    "enumerate_levels_below",
    "counting_function",
    "lowest_levels",
    "ids_theoretical",
    "fermi_length",
    "fermi_energy",
    "free_energy_per_particle_theoretical",
    "free_energy_per_particle_empirical",
]


class SpectrumTable:
    """Levels sorted by energy then (piece_index, k).

    Attributes:
        energies: sorted level energies.
        piece_index, k: per-level indices (k >= 1 within a piece).
        cutoff: the enumeration cutoff.  A table of enumerate_levels_below
            holds exactly the levels with energy <= cutoff; one of
            lowest_levels holds the first n of them.
    """

    def __init__(self, energies, piece_index, k, cutoff):
        order = np.lexsort((k, piece_index, energies))
        self.energies = energies[order]
        self.piece_index = piece_index[order]
        self.k = k[order]
        self.cutoff = cutoff

    def __len__(self):
        return len(self.energies)


def _level_thresholds(E, longest):
    """l_k for k = 1 .. floor(longest sqrt(E)/pi) + 1, given
    E >= (pi/longest)^2.

    Correctly rounded division and squaring make the test (pi*k/l)^2 <= E
    monotone in l.  Each l_k starts at pi*k/sqrt(E), an ulp or two from the
    boundary, and steps one ulp up while the test fails, then one ulp down
    while the float below still passes.
    """
    r = np.sqrt(E)
    pk = np.pi * np.arange(1.0, np.floor(longest * r / np.pi) + 2.0)
    t = pk / r
    start = t.copy()
    while True:
        up = (pk / t) ** 2 > E
        if not up.any():
            break
        t[up] = np.nextafter(t[up], np.inf)
    # a threshold that stepped up already has a failing float below it
    down = t == start
    while down.any():
        below = np.nextafter(t, 0.0)
        down &= (pk / below) ** 2 <= E
        t[down] = below[down]
    return t


def _first_level(longest):
    """(pi/longest)^2, squared by a correctly rounded product as in the
    level test; a scalar ** 2 goes to libm pow, which can round one ulp
    off."""
    r = np.pi / longest
    return r * r


def _levels_below(cfg, E):
    """The levels with energy <= E, unsorted: (energies, piece_index, k),
    level 1 of every piece that has one, then level 2, and so on; within a
    level, pieces left to right.  A piece of length l holds the levels k
    with l >= l_k, so level k is on the pieces that hold level k - 1 and
    reach l_k."""
    lengths = cfg.lengths
    longest = lengths.max()
    if E < _first_level(longest):
        empty = np.empty(0, dtype=np.int64)
        return np.empty(0), empty, empty
    thresholds = _level_thresholds(E, longest)
    pieces = np.flatnonzero(lengths >= thresholds[0])
    held = lengths[pieces]
    energies, piece_index, k = [], [], []
    for level, t in enumerate(thresholds, 1):
        if level > 1:
            reach = np.flatnonzero(held >= t)
            pieces, held = pieces[reach], held[reach]
        energies.append((np.pi * level / held) ** 2)
        piece_index.append(pieces)
        k.append(np.full(len(pieces), level))
    return (np.concatenate(energies), np.concatenate(piece_index),
            np.concatenate(k))


def enumerate_levels_below(cfg, E):
    """All levels with energy <= E: a piece of length l holds the levels k
    with l >= l_k."""
    return SpectrumTable(*_levels_below(cfg, E), E)


def counting_function(cfg, E):
    """N_L(E): number of levels <= E divided by L.

    The sum over k of the pieces at least l_k long, each count one
    searchsorted on cfg.sorted_lengths; it equals the length of
    enumerate_levels_below(cfg, E).
    """
    s = cfg.sorted_lengths
    if E < _first_level(s[-1]):
        return 0.0
    count = (len(s) - np.searchsorted(s, _level_thresholds(E, s[-1]))).sum()
    return int(count) / cfg.L


def ids_theoretical(E, mu):
    """Integrated density of states of the pieces model."""
    if not 0 < mu < np.inf:
        raise ValueError("mu must be positive and finite")
    E = np.asarray(E, dtype=np.float64)
    out = np.zeros_like(E)
    pos = E > 0
    ell = np.pi / np.sqrt(E[pos])
    x = np.exp(-mu * ell)
    out[pos] = mu * x / (1.0 - x)
    return float(out) if out.ndim == 0 else out


def fermi_length(rho, mu):
    """Length l with N(pi^2/l^2) = rho: (1/mu)|log(rho/(mu+rho))|."""
    if not (0 < rho < np.inf and 0 < mu < np.inf):
        raise ValueError("rho and mu must be positive and finite")
    return abs(np.log(rho / (mu + rho))) / mu


def fermi_energy(rho, mu):
    ell = fermi_length(rho, mu)
    return (np.pi / ell) ** 2


def free_energy_per_particle_theoretical(rho, mu):
    """(1/rho) * integral of E dN(E) from 0 to the Fermi energy.

    Substituting l = pi/sqrt(E) the integral becomes
        int_{l_rho}^{inf} (pi/l)^2 * mu^2 e^{-mu l}/(1-e^{-mu l})^2 dl,
    a smooth integrand handled by adaptive quadrature with target 1e-10.
    """
    from scipy.integrate import quad
    ell_rho = fermi_length(rho, mu)

    def integrand(ell):
        x = np.exp(-mu * ell)
        return (np.pi / ell) ** 2 * mu * mu * x / (1.0 - x) ** 2

    # cut the tail where the integrand drops below 1e-12 of its left value
    ell_max = ell_rho + max(60.0 / mu, 10.0 * ell_rho)
    val, err = quad(integrand, ell_rho, ell_max,
                    epsabs=1e-12, epsrel=1e-10, limit=400)
    if err > 1e-8 * max(abs(val), 1.0):
        raise ArithmeticError(f"quadrature residual too large: {err}")
    return val / rho


def _enough_levels(cfg, n):
    """The unsorted levels below the first cutoff that reaches n of them,
    and that cutoff.

    The cutoff starts at 1.2 times the IDS-predicted Fermi energy for
    density n/L and doubles, at most 60 times, until n levels lie at or
    below it.
    """
    if not n >= 1:
        raise ValueError("n must be at least 1")
    E = fermi_energy(n / cfg.L, cfg.mu) * 1.2
    for _ in range(60):
        levels = _levels_below(cfg, E)
        if len(levels[0]) >= n:
            return levels, E
        E *= 2.0
    raise ValueError("n exceeds all enumerable levels")


def lowest_levels(cfg, n):
    """A table holding the n lowest levels of the configuration, in the
    order of enumerate_levels_below: where levels tie at the n-th energy,
    the table keeps the first in (piece_index, k) order.  So the table is
    the first n entries of enumerate_levels_below at any cutoff that holds
    n levels.
    """
    (energies, piece_index, k), E = _enough_levels(cfg, n)
    if len(energies) > n:
        top = np.partition(energies, n - 1)[n - 1]
        below = energies < top
        tied = np.flatnonzero(energies == top)
        # the enumeration lists levels k-major, the table (piece, k)
        tied = tied[np.lexsort((k[tied], piece_index[tied]))]
        below[tied[:n - np.count_nonzero(below)]] = True
        keep = np.flatnonzero(below)
        energies, piece_index, k = energies[keep], piece_index[keep], k[keep]
    return SpectrumTable(energies, piece_index, k, E)


def free_energy_per_particle_empirical(cfg, n):
    """Mean of the n smallest levels of the configuration, summed in
    ascending order."""
    energies = _enough_levels(cfg, n)[0][0]
    lowest = np.partition(energies, n - 1)[:n]
    lowest.sort()
    return float(lowest.mean())
