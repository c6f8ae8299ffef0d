"""One-particle spectral data of a piece configuration.

Each piece of length l carries the Dirichlet levels (pi*k/l)^2, k >= 1, with
eigenfunctions sqrt(2/l) sin(pi k (x - left)/l).  The integrated density of
states has the closed form

    N(E) = mu * exp(-mu*l_E) / (1 - exp(-mu*l_E)),   l_E = pi/sqrt(E),

from which Fermi energy/length at density rho and the free ground-state
energy per particle follow.
"""

import numpy as np
from scipy.integrate import quad

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
    "rescale_check",
]


class SpectrumTable:
    """Levels up to a cutoff, sorted by energy then (piece_index, k).

    Attributes:
        energies: sorted level energies.
        piece_index, k: per-level indices (k >= 1 within a piece).
        cutoff: the enumeration cutoff; the table holds exactly the levels
            with energy <= cutoff.
    """

    def __init__(self, energies, piece_index, k, cutoff):
        order = np.lexsort((k, piece_index, energies))
        self.energies = energies[order]
        self.piece_index = piece_index[order]
        self.k = k[order]
        self.cutoff = cutoff

    def __len__(self):
        return len(self.energies)


_EPS = np.finfo(np.float64).eps


def _level_counts(cfg, E):
    """Per piece, the number of levels k >= 1 with (pi*k/l)^2 <= E (E > 0),
    as floats; enumerate_levels_below lays out its table from them.

    floor(l*sqrt(E)/pi) can be off by one in either direction when
    l*sqrt(E)/pi lies within a few ulps of an integer.  Scaling by
    1 + 16 eps lifts every such value just above its integer k, to a
    fractional part below w; only those pieces get the exact test of level
    k, the one the level energies of enumerate_levels_below pass.
    """
    c = np.sqrt(E) / np.pi * (1.0 + 16.0 * _EPS)
    x = cfg.lengths * c
    counts = np.floor(x)
    x -= counts
    # l * c <= L bounds every k, so w covers the lift 16 k eps and rounding
    w = 32.0 * _EPS * max(c * cfg.L, 1.0)
    if x.min() < w:
        near = np.flatnonzero(x < w)
        k = counts[near]
        counts[near] = k - 1.0 + ((np.pi * k / cfg.lengths[near]) ** 2 <= E)
    return counts


def enumerate_levels_below(cfg, E):
    """All levels with energy <= E."""
    if E <= 0:
        return SpectrumTable(np.empty(0), np.empty(0, dtype=np.int64),
                             np.empty(0, dtype=np.int64), E)
    lengths = cfg.lengths
    counts = _level_counts(cfg, E).astype(np.int64)
    total = int(counts.sum())
    piece_index = np.repeat(np.arange(len(lengths)), counts)
    starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    k = np.arange(total, dtype=np.int64) - np.repeat(starts, counts) + 1
    energies = (np.pi * k / lengths[piece_index]) ** 2
    return SpectrumTable(energies, piece_index, k, E)


def counting_function(cfg, E):
    """N_L(E): number of levels <= E divided by L.

    Level k of a piece of length l is below E when (pi*k/l)^2 <= E, so for
    each k = 1 .. floor(max(l) sqrt(E)/pi) + 1 the count is the number of
    pieces longer than about t_k = pi*k/sqrt(E).  Two searchsorted calls on
    cfg.sorted_lengths, at t_k (1 -+ 64 eps), split the pieces into those
    that surely fail, those that surely pass, and the few in between, which
    get the exact test.  Correctly rounded division and squaring make that
    test monotone in l, so the count is exact: it equals the length of
    enumerate_levels_below(cfg, E).
    """
    if E <= 0:
        return 0.0
    s = cfg.sorted_lengths
    r = np.sqrt(E)
    k = np.arange(1.0, np.floor(s[-1] * r / np.pi) + 2.0)
    t = np.pi * k / r
    lo = np.searchsorted(s, t * (1.0 - 64.0 * _EPS), side="left")
    hi = np.searchsorted(s, t * (1.0 + 64.0 * _EPS), side="right")
    count = int((len(s) - hi).sum())
    width = hi - lo
    if width.any():
        start = np.repeat(lo - np.cumsum(width) + width, width)
        i = np.arange(width.sum()) + start
        kk = np.repeat(k, width)
        count += int(np.count_nonzero((np.pi * kk / s[i]) ** 2 <= E))
    return count / cfg.L


def ids_theoretical(E, mu):
    """Integrated density of states of the pieces model."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    E = np.asarray(E, dtype=np.float64)
    out = np.zeros_like(E)
    pos = E > 0
    ell = np.pi / np.sqrt(E[pos])
    x = np.exp(-mu * ell)
    out[pos] = mu * x / (1.0 - x)
    return float(out) if out.ndim == 0 else out


def fermi_length(rho, mu):
    """Length l with N(pi^2/l^2) = rho: (1/mu)|log(rho/(mu+rho))|."""
    if rho <= 0 or mu <= 0:
        raise ValueError("rho and mu must be positive")
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


def lowest_levels(cfg, n):
    """A table holding the n lowest levels of the configuration, and maybe
    more.

    The cutoff starts at 1.2 times the IDS-predicted Fermi energy for
    density n/L and doubles, at most 60 times, until the table holds n
    levels.  The table's order is total, so its first n entries are the
    same whatever cutoff it stopped at.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    E = fermi_energy(n / cfg.L, cfg.mu) * 1.2
    for _ in range(60):
        table = enumerate_levels_below(cfg, E)
        if len(table) >= n:
            return table
        E *= 2.0
    raise ValueError("n exceeds all enumerable levels")


def free_energy_per_particle_empirical(cfg, n):
    """Mean of the n smallest levels of the configuration."""
    return float(lowest_levels(cfg, n).energies[:n].mean())


def rescale_check(cfg, U, ell, mu, rtol=1e-8):
    """Verify the mu-scaling identities on a given problem.

    Checks, for the configuration: each one-particle level satisfies
    E(mu-rescaled piece) = mu^2 * E(original)/mu^2 identity exactly; for the
    two-body problem on [0, ell] with potential U: E(U, ell) equals
    mu^2 * E(U^mu, mu*ell) with U^mu(x) = mu^-2 U(x/mu).
    Returns a dict report; raises nothing, the report carries pass flags.
    """
    from . import twobody
    report = {}
    # one-particle: (pi k/l)^2 == mu^2 (pi k/(mu l))^2 exactly
    lengths = cfg.lengths[: min(cfg.n_pieces, 100)]
    lhs = (np.pi / lengths) ** 2
    rhs = mu ** 2 * (np.pi / (mu * lengths)) ** 2
    report["one_particle_max_rel"] = float(np.max(np.abs(lhs - rhs) / lhs))
    report["one_particle_ok"] = report["one_particle_max_rel"] <= rtol
    e1 = twobody.solve_two_body(U, ell).energy
    e2 = twobody.solve_two_body(U.scale_mu(mu), mu * ell).energy
    rel = abs(e1 - mu ** 2 * e2) / abs(e1)
    report["two_body_rel"] = float(rel)
    report["two_body_ok"] = rel <= rtol
    report["ok"] = report["one_particle_ok"] and report["two_body_ok"]
    return report
