"""Reference computations for the benchmark's output checks.

Nothing here imports pieces_lab: each value is computed by a route of its
own, so a check compares the package against an independent computation or
against a property the method must have, never against a stored copy of an
earlier output.

    pair_bracket            <phi_(1,2), U(x-y) phi_(1,2)> by tensor
                            Gauss-Legendre quadrature in (u, x)
    first_order_gamma       (5 pi^2 / 2) int u^2 U, an upper bound on gamma
    expected_*              closed-form Poisson expectations of the counts
    recount_*               numpy recounts of the piece scans that add the
                            gaps in the order the scans add them
    ids_closed_form         integrated density of states of the model
    free_energy_closed_form free energy per particle, summed over the levels
                            of one piece and integrated over its length
"""

import math

import numpy as np


def _leggauss(a, b, n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


# ---------------------------------------------------------------------------
# two-body bracket

def box_u(height, radius):
    return lambda u: np.where(np.abs(u) <= radius, height, 0.0), [radius]


def exp_u(amplitude, rate):
    return lambda u: amplitude * np.exp(-rate * np.abs(u)), []


def pair_bracket(potential, ell, n=48):
    """<phi_(1,2), U(x-y) phi_(1,2)> on [0, ell]^2.

    potential is a pair (U(u), kinks) as made by box_u / exp_u.  The
    integral is taken over u = x - y on panels split at 0 and at +-kink and
    no wider than 1, and over x in [max(0, u), min(ell, ell + u)]; the pair
    density is a trigonometric polynomial, so each panel is smooth.
    """
    U, kinks = potential
    edges = {-ell, 0.0, ell}
    edges.update(s * k for k in kinks if k < ell for s in (-1.0, 1.0))
    edges = sorted(edges)
    c = math.sqrt(2.0 / ell)
    t, wt = np.polynomial.legendre.leggauss(n)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        n_sub = max(1, math.ceil(b - a))
        sub = np.linspace(a, b, n_sub + 1)
        for ua, ub in zip(sub[:-1], sub[1:]):
            u, wu = _leggauss(ua, ub, n)
            x_lo, x_hi = np.maximum(0.0, u), np.minimum(ell, ell + u)
            x = 0.5 * (x_hi - x_lo)[:, None] * t + 0.5 * (x_hi + x_lo)[:, None]
            wx = 0.5 * (x_hi - x_lo)[:, None] * wt
            y = x - u[:, None]
            s1x, s2x = c * np.sin(np.pi * x / ell), c * np.sin(2 * np.pi * x / ell)
            s1y, s2y = c * np.sin(np.pi * y / ell), c * np.sin(2 * np.pi * y / ell)
            phi2 = 0.5 * (s1x * s2y - s2x * s1y) ** 2
            total += float(np.sum(wu * U(u) * np.sum(wx * phi2, axis=1)))
    return total


def first_order_gamma(potential, R=40.0, n=48):
    """(5 pi^2 / 2) int u^2 U(u) du: the weak-coupling limit of gamma and,
    for U >= 0, an upper bound on it, since ell^3 times the pair bracket
    tends to it as ell grows.  The integral runs over |u| <= R on unit
    panels split at the kinks."""
    U, kinks = potential
    edges = sorted({0.0, R} | {float(k) for k in kinks if k < R}
                   | {float(k) for k in range(1, int(R))})
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        u, w = _leggauss(a, b, n)
        total += float(np.sum(w * u * u * U(u)))
    return 2.5 * np.pi ** 2 * 2.0 * total


# ---------------------------------------------------------------------------
# Poisson expectations of the piece counts
#
# Pieces of a Poisson(mu) cut of [0, L] are i.i.d. exponential(mu) lengths,
# about mu L of them.  The total length of the k >= 1 pieces strictly
# between two pieces has the Gamma(k, mu) law, and the Gamma densities
# summed over k >= 1 equal mu (the renewal density), so a distance window
# of width f is hit with weight mu f.  Edge pieces change the counts by O(1).

def _p_window(mu, a, b):
    return math.exp(-mu * a) - math.exp(-mu * (a + b))


def expected_in_range(L, mu, a, b):
    return mu * L * _p_window(mu, a, b)


def expected_pair_clusters(L, mu, a, b, c, d, g, f):
    return mu * L * _p_window(mu, a, b) * mu * f * _p_window(mu, c, d)


def expected_neighbor_pairs(L, mu, ell, ell_p, d):
    return mu * L * math.exp(-mu * ell) * mu * d * math.exp(-mu * ell_p)


def expected_triplets(L, mu, ell, ell_p, ell_pp, d):
    return (mu * L * math.exp(-mu * ell) * (mu * d) * math.exp(-mu * ell_p)
            * (mu * d) * math.exp(-mu * ell_pp))


# ---------------------------------------------------------------------------
# order-preserving recounts of the piece scans

def _offsets(lengths, limit):
    """Yield (o, gap, ok) for o = 2, 3, ...: gap[i] is the total length of
    pieces i+1 .. i+o-1, added left to right starting from 0.0 exactly as
    the scans add it, and ok[i] says the scan from i is still running."""
    lengths = np.asarray(lengths, dtype=np.float64)
    m = len(lengths)
    gap = np.zeros(m)
    ok = np.ones(m, dtype=bool)
    for o in range(2, m):
        n = m - o
        gap = gap[:n] + lengths[o - 1:o - 1 + n]
        ok = ok[:n] & (gap <= limit)
        if not ok.any():
            return
        yield o, gap, ok


def recount_in_range(lengths, a, b):
    x = np.asarray(lengths)
    return int(np.sum((x >= a) & (x <= a + b)))


def recount_pair_clusters(lengths, a, b, c, d, g, f):
    x = np.asarray(lengths)
    left = (x >= a) & (x <= a + b)
    right = (x >= c) & (x <= c + d)
    total = 0
    for o, gap, ok in _offsets(x, g + f):
        n = len(gap)
        total += int(np.sum(ok & left[:n] & (gap >= g) & right[o:o + n]))
    return total


def recount_neighbor_pairs(lengths, ell, ell_p, d):
    x = np.asarray(lengths)
    total = 0
    for o, gap, ok in _offsets(x, d):
        n = len(gap)
        total += int(np.sum(ok & (x[:n] >= ell) & (x[o:o + n] >= ell_p)))
    return total


def recount_triplets(lengths, ell, ell_p, ell_pp, d):
    """Per middle piece j: (left partners of j) x (right partners of j)."""
    x = np.asarray(lengths)
    m = len(x)
    n_left = np.zeros(m, dtype=np.int64)
    n_right = np.zeros(m, dtype=np.int64)
    for o, gap, ok in _offsets(x, d):
        n = len(gap)
        n_left[o:o + n] += ok & (x[:n] >= ell)
        n_right[:n] += ok & (x[o:o + n] >= ell_pp)
    return int(np.sum((x >= ell_p) * n_left * n_right))


# ---------------------------------------------------------------------------
# one-particle spectrum of the model

def ids_closed_form(E, mu):
    """N(E) = mu x / (1 - x), x = exp(-mu pi / sqrt(E)): the mean number of
    levels <= E per unit length, mu * sum_k P(length >= k pi / sqrt(E))."""
    E = np.asarray(E, dtype=np.float64)
    x = np.exp(-mu * np.pi / np.sqrt(E))
    return mu * x / (1.0 - x)


def fermi_length_closed_form(rho, mu):
    """l with N(pi^2 / l^2) = rho."""
    return math.log((mu + rho) / rho) / mu


def free_energy_closed_form(rho, mu, nodes=32):
    """Free ground-state energy per particle at density rho.

    A piece of length x holds K = floor(x / l_rho) levels below the Fermi
    energy, with energy sum pi^2 K (K+1) (2K+1) / (6 x^2).  The energy per
    unit length is mu times its mean over x ~ exponential(mu); the mean is
    integrated panel by panel between the jumps of K.
    """
    l_rho = fermi_length_closed_form(rho, mu)
    total = 0.0
    K = 1
    while K * l_rho * mu < 40.0:
        x, w = _leggauss(K * l_rho, (K + 1) * l_rho, nodes)
        level_sum = np.pi ** 2 * K * (K + 1) * (2 * K + 1) / (6.0 * x ** 2)
        total += float(np.sum(w * mu * np.exp(-mu * x) * level_sum))
        K += 1
    return mu * total / rho
