"""Poisson-cut configurations of [0, L] and piece-counting statistics.

A configuration is the interval [0, L] cut at the points of a Poisson process
of intensity mu.  The maximal open sub-intervals between consecutive cut
points are the "pieces"; everything downstream (spectra, ground states) is a
function of the sorted piece lengths.
"""

import functools

import numpy as np

__all__ = [
    "PieceConfiguration",
    "sample_pieces",
    "sample_pieces_conditioned",
    "count_pieces_in_range",
    "count_pair_clusters",
    "count_neighbor_pairs",
    "count_triplets",
    "max_piece_length",
]


class PieceConfiguration:
    """Immutable Poisson-cut configuration of [0, L].

    Attributes:
        L: total length (rescaled units).
        mu: cut intensity (cuts per unit length).
        seed: seed used to generate the cuts (None for hand-built configs).
        cut_points: strictly increasing array of interior cut positions.
        lefts, rights, lengths: piece endpoints and lengths, left to right.
        sorted_lengths: the piece lengths in ascending order, built on
            first use; the counting function counts the pieces at least
            as long as each level threshold in it.

    Every array is read-only; cut_points, lefts and rights are views of one
    copy of the edges, so the caller's cut array is neither kept nor
    frozen.
    """

    def __init__(self, L, mu, cut_points, seed=None):
        # written so that NaN fails every check
        if not 0 < L < np.inf:
            raise ValueError("L must be positive and finite")
        if not 0 < mu < np.inf:
            raise ValueError("mu must be positive and finite")
        c = np.asarray(cut_points, dtype=np.float64)
        if c.size and not (c[0] > 0 and c[-1] < L
                           and np.all(np.diff(c) > 0)):
            raise ValueError("cut points must be strictly increasing in (0, L)")
        self.L = float(L)
        self.mu = float(mu)
        self.seed = seed
        edges = np.concatenate(([0.0], c, [L]))
        edges.flags.writeable = False
        self.cut_points = edges[1:-1]
        self.lefts = edges[:-1]
        self.rights = edges[1:]
        self.lengths = self.rights - self.lefts
        self.lengths.flags.writeable = False

    @property
    def n_pieces(self):
        return len(self.lengths)

    @functools.cached_property
    def sorted_lengths(self):
        s = np.sort(self.lengths)
        s.flags.writeable = False
        return s

    def __repr__(self):
        return (f"PieceConfiguration(L={self.L}, mu={self.mu}, "
                f"pieces={self.n_pieces}, seed={self.seed})")


def from_lengths(lengths, mu=1.0):
    """Build a configuration directly from a list of piece lengths."""
    lengths = np.asarray(lengths, dtype=np.float64)
    cuts = np.cumsum(lengths)[:-1]
    return PieceConfiguration(float(lengths.sum()), mu, cuts)


def _rng(seed):
    # Counter-based generator: cheap to seed, streams are independent per
    # seed, and output is reproducible bit-for-bit across runs/platforms.
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def sample_pieces(seed, L, mu):
    """Cut [0, L] at a Poisson(mu) process; return the configuration.

    Cut positions are generated by inversion: cumulative sums of
    exponential(mu) gaps, truncated at L.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    if mu <= 0:
        raise ValueError("mu must be positive")
    rng = _rng(seed)
    pts = []
    pos = 0.0
    # draw gaps in blocks; expected count is mu*L
    block = max(64, int(1.2 * mu * L) + 16)
    while True:
        gaps = rng.exponential(1.0 / mu, size=block)
        cum = pos + np.cumsum(gaps)
        inside = cum[:np.searchsorted(cum, L)]  # cum is sorted
        pts.append(inside)
        if inside.size < block:
            break
        pos = cum[-1]
        block = max(64, block // 4)
    return PieceConfiguration(L, mu, np.concatenate(pts), seed=seed)


def sample_pieces_conditioned(seed, L, m):
    """Configuration of [0, L] conditioned on having exactly m pieces.

    Conditioned on m-1 interior cuts, the length vector has the law of
    (L*eta_1/S, ..., L*eta_m/S) with eta_i i.i.d. exponential(1) and
    S = sum eta_i; equivalently the cuts are m-1 i.i.d. uniform order
    statistics.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if L <= 0:
        raise ValueError("L must be positive")
    rng = _rng(seed)
    eta = rng.exponential(1.0, size=m)
    lengths = L * eta / eta.sum()
    cuts = np.cumsum(lengths)[:-1]
    return PieceConfiguration(L, 1.0, cuts, seed=seed)


def count_pieces_in_range(cfg, a, b):
    """Number of pieces with length in [a, a+b]."""
    if a < 0 or b < 0:
        raise ValueError("window parameters must be non-negative")
    x = cfg.lengths
    return int(np.count_nonzero((x >= a) & (x <= a + b)))


def _window_scan(lengths, starts, limit):
    """Yield (i, j, gap) for the pieces j = i+2, i+3, ... right of each
    start i (starts: sorted piece indices), one offset j - i at a time.

    gap is the total length of the pieces i+1 .. j-1, added left to right
    from 0.0; a start drops out at its first gap beyond limit (the gaps of a
    start never shrink), so the work equals that of a per-start loop.
    """
    m = len(lengths)
    i, gap = starts, np.zeros(len(starts))
    o = 2
    while True:
        n = np.searchsorted(i, m - o)  # the starts with i + o < m
        gap = gap[:n] + lengths[i[:n] + o - 1]
        keep = gap <= limit
        i, gap = i[:n][keep], gap[keep]
        if not i.size:
            return
        yield i, i + o, gap
        o += 1


def count_pair_clusters(cfg, a, b, c, d, g, f):
    """Pairs of pieces with left length in [a,a+b], right length in [c,c+d],
    and distance (total length of pieces strictly in between) in [g, g+f].

    Only non-adjacent pairs qualify: the distance of an adjacent pair is an
    atom at zero while the counted law is atomless in the gap variable.
    Ordered pairs, each counted once.  The scan walks all left pieces at
    once, one right-hand offset at a time, and drops a left piece as soon as
    its distance passes g+f, so its work is the number of pairs within that
    distance.
    """
    if min(a, b, c, d, g, f) < 0:
        raise ValueError("parameters must be non-negative")
    if a <= 0 or c <= 0:
        raise ValueError("length thresholds a, c must be positive")
    x = cfg.lengths
    starts = np.flatnonzero((x >= a) & (x <= a + b))
    count = 0
    for _, j, gap in _window_scan(x, starts, g + f):
        count += np.count_nonzero((gap >= g) & (x[j] >= c) & (x[j] <= c + d))
    return int(count)


def count_neighbor_pairs(cfg, ell, ell_prime, d):
    """Non-adjacent pairs of pieces at distance <= d with lengths >= ell
    (left) and >= ell_prime (right)."""
    if ell <= 0 or ell_prime <= 0 or d < 0:
        raise ValueError("thresholds must be positive, d non-negative")
    x = cfg.lengths
    count = 0
    for _, j, _ in _window_scan(x, np.flatnonzero(x >= ell), d):
        count += np.count_nonzero(x[j] >= ell_prime)
    return int(count)


def count_triplets(cfg, ell, ell_prime, ell_second, d):
    """Triplets of pieces, consecutive distances <= d, lengths >= the three
    thresholds (left to right).

    Each middle piece contributes its left partners times its right
    partners.
    """
    if min(ell, ell_prime, ell_second) <= 0 or d < 0:
        raise ValueError("thresholds must be positive, d non-negative")
    x = cfg.lengths
    n_left = np.zeros(len(x), dtype=np.int64)
    n_right = np.zeros(len(x), dtype=np.int64)
    for _, j, _ in _window_scan(x, np.flatnonzero(x >= ell), d):
        n_left[j] += 1
    for i, j, _ in _window_scan(x, np.flatnonzero(x >= ell_prime), d):
        n_right[i] += x[j] >= ell_second
    return int(np.sum((x >= ell_prime) * n_left * n_right))


def max_piece_length(cfg):
    return float(cfg.lengths.max())
