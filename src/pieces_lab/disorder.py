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
    edges array [0, cuts..., L].  The constructor checks L and mu and
    copies the caller's cuts into that array, so the caller's array is
    neither kept nor frozen; the samplers check L and mu themselves and
    hand over the edges they built.  Both end in one step that checks
    every length is positive: on edges from 0 to L that is the same as
    cuts strictly increasing in (0, L), and a NaN cut fails it.
    """

    def __init__(self, L, mu, cut_points, seed=None):
        # written so that NaN fails every check
        if not 0 < L < np.inf:
            raise ValueError("L must be positive and finite")
        if not 0 < mu < np.inf:
            raise ValueError("mu must be positive and finite")
        c = np.asarray(cut_points, dtype=np.float64)
        self._set_edges(L, mu, np.concatenate(([0.0], c, [L])), seed)

    @classmethod
    def _from_edges(cls, L, mu, edges, seed):
        """The configuration on edges = [0, cuts..., L], an array the
        configuration takes over; L and mu are checked by the caller."""
        cfg = cls.__new__(cls)
        cfg._set_edges(L, mu, edges, seed)
        return cfg

    def _set_edges(self, L, mu, edges, seed):
        lengths = np.diff(edges)
        # min propagates NaN, which fails the test
        if not lengths.min() > 0:
            raise ValueError("cut points must be strictly increasing in (0, L)")
        self.L = float(L)
        self.mu = float(mu)
        self.seed = seed
        edges.flags.writeable = False
        self.cut_points = edges[1:-1]
        self.lefts = edges[:-1]
        self.rights = edges[1:]
        lengths.flags.writeable = False
        self.lengths = lengths

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
    if not 0 < L < np.inf:
        raise ValueError("L must be positive and finite")
    if not 0 < mu < np.inf:
        raise ValueError("mu must be positive and finite")
    rng = _rng(seed)
    pts = [[0.0]]
    pos = 0.0
    # draw gaps in blocks; expected count is mu*L
    block = max(64, int(1.2 * mu * L) + 16)
    while True:
        cum = np.cumsum(rng.exponential(1.0 / mu, size=block))
        if pos:
            cum += pos
        inside = cum[:np.searchsorted(cum, L)]  # cum is sorted
        pts.append(inside)
        if inside.size < block:
            break
        pos = cum[-1]
        block = max(64, block // 4)
    pts.append([L])
    edges = np.concatenate(pts)
    # free the draws before the lengths are taken
    del pts, cum, inside
    return PieceConfiguration._from_edges(L, mu, edges, seed)


def sample_pieces_conditioned(seed, L, m):
    """Configuration of [0, L] conditioned on having exactly m pieces.

    Conditioned on m-1 interior cuts, the length vector has the law of
    (L*eta_1/S, ..., L*eta_m/S) with eta_i i.i.d. exponential(1) and
    S = sum eta_i; equivalently the cuts are m-1 i.i.d. uniform order
    statistics.
    """
    if not m >= 1:
        raise ValueError("m must be at least 1")
    if not 0 < L < np.inf:
        raise ValueError("L must be positive and finite")
    rng = _rng(seed)
    eta = rng.exponential(1.0, size=m)
    lengths = L * eta / eta.sum()
    edges = np.empty(m + 1)
    edges[0] = 0.0
    np.cumsum(lengths[:-1], out=edges[1:-1])
    edges[-1] = L
    return PieceConfiguration._from_edges(L, 1.0, edges, seed)


def count_pieces_in_range(cfg, a, b):
    """Number of pieces with length in [a, a+b]."""
    if not (a >= 0 and b >= 0):
        raise ValueError("window parameters must be non-negative")
    x = cfg.lengths
    return int(np.count_nonzero((x >= a) & (x <= a + b)))


def _window_scan(lengths, starts, limit):
    """Yield (j, gap) for the pieces j = i+2, i+3, ... right of each start
    i (starts: sorted piece indices, repeats allowed), one offset j - i at
    a time.

    gap is the total length of the pieces i+1 .. j-1, added left to right
    from 0.0; a start drops out at its first gap beyond limit (the gaps of a
    start never shrink), so the work equals that of a per-start loop.  j and
    gap are updated in place at the next step, and new arrays are made only
    when a start drops out: a yielded pair is valid until the scan resumes.
    """
    m = len(lengths)
    j = starts + 1  # the last piece of each gap
    gap = np.zeros(len(j))
    while True:
        n = np.searchsorted(j, m - 1)  # the starts with a piece j + 1 < m
        j, gap = j[:n], gap[:n]
        gap += lengths[j]
        j += 1
        keep = gap <= limit
        if not keep.all():
            # index arrays gather faster than a boolean mask compacts
            live = np.flatnonzero(keep)
            j, gap = j.take(live), gap.take(live)
        if not j.size:
            return
        yield j, gap


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
    if not all(v >= 0 for v in (a, b, c, d, g, f)):
        raise ValueError("parameters must be non-negative")
    if not (a > 0 and c > 0):
        raise ValueError("length thresholds a, c must be positive")
    x = cfg.lengths
    starts = np.flatnonzero((x >= a) & (x <= a + b))
    right = (x >= c) & (x <= c + d)
    count = 0
    for j, gap in _window_scan(x, starts, g + f):
        count += np.count_nonzero((gap >= g) & right[j])
    return int(count)


def count_neighbor_pairs(cfg, ell, ell_prime, d):
    """Non-adjacent pairs of pieces at distance <= d with lengths >= ell
    (left) and >= ell_prime (right)."""
    if not (ell > 0 and ell_prime > 0 and d >= 0):
        raise ValueError("thresholds must be positive, d non-negative")
    x = cfg.lengths
    count = 0
    for j, _ in _window_scan(x, np.flatnonzero(x >= ell), d):
        count += np.count_nonzero(x[j] >= ell_prime)
    return int(count)


def count_triplets(cfg, ell, ell_prime, ell_second, d):
    """Triplets of pieces, consecutive distances <= d, lengths >= the three
    thresholds (left to right).

    The left scan lists the middle piece of every (left, middle) pair, once
    per pair; the right scan starts from that list, so each middle piece
    counts its right partners once for each of its left partners.
    """
    if not (ell > 0 and ell_prime > 0 and ell_second > 0 and d >= 0):
        raise ValueError("thresholds must be positive, d non-negative")
    x = cfg.lengths
    middles = [np.empty(0, dtype=np.int64)]
    for j, _ in _window_scan(x, np.flatnonzero(x >= ell), d):
        middles.append(j[x[j] >= ell_prime])
    count = 0
    for j, _ in _window_scan(x, np.sort(np.concatenate(middles)), d):
        count += np.count_nonzero(x[j] >= ell_second)
    return int(count)


def max_piece_length(cfg):
    return float(cfg.lengths.max())
