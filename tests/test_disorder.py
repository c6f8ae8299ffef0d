import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pieces_lab import disorder
from pieces_lab.disorder import (PieceConfiguration, count_neighbor_pairs,
                                 count_pair_clusters, count_pieces_in_range, count_triplets,
                                 from_lengths, max_piece_length, sample_pieces,
                                 sample_pieces_conditioned)


# Reference scans: one Python loop per start piece, adding the gap left to
# right and stopping at the first gap beyond the window.

def _pair_cluster_scan(lengths, a, b, c, d, g, f):
    count = 0
    m = lengths.shape[0]
    for i in range(m):
        li = lengths[i]
        if li < a or li > a + b:
            continue
        gap = 0.0
        for j in range(i + 2, m):
            gap += lengths[j - 1]
            if gap > g + f:
                break
            lj = lengths[j]
            if gap >= g and c <= lj <= c + d:
                count += 1
    return count


def _neighbor_pair_scan(lengths, ell, ellp, d):
    count = 0
    m = lengths.shape[0]
    for i in range(m):
        if lengths[i] < ell:
            continue
        gap = 0.0
        for j in range(i + 2, m):
            gap += lengths[j - 1]
            if gap > d:
                break
            if lengths[j] >= ellp:
                count += 1
    return count


def _triplet_scan(lengths, ell, ellp, ellpp, d):
    count = 0
    m = lengths.shape[0]
    for i in range(m):
        if lengths[i] < ell:
            continue
        gap1 = 0.0
        for j in range(i + 2, m):
            gap1 += lengths[j - 1]
            if gap1 > d:
                break
            if lengths[j] >= ellp:
                gap2 = 0.0
                for k in range(j + 2, m):
                    gap2 += lengths[k - 1]
                    if gap2 > d:
                        break
                    if lengths[k] >= ellpp:
                        count += 1
    return count


@given(seed=st.integers(0, 2 ** 32 - 1),
       L=st.floats(1.0, 1e4),
       mu=st.floats(0.1, 5.0))
@settings(max_examples=40, deadline=None)
def test_tiling_and_determinism(seed, L, mu):
    cfg = sample_pieces(seed, L, mu)
    assert np.all(cfg.lengths > 0)
    assert abs(cfg.lengths.sum() - L) <= 1e-12 * max(L, 1.0)
    assert np.all(np.diff(cfg.cut_points) > 0)
    again = sample_pieces(seed, L, mu)
    assert np.array_equal(cfg.cut_points, again.cut_points)


def _cuts_by_mask(seed, L, mu):
    """Reference: sample_pieces' cut loop, truncating each block of
    cumulative gaps with a boolean mask."""
    rng = disorder._rng(seed)
    pts, pos = [], 0.0
    block = max(64, int(1.2 * mu * L) + 16)
    while True:
        cum = pos + np.cumsum(rng.exponential(1.0 / mu, size=block))
        inside = cum[cum < L]
        pts.append(inside)
        if inside.size < block:
            break
        pos = cum[-1]
        block = max(64, block // 4)
    return np.concatenate(pts)


def test_sample_cuts_slice_matches_mask():
    cases = [(s, L, mu) for s in (0, 1, 2)
             for L, mu in ((0.5, 1.0), (5.0, 1.0), (1e3, 1.0), (1e5, 0.3))]
    # seed 3298 at L = 50 draws more cuts than its first block of 76 holds
    cases.append((3298, 50.0, 1.0))
    assert sample_pieces(3298, 50.0, 1.0).n_pieces - 1 >= 76
    for seed, L, mu in cases:
        assert np.array_equal(sample_pieces(seed, L, mu).cut_points,
                              _cuts_by_mask(seed, L, mu))


def test_configuration_leaves_caller_cuts_alone():
    cuts = np.array([1.0, 2.0])
    cfg = PieceConfiguration(3.0, 1.0, cuts)
    assert cuts.flags.writeable
    cuts[0] = 0.5
    assert cfg.cut_points[0] == 1.0
    # the cuts are the inner edges, stored once and read-only
    assert np.shares_memory(cfg.cut_points, cfg.lefts)
    for a in (cfg.cut_points, cfg.lefts, cfg.rights, cfg.lengths):
        assert not a.flags.writeable


def test_sorted_lengths():
    cfg = sample_pieces(5, 200.0, 1.0)
    s = cfg.sorted_lengths
    assert np.array_equal(s, np.sort(cfg.lengths))
    assert not s.flags.writeable
    assert cfg.sorted_lengths is s


@pytest.mark.parametrize("bad", [(7, 0.0, 1.0), (7, -1.0, 1.0), (7, 10.0, 0.0)])
def test_domain_errors(bad):
    with pytest.raises(ValueError):
        sample_pieces(*bad)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("L,mu,cuts", [
    (10.0, 1.0, [NAN]), (10.0, 1.0, [NAN, 2.0, 3.0]),
    (10.0, 1.0, [1.0, NAN, 3.0]), (10.0, 1.0, [1.0, 2.0, NAN]),
    (NAN, 1.0, []), (NAN, 1.0, [1.0]), (INF, 1.0, [1.0]),
    (10.0, NAN, [1.0]), (10.0, INF, [1.0])])
def test_configuration_rejects_nan_and_inf(L, mu, cuts):
    with pytest.raises(ValueError):
        PieceConfiguration(L, mu, cuts)


def test_from_lengths_rejects_nan():
    with pytest.raises(ValueError):
        from_lengths([1.0, NAN, 2.0])


def test_poisson_mean_piece_count():
    counts = [sample_pieces(s, 100.0, 1.0).n_pieces for s in range(2000)]
    # piece count = cut count + 1, cuts ~ Poisson(100)
    assert abs(np.mean(counts) - 101.0) < 3 * 10.0 / np.sqrt(2000)


def test_length_cdf_matches_exponential():
    cfg = sample_pieces(3, 1e5, 1.0)
    for a in np.linspace(0.5, 10.0, 20):
        emp = np.mean(cfg.lengths <= a)
        assert abs(emp - (1.0 - np.exp(-a))) < 0.01


def test_conditioned_sampler():
    with pytest.raises(ValueError):
        sample_pieces_conditioned(0, 10.0, 0)
    one = sample_pieces_conditioned(0, 10.0, 1)
    assert one.n_pieces == 1 and one.lengths[0] == 10.0
    means = [sample_pieces_conditioned(s, 100.0, 10).lengths.mean()
             for s in range(2000)]
    assert abs(np.mean(means) - 10.0) < 0.5


def test_conditioned_marginal_beta():
    from scipy.stats import beta, kstest
    m = 5
    samples = np.array([sample_pieces_conditioned(s, 1.0, m).lengths[0]
                        for s in range(10_000)])
    assert kstest(samples, beta(1, m - 1).cdf).pvalue > 0.01


def test_count_pieces_in_range():
    cfg = from_lengths([0.5, 1.5, 2.5, 3.5])
    assert count_pieces_in_range(cfg, 1.0, 1.0) == 1
    assert count_pieces_in_range(cfg, 1.0, 3.0) == 3
    assert count_pieces_in_range(cfg, 100.0, 1.0) == 0
    big = sample_pieces(1, 1e5, 1.0)
    frac = count_pieces_in_range(big, 1.0, 1.0) / big.L
    assert abs(frac - np.exp(-1) * (1 - np.exp(-1))) < 0.01


def test_count_pair_clusters_oracle():
    # pieces 1.0 | 0.5 | 1.2 | 3.0 | 1.1; the only qualifying pair is
    # (1.0, 1.2) separated by the 0.5 piece
    cfg = from_lengths([1.0, 0.5, 1.2, 3.0, 1.1])
    assert count_pair_clusters(cfg, 0.9, 0.5, 0.9, 0.5, 0.0, 1.0) == 1
    big = sample_pieces(2, 1e5, 1.0)
    frac = count_pair_clusters(big, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0) / big.L
    assert abs(frac - np.exp(-2) * (1 - np.exp(-1)) ** 2) < 0.005


def test_neighbor_pair_bound():
    big = sample_pieces(4, 1e5, 1.0)
    n = count_neighbor_pairs(big, 2.0, 2.0, 3.0)
    assert n <= (2 + 3.0) * np.exp(-4.0) * big.L


def test_max_piece_monotone_and_bound():
    cfg = sample_pieces(5, 1e4, 1.0)
    assert max_piece_length(cfg) == cfg.lengths.max()
    L = 1e5
    bound = np.log(L) * np.log(np.log(L))
    viol = sum(max_piece_length(sample_pieces(s, L, 1.0)) > bound
               for s in range(200))
    assert viol / 200 < 0.01 + 0.02  # generous desk-scale band


def test_count_triplets_hand_built():
    # long pieces 0, 2, 4, 6 separated by 0.5 pieces
    cfg = from_lengths([2.0, 0.5, 2.0, 0.5, 2.0, 0.5, 2.0])
    # d = 0.5: only next-but-one neighbours, (0,2,4) and (2,4,6)
    assert count_triplets(cfg, 1.5, 1.5, 1.5, 0.5) == 2
    # d = 3.0 also reaches two long pieces ahead (distance exactly 3.0):
    # (0,2,4), (0,2,6), (0,4,6), (2,4,6)
    assert count_triplets(cfg, 1.5, 1.5, 1.5, 3.0) == 4
    # no piece reaches a right or middle threshold of 2.5
    assert count_triplets(cfg, 1.5, 1.5, 2.5, 3.0) == 0
    assert count_triplets(cfg, 1.5, 2.5, 1.5, 3.0) == 0


# Dyadic lengths sum exactly, so distances hit g, g+f and d exactly and
# lengths hit a, a+b and the thresholds exactly.
TIE_VALUES = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0]


@st.composite
def scan_cases(draw):
    if draw(st.booleans()):
        lengths = draw(st.lists(st.sampled_from(TIE_VALUES),
                                min_size=1, max_size=30))
        cfg = from_lengths(lengths)
        positive = st.sampled_from(TIE_VALUES)
        width = st.sampled_from([0.0] + TIE_VALUES)
    else:
        seed = draw(st.integers(0, 2 ** 32 - 1))
        n = draw(st.integers(1, 30))
        cfg = from_lengths(np.random.default_rng(seed).exponential(1.0, n))
        x = cfg.lengths
        # thresholds equal to a piece length, distances equal to a gap sum
        positive = st.floats(0.05, 3.0) | st.sampled_from(list(x))
        sums = [sum(x[s:t]) for s in range(len(x)) for t in range(s + 1, len(x))]
        width = st.floats(0.0, 3.0) | st.sampled_from(sums or [0.0])
    return cfg, positive, width


@given(case=scan_cases(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_scans_match_reference_loops(case, data):
    cfg, positive, width = case
    x = cfg.lengths
    a, c = data.draw(positive), data.draw(positive)
    b, d, g, f = (data.draw(width) for _ in range(4))
    assert (count_pair_clusters(cfg, a, b, c, d, g, f)
            == _pair_cluster_scan(x, a, b, c, d, g, f))
    ell, ellp, ellpp = (data.draw(positive) for _ in range(3))
    dist = data.draw(width)
    assert (count_neighbor_pairs(cfg, ell, ellp, dist)
            == _neighbor_pair_scan(x, ell, ellp, dist))
    assert (count_triplets(cfg, ell, ellp, ellpp, dist)
            == _triplet_scan(x, ell, ellp, ellpp, dist))

