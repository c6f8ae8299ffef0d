from collections import Counter

import numpy as np
import pytest
from scipy import integrate

from pieces_lab import quadrature
from pieces_lab.manybody import solve_block
from pieces_lab.optstate import _piece_densities
from pieces_lab.potential import (BoxPotential, ExponentialPotential,
                                  PolynomialPotential)
from pieces_lab.quadrature import (cosine_coefficients, cross_density_integral,
                                   cross_g_tensor, frequency_table,
                                   interaction_g_tensor, pair_reduced_matrix)
from pieces_lab.rdm import rdm1
from pieces_lab.twobody import band_pair_list, solve_two_body
from position_space import density, sine_modes


def _s(k, ell):
    return lambda x: np.sqrt(2.0 / ell) * np.sin(np.pi * k * x / ell)


def test_sine_modes_orthonormal():
    ell = 3.7
    x = np.linspace(0, ell, 20001)
    S = sine_modes(4, ell, x)
    G = S @ S.T * (x[1] - x[0])
    assert np.allclose(G, np.eye(4), atol=1e-3)


def test_g_tensor_against_dblquad():
    U = BoxPotential(1.0, 1.0)
    ell, m = 4.0, 3
    g = interaction_g_tensor(U, ell, m)
    for (a, b, c, d) in [(0, 0, 0, 0), (0, 1, 1, 2), (2, 0, 1, 0)]:
        sa, sb = _s(a + 1, ell), _s(b + 1, ell)
        sc, sd = _s(c + 1, ell), _s(d + 1, ell)

        def inner(x):
            pts = sorted(p for p in (x - 1.0, x + 1.0) if 0 < p < ell)
            v, _ = integrate.quad(lambda y: U(x - y) * sc(y) * sd(y),
                                  0, ell, points=pts, limit=200)
            return v

        ref, _ = integrate.quad(lambda x: sa(x) * sb(x) * inner(x),
                                0, ell, limit=200)
        assert g[a, b, c, d] == pytest.approx(ref, abs=1e-9)


def test_g_tensor_symmetries():
    U = ExponentialPotential(1.0, 1.0)
    g = interaction_g_tensor(U, 5.0, 4)
    # x <-> y factor swap and within-factor index swap
    assert np.allclose(g, g.transpose(1, 0, 2, 3), atol=1e-12)
    assert np.allclose(g, g.transpose(0, 1, 3, 2), atol=1e-12)
    assert np.allclose(g, g.transpose(2, 3, 0, 1), atol=1e-12)


def test_cross_g_tensor_against_dblquad():
    U = ExponentialPotential(1.0, 1.0)
    ellA, ellB, gap = 3.0, 4.0, 0.7
    g = cross_g_tensor(U, ellA, 2, ellB, 2, gap)
    sa, sc = _s(1, ellA), _s(2, ellB)
    ref, _ = integrate.dblquad(
        lambda y, x: U(x - (ellA + gap + y)) * sa(x) ** 2 * sc(y) ** 2,
        0, ellA, 0, ellB, epsabs=1e-11)
    assert g[0, 0, 1, 1] == pytest.approx(ref, abs=1e-8)


def test_cross_g_vanishes_beyond_support():
    U = BoxPotential(1.0, 1.0)
    g = cross_g_tensor(U, 3.0, 2, 3.0, 2, 1.5)
    # gap 1.5 > support radius 1: every element zero
    assert np.max(np.abs(g)) == 0.0


def test_cross_density_integral_oracle():
    U = ExponentialPotential(1.0, 2.0)
    ell_a = ell_b = 3.0
    da = lambda x: np.asarray(_s(1, ell_a)(x)) ** 2
    db = lambda y: np.asarray(_s(1, ell_b)(y)) ** 2
    gap = 0.5
    c = cosine_coefficients(np.eye(1))
    val = cross_density_integral(U, c, ell_a, c, ell_b, gap)
    ref, _ = integrate.dblquad(
        lambda y, x: U(ell_a + gap + y - x) * da(x) * db(y),
        0, ell_a, 0, ell_b, epsabs=1e-11)
    assert val == pytest.approx(ref, rel=1e-6)


# ---------------------------------------------------------------------------
# reference per-node loops: the quadrature rules written one u-node at a
# time, with the inner integral in the division-free sinc form


def _gl(a, b, n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _loop_u_panels(U, lo, hi, extra_edges=(), max_cycles=6.0, dens=1.0):
    """(a, b) u-panels covering [lo, hi] clipped to U's effective support,
    split at kinks of U and at the supplied edges, and subdivided so no
    panel spans more than max_cycles oscillation cycles (density dens)."""
    if lo >= hi:
        return []
    edges = {lo, hi}
    cand = [0.0]
    for b in U.breakpoints():
        cand.extend((b, -b))
    cand.extend(extra_edges)
    for c in cand:
        if lo < c < hi:
            edges.add(c)
    R = U.effective_radius(1e-13 * (2.0 * U.tail_integral(0.0) + 1e-300))
    lo_c, hi_c = max(lo, -R), min(hi, R)
    if lo_c >= hi_c:
        return []
    edges = sorted(e for e in edges if lo_c <= e <= hi_c)
    if not edges or edges[0] > lo_c:
        edges = [lo_c] + edges
    if edges[-1] < hi_c:
        edges = edges + [hi_c]
    out = []
    width_cap = max_cycles / max(dens, 1e-12)
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a <= 0:
            continue
        n_sub = max(1, int(np.ceil((b - a) / width_cap)))
        sub = np.linspace(a, b, n_sub + 1)
        out.extend(zip(sub[:-1], sub[1:]))
    return out


def _loop_u_nodes(U, ellA, ellB, offset, dens, n_nodes):
    panels = _loop_u_panels(U, -offset - ellB, ellA - offset,
                            extra_edges=(-offset, ellA - ellB - offset),
                            dens=dens)
    for a, b in panels:
        uq, wu = _gl(a, b, n_nodes(a, b))
        for u, cu in zip(uq, np.asarray(U(uq), dtype=np.float64) * wu):
            x_lo = max(0.0, u + offset)
            x_hi = min(ellA, u + offset + ellB)
            if cu != 0.0 and x_hi > x_lo:
                yield u, cu, x_lo, x_hi


def _loop_cos_cos_integral(alpha, beta, shift, x_lo, x_hi):
    xm = 0.5 * (x_hi + x_lo)
    dx2 = 0.5 * (x_hi - x_lo)

    def half(omega, phase):
        return 2.0 * np.cos(omega * xm + phase) * dx2 * np.sinc(omega * dx2 / np.pi)

    return 0.5 * (half(alpha + beta, -beta * shift)
                  + half(alpha - beta, beta * shift))


def _loop_frequency_table(U, ellA, mA, ellB, mB, offset, nodes_per_panel=32,
                          rows=None, cols=None):
    """J[rows][:, cols] (all of J by default) from the u-nodes of mA and mB."""
    rows = np.arange(2 * mA + 1) if rows is None else np.asarray(rows)
    cols = np.arange(2 * mB + 1) if cols is None else np.asarray(cols)
    alpha = (np.pi / ellA) * rows[:, None]
    beta = (np.pi / ellB) * cols[None, :]
    J = np.zeros((len(rows), len(cols)))
    for u, cu, x_lo, x_hi in _loop_u_nodes(U, ellA, ellB, offset,
                                           mA / ellA + mB / ellB,
                                           lambda a, b: nodes_per_panel):
        J += cu * _loop_cos_cos_integral(alpha, beta, u + offset, x_lo, x_hi)
    return J


def _loop_cross_density_integral(U, dens_a, ell_a, dens_b, ell_b, gap, n_inner=96):
    offset = ell_a + gap
    total = 0.0
    for u, cu, x_lo, x_hi in _loop_u_nodes(
            U, ell_a, ell_b, offset, 0.25,
            lambda a, b: max(24, int(2.0 * (b - a)) + 8)):
        xs, wx = _gl(x_lo, x_hi, n_inner)
        total += cu * np.sum(wx * dens_a(xs) * dens_b(xs - u - offset))
    return total


POTENTIALS = [BoxPotential(1.0, 1.0), ExponentialPotential(1.0, 1.0),
              PolynomialPotential(1.0, 5.0, 1.0)]
# a test case is named by the spec name of its potential's family
SPEC_NAMES = {BoxPotential: "box", ExponentialPotential: "exp",
              PolynomialPotential: "poly"}


def _family(U):
    return SPEC_NAMES[type(U)]


@pytest.mark.parametrize("U", POTENTIALS, ids=_family)
@pytest.mark.parametrize("ell,m", [(5.0, 6), (40.0, 50), (7.5, 56), (40.0, 171)])
def test_frequency_table_self_matches_node_loop(U, ell, m):
    # m = 56 and m = 171: the sizes of the pair-bin and box-ladder self
    # tables.  At m = 171 the loop builds every 13th frequency and its
    # neighbour (the diagonal, the entries next to it, the first and last)
    J = frequency_table(U, ell, m, ell, m, 0.0)
    idx = np.arange(2 * m + 1)
    if m > 100:
        idx = np.union1d(np.union1d(idx[::13], idx[1::13]), idx[-2:])
    ref = _loop_frequency_table(U, ell, m, ell, m, 0.0, rows=idx, cols=idx)
    assert np.max(np.abs(J[np.ix_(idx, idx)] - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("U", POTENTIALS, ids=_family)
@pytest.mark.parametrize("rel", [0.0, 1e-9, 1e-4])
@pytest.mark.parametrize("gap", [0.0, 0.7])
def test_frequency_table_cross_matches_node_loop(U, rel, gap):
    # lB = lA (1 + rel): exact, near and loose coincidences m / lA ~ n / lB,
    # where the closed form's divisor a_m - b_n vanishes or nearly so
    lA, mA, mB = 6.0, 8, 7
    lB = lA * (1.0 + rel)
    J = frequency_table(U, lA, mA, lB, mB, lA + gap)
    ref = _loop_frequency_table(U, lA, mA, lB, mB, lA + gap)
    assert np.max(np.abs(J - ref)) <= 1e-12 * np.max(np.abs(ref))


def _density(U, kind, ell):
    """(cosine coefficients, density callable on [0, ell]) of one piece
    state; the callable evaluates the density pointwise, as the node loop
    needs."""
    if kind == "single":  # level 2
        return (cosine_coefficients(np.diag([0.0, 1.0])),
                lambda x: _s(2, ell)(np.asarray(x)) ** 2)
    if kind == "fill":  # the lowest 3 levels
        return cosine_coefficients(np.eye(3)), lambda x: sum(
            _s(k, ell)(np.asarray(x)) ** 2 for k in (1, 2, 3))
    if kind == "pair":  # the state solved on the 0.05 length bin, rescaled
        sol = solve_two_body(U, round(ell * 20.0) / 20.0, M=12, rtol=1e-4)
        G = sol.one_body_rdm()
        return cosine_coefficients(G), lambda x: (
            density(G, sol.ell, np.asarray(x) * sol.ell / ell) * sol.ell / ell)
    # one piece of a two-piece CI ground state: the density summed over the
    # state's rdm1 entries of that piece
    piece = int(kind[-1])
    _, states = solve_block([(0.0, 5.0), (5.4, 6.3)], (2, 1), U, M=6, n_states=1)
    g = rdm1(states[0])

    def rho(x):
        x = np.asarray(x)
        return sum(g.matrix[a, b] * _s(ka, ell)(x) * _s(kb, ell)(x)
                   for a, (ja, ka) in enumerate(g.modes)
                   for b, (jb, kb) in enumerate(g.modes) if ja == jb == piece)

    return _piece_densities(states[0])[piece], rho


@pytest.mark.parametrize("U", POTENTIALS, ids=_family)
def test_cross_density_integral_matches_node_loop(U):
    for kinds in [(("single", 4.3), ("pair", 6.43)),
                  (("fill", 9.1), ("single", 5.2)),
                  (("pair", 7.77), ("pair", 6.9)),
                  (("ci0", 5.0), ("ci1", 6.3)),
                  (("ci1", 6.3), ("fill", 4.0))]:
        (ca, da), (cb, db) = (_density(U, kind, ell) for kind, ell in kinds)
        (_, la), (_, lb) = kinds
        for gap in (0.0, 0.4):
            val = cross_density_integral(U, ca, la, cb, lb, gap)
            ref = _loop_cross_density_integral(U, da, la, db, lb, gap)
            assert val == pytest.approx(ref, rel=1e-9), (kinds, gap)


# ---------------------------------------------------------------------------
# stacked tables: one call over a batch of piece pairs against one scalar
# call per pair and the per-node loop


def _stacked_cases(U):
    """(ellA, ellB, gap) of a batch with gap 0, near-coincident and equal
    lengths (entries on the small-w fallback), short pieces whose -offset and
    ellA - ellB - offset edges fall inside U's range (mixed panel counts),
    and gaps at or beyond the range (zero tables)."""
    rng = np.random.default_rng(7)
    lA = rng.uniform(0.3, 9.0, 24)
    lB = rng.uniform(0.3, 9.0, 24)
    gap = rng.uniform(0.0, 0.9, 24)
    gap[:4] = 0.0
    lB[4:7] = lA[4:7]
    lB[7:9] = lA[7:9] * (1.0 + 1e-9)
    lA[9:12], lB[9:12], gap[9:12] = (0.3, 0.4, 0.2), (0.25, 0.45, 0.1), (0.2, 0.0, 0.3)
    far = U.effective_radius(1e-13 * 2.0 * U.tail_integral(0.0))  # 1 for the unit box
    gap[12:14] = far, far + 0.5
    return lA, lB, gap


@pytest.mark.parametrize("cells", [None, 4096])
@pytest.mark.parametrize("U", POTENTIALS, ids=_family)
def test_stacked_frequency_table_matches_scalar_and_loop(U, cells, monkeypatch):
    # cells = 4096 splits the batch and the fallback into many chunks
    if cells is not None:
        monkeypatch.setattr(quadrature, "_CHUNK_CELLS", cells)
    lA, lB, gap = _stacked_cases(U)
    for mA, mB in [(1, 1), (3, 7)]:
        J = frequency_table(U, lA, mA, lB, mB, lA + gap)
        assert J.shape == (len(lA), 2 * mA + 1, 2 * mB + 1)
        for k in range(len(lA)):
            one = frequency_table(U, lA[k], mA, lB[k], mB, lA[k] + gap[k])
            ref = _loop_frequency_table(U, lA[k], mA, lB[k], mB, lA[k] + gap[k])
            if k in (12, 13):
                assert not J[k].any() and not one.any() and not ref.any()
                continue
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(J[k] - one)) <= 1e-13 * scale, k
            assert np.max(np.abs(J[k] - ref)) <= 1e-13 * scale, k


def test_stacked_tables_cover_every_edge_case():
    # the batch above reaches what it is meant to: entries with several
    # panel counts, the -offset / ellA - ellB - offset edges inside the
    # range, and entries without panels
    U = POTENTIALS[0]
    lA, lB, gap = _stacked_cases(U)
    offset = lA + gap
    e, a, b = quadrature._u_panels(
        U, -offset - lB, lA - offset, np.stack((-offset, lA - lB - offset), axis=1),
        3 / lA + 7 / lB)
    panels = np.bincount(e, minlength=len(lA))
    assert len(set(panels[panels > 0])) >= 3 and not panels[12:14].any()
    assert np.isin(-offset[9:12], a).all() and np.isin((lA - lB - offset)[9:12], a).all()


def test_stacked_tables_cover_every_end_class():
    # the batch above has live nodes at both kinds of each overlap end:
    # x_lo = 0 or x_lo = s, and x_hi = ellA or x_hi = s + ellB, in all four
    # combinations
    U = POTENTIALS[0]
    lA, lB, gap = _stacked_cases(U)
    offset = lA + gap
    e, u, c, x_lo, x_hi = quadrature._u_nodes(U, lA, lB, offset, *quadrature._u_panels(
        U, -offset - lB, lA - offset, np.stack((-offset, lA - lB - offset), axis=1),
        3 / lA + 7 / lB))
    s = u + offset[e]
    at_s, at_y = x_lo > 0.0, x_hi < lA[e]
    assert np.array_equal(x_lo[at_s], s[at_s]) and not x_lo[~at_s].any()
    assert np.array_equal(x_hi[at_y], s[at_y] + lB[e][at_y])
    assert np.array_equal(x_hi[~at_y], lA[e][~at_y])
    for lo_class in (at_s, ~at_s):
        for hi_class in (at_y, ~at_y):
            assert (lo_class & hi_class).any()


def _fallback_entries(U, lA, mA, lB, mB, offset):
    """(omega, sign b) of every entry of one table with |omega| W < 1, W the
    widest node overlap of the per-node loop, and the counts of entries
    that W / 2 in place of W, or the narrowest overlap, would move across
    the criterion."""
    widths = [x_hi - x_lo for _, _, x_lo, x_hi in
              _loop_u_nodes(U, lA, lB, offset, mA / lA + mB / lB, lambda a, b: 32)]
    if not widths:
        return [], 0, 0
    W, narrow = max(widths), min(widths)
    alpha = (np.pi / lA) * np.arange(2 * mA + 1)
    beta = (np.pi / lB) * np.arange(2 * mB + 1)
    entries, halved, narrowed = [], 0, 0
    for sign in (1.0, -1.0):
        omega = alpha[:, None] + sign * beta[None, :]
        b = np.broadcast_to(sign * beta, omega.shape)
        small = np.abs(omega) * W < 1.0
        entries += zip(omega[small].tolist(), b[small].tolist())
        halved += np.count_nonzero(small & (np.abs(omega) * W >= 0.5))
        narrowed += np.count_nonzero(~small & (np.abs(omega) * narrow < 1.0))
    return entries, halved, narrowed


@pytest.mark.parametrize("U", POTENTIALS[:2], ids=_family)
def test_fallback_takes_entries_below_the_widest_overlap(U, monkeypatch):
    # the entries summed in the division-free form are exactly those with
    # |omega| W < 1, W the widest node overlap of their table: checked on
    # a scalar cross table and on the stacked batch, whose node overlaps
    # are of unequal width
    seen = []
    sinc_sums = quadrature._sinc_sums

    def record(c, s, xm, h, e, omega, b):
        seen.extend(zip(omega.tolist(), b.tolist()))
        return sinc_sums(c, s, xm, h, e, omega, b)

    monkeypatch.setattr(quadrature, "_sinc_sums", record)
    lA, lB, gap = _stacked_cases(U)
    for ellA, mA, ellB, mB, offset in [(5.0, 6, 3.7, 5, 5.3), (lA, 3, lB, 7, lA + gap)]:
        seen.clear()
        frequency_table(U, ellA, mA, ellB, mB, offset)
        expected, halved, narrowed = [], 0, 0
        for entry in zip(*np.atleast_1d(ellA, ellB, offset)):
            part = _fallback_entries(U, entry[0], mA, entry[1], mB, entry[2])
            expected += part[0]
            halved, narrowed = halved + part[1], narrowed + part[2]
        assert Counter(seen) == Counter(expected)
        # the case reaches what it is meant to: a W half as wide, or the
        # narrowest overlap, would each move some entries across
        assert halved > 0 and narrowed > 0


@pytest.mark.parametrize("U", POTENTIALS, ids=_family)
def test_exact_zero_frequencies_skip_the_sinc(U, monkeypatch):
    # the fallback of a self table is exactly its omega = 0 entries, the
    # m = n differences and (0, 0) of the sums, and none of them calls
    # np.sinc; a cross table's non-zero near coincidences still do
    seen, sinc_rows = [], []
    sinc_sums, sinc = quadrature._sinc_sums, np.sinc

    def record(c, s, xm, h, e, omega, b):
        seen.extend(zip(omega.tolist(), b.tolist()))
        return sinc_sums(c, s, xm, h, e, omega, b)

    def counted_sinc(x):
        sinc_rows.append(len(x))
        return sinc(x)

    monkeypatch.setattr(quadrature, "_sinc_sums", record)
    monkeypatch.setattr(np, "sinc", counted_sinc)
    ell, m = 7.5, 9
    frequency_table(U, ell, m, ell, m, 0.0)
    beta = (np.pi / ell) * np.arange(2 * m + 1)
    assert Counter(seen) == Counter([(0.0, 0.0)] + [(0.0, -b) for b in beta.tolist()])
    assert sinc_rows == []
    seen.clear()
    frequency_table(U, 5.0, 6, 3.7, 5, 5.3)
    live = sum(omega != 0.0 for omega, _ in seen)
    assert live > 0 and sum(sinc_rows) == live


@pytest.mark.parametrize("cells", [None, 64])
@pytest.mark.parametrize("U", POTENTIALS, ids=_family)
def test_stacked_cross_density_matches_scalar(U, cells, monkeypatch):
    # cells = 64 builds the batch's tables one call at a time
    if cells is not None:
        monkeypatch.setattr(quadrature, "_CHUNK_CELLS", cells)
    lA, lB, gap = _stacked_cases(U)
    rng = np.random.default_rng(3)
    Ga = rng.normal(size=(len(lA), 2, 2))
    Ga = Ga @ Ga.transpose(0, 2, 1)
    Gb = np.broadcast_to(np.diag([1.0, 0.0, 1.0]), (len(lA), 3, 3))
    ca, cb = cosine_coefficients(Ga), cosine_coefficients(Gb)
    val = cross_density_integral(U, ca, lA, cb, lB, gap)
    for k in range(len(lA)):
        ref = cross_density_integral(U, ca[k], lA[k], cb[k], lB[k], gap[k])
        # the contraction cancels: measure against its absolute value
        J = frequency_table(U, lA[k], 2, lB[k], 3, lA[k] + gap[k])
        scale = np.abs(ca[k]) @ np.abs(J) @ np.abs(cb[k]) / (lA[k] * lB[k])
        assert abs(val[k] - ref) <= 1e-13 * scale, k


# ---------------------------------------------------------------------------
# the fancy-index gather from the frequency table: the oracle for the strided
# views of the folded table


def _gather_g(J, ellA, ellB, a, b, c, d):
    """g[a,b,c,d] from the frequency table (0-based mode indices)."""
    i, j = a + 1, b + 1
    k, l = c + 1, d + 1
    return (J[np.abs(i - j), np.abs(k - l)] - J[np.abs(i - j), k + l]
            - J[i + j, np.abs(k - l)] + J[i + j, k + l]) / (ellA * ellB)


def _gathered_pair_matrix(U, ell, pairs):
    """<U phi_ij, phi_kl> = g[i,k,j,l] - g[i,l,j,k], gathered entry by entry."""
    m = max(j for _, j in pairs)
    J = frequency_table(U, ell, m, ell, m, 0.0)
    i = np.array([p[0] - 1 for p in pairs])
    j = np.array([p[1] - 1 for p in pairs])
    a, c = np.ix_(i, i)
    b, d = np.ix_(j, j)
    return _gather_g(J, ell, ell, a, c, b, d) - _gather_g(J, ell, ell, a, d, b, c)


def _shuffled_two_parity_pairs(seed):
    """Pairs of both reflection sectors with mixed d, about 40% of them
    dropped (gaps in i within a d group), in random order."""
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(1, 30) for j in range(i + 1, min(30, max(i + 9, 10)) + 1)]
    pairs = [p for p in pairs if rng.random() < 0.6]
    return [pairs[k] for k in rng.permutation(len(pairs))]


PAIR_LISTS = {"band-trial": band_pair_list(12, 12, 56),
              "band-corner": band_pair_list(24, 12, 56),
              "shuffled-a": _shuffled_two_parity_pairs(1),
              "shuffled-b": _shuffled_two_parity_pairs(2),
              "single": [(3, 8)]}


@pytest.mark.parametrize("kind", sorted(PAIR_LISTS))
@pytest.mark.parametrize("U", POTENTIALS, ids=_family)
def test_pair_matrix_matches_gather(U, kind):
    pairs = PAIR_LISTS[kind]
    V = pair_reduced_matrix(U, 7.3, pairs)
    ref = _gathered_pair_matrix(U, 7.3, pairs)
    assert np.abs(V - ref).max() <= 1e-13 * np.abs(ref).max()


def _column_masks(pairs):
    """Column masks over pairs: all, random, every other offset group
    emptied, and the first half of each group in i (a solver's sub-basis
    takes a first run of each group)."""
    i, j = np.array(pairs).T
    d = j - i
    rank = np.array([np.count_nonzero((d == dk) & (i < ik)) for ik, dk in zip(i, d)])
    size = np.array([np.count_nonzero(d == dk) for dk in d])
    return {"all": np.ones(len(pairs), dtype=bool),
            "random": np.random.default_rng(len(pairs)).random(len(pairs)) < 0.5,
            "groups": np.searchsorted(np.unique(d), d) % 2 == 0,
            "first-run": rank < (size + 1) // 2}


@pytest.mark.parametrize("kind", sorted(PAIR_LISTS))
@pytest.mark.parametrize("U", POTENTIALS, ids=_family)
def test_pair_matrix_columns_match_full_matrix(U, kind):
    # each list in its own order and in (d, i) order, which is returned
    # without a permutation back
    pairs = PAIR_LISTS[kind]
    for order in (pairs, sorted(pairs, key=lambda p: (p[1] - p[0], p[0]))):
        V = pair_reduced_matrix(U, 7.3, order)
        ref = _gathered_pair_matrix(U, 7.3, order)
        for name, cols in _column_masks(order).items():
            W = pair_reduced_matrix(U, 7.3, order, cols)
            assert np.array_equal(W, V[:, cols]), name
            assert np.abs(W - ref[:, cols]).max(initial=0.0) <= 1e-13 * np.abs(ref).max()


def test_pair_matrix_rejects_a_bad_column_mask():
    # a mask of the wrong length, or indices in place of a mask
    pairs = PAIR_LISTS["band-trial"]
    for cols in (np.ones(len(pairs) - 1, dtype=bool), np.arange(len(pairs))):
        with pytest.raises(ValueError, match="boolean mask"):
            pair_reduced_matrix(POTENTIALS[0], 7.3, pairs, cols)


@pytest.mark.parametrize("U", POTENTIALS, ids=_family)
def test_pair_matrix_edge_addresses(U):
    # (1, 2) against (m - 1, m) and (m - 1, m) with itself read the folded
    # table's first and last rows and columns
    ell, m = 5.0, 9
    for ij, kl in (((1, 2), (m - 1, m)), ((m - 1, m), (m - 1, m))):
        ref = _gathered_pair_matrix(U, ell, [ij, kl])
        entry = pair_reduced_matrix(U, ell, [ij, kl])[0, 1]
        assert abs(entry - ref[0, 1]) <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("U", POTENTIALS, ids=_family)
def test_g_tensors_match_gather(U):
    ell, m = 5.0, 5
    J = frequency_table(U, ell, m, ell, m, 0.0)
    idx = np.arange(m)
    ref = _gather_g(J, ell, ell, *np.ix_(idx, idx, idx, idx))
    assert np.abs(interaction_g_tensor(U, ell, m) - ref).max() <= 1e-13 * np.abs(ref).max()
    ellA, mA, ellB, mB, gap = 3.0, 3, 4.5, 6, 0.2
    J = frequency_table(U, ellA, mA, ellB, mB, ellA + gap)
    a, b = np.ix_(np.arange(mA), np.arange(mA))
    c, d = np.ix_(np.arange(mB), np.arange(mB))
    ref = _gather_g(J, ellA, ellB, a[:, :, None, None], b[:, :, None, None],
                    c[None, None, :, :], d[None, None, :, :])
    g = cross_g_tensor(U, ellA, mA, ellB, mB, gap)
    assert g.shape == (mA, mA, mB, mB)
    assert np.abs(g - ref).max() <= 1e-13 * np.abs(ref).max()


def test_strided_view_checks_its_corners():
    E = quadrature._fold(np.arange(12.0).reshape(3, 4))
    assert E.shape == (5, 7) and E[0, 0] == E[4, 6] == E[4, 0] == 11.0
    v = quadrature._view(E, (2, 3), ((1, 1), (-1, 1)), (3, 2))
    assert [v[t] for t in ((0, 0), (2, 0), (0, 1), (2, 1))] == [E[2, 3], E[4, 5], E[1, 4], E[3, 6]]
    assert not v.flags.writeable
    with pytest.raises(IndexError):
        quadrature._view(E, (2, 3), ((1, 1), (-1, 1)), (3, 3))
    # with steps (-1, 1) and (1, -1) the view spans rows r - 2 .. r + 2 and
    # columns c - 2 .. c + 2 of E; each extreme leaves E in turn
    steps = ((-1, 1), (1, -1))
    v = quadrature._view(E, (2, 3), steps, (3, 3))
    for t in np.ndindex(3, 3):
        assert v[t] == E[2 - t[0] + t[1], 3 + t[0] - t[1]]
    for origin in ((1, 3), (3, 3), (2, 1), (2, 5)):
        with pytest.raises(IndexError):
            quadrature._view(E, origin, steps, (3, 3))


# ---------------------------------------------------------------------------
# tables over subsets of the frequencies


@pytest.mark.parametrize("U", POTENTIALS[:2], ids=_family)
def test_frequency_table_subsets_match_full_table(U):
    rng = np.random.default_rng(11)
    lA, lB, gap = _stacked_cases(U)
    # self tables (ellB = ellA, offset 0) and cross tables, as a batch and
    # as a scalar call
    for mA, mB, ellB, offset in [(6, 6, lA, np.zeros_like(lA)), (3, 5, lB, lA + gap)]:
        rows = np.sort(rng.choice(2 * mA + 1, mA, replace=False))
        cols = np.sort(rng.choice(2 * mB + 1, mB + 2, replace=False))
        full = frequency_table(U, lA, mA, ellB, mB, offset)
        sub = frequency_table(U, lA, mA, ellB, mB, offset, rows=rows, cols=cols)
        assert sub.shape == (len(lA), len(rows), len(cols))
        assert np.abs(sub - full[:, rows][:, :, cols]).max() <= 1e-15 * np.abs(full).max()
        full = frequency_table(U, lA[4], mA, ellB[4], mB, offset[4])
        sub = frequency_table(U, lA[4], mA, ellB[4], mB, offset[4], rows=rows, cols=cols)
        assert np.abs(sub - full[np.ix_(rows, cols)]).max() <= 1e-15 * np.abs(full).max()


def _full_contraction(U, ca, la, cb, lb, gap):
    J = frequency_table(U, la, len(ca) // 2, lb, len(cb) // 2, la + gap)
    return ca @ J @ cb / (la * lb), np.abs(ca) @ np.abs(J) @ np.abs(cb) / (la * lb)


@pytest.mark.parametrize("U", POTENTIALS[:2], ids=_family)
def test_cross_density_over_used_frequencies_matches_full_table(U):
    pair = cosine_coefficients(solve_two_body(U, 7.5, M=12, rtol=1e-4).one_body_rdm())
    assert (pair[1::2] == 0.0).all() and (pair == 0.0).any()
    fill = cosine_coefficients(np.eye(3))
    dense = np.random.default_rng(4).normal(size=(3, 9))
    assert (dense != 0.0).all()
    la, lb, gap = np.array([7.5, 7.1, 6.8]), np.array([4.0, 5.5, 4.2]), np.array([0.3, 0.0, 0.5])
    # pair and fill densities, with a zero density on either side, and
    # coefficients without a zero column
    zero = np.zeros_like
    for ca, cb in [(np.stack((pair, zero(pair), pair)), np.stack((fill, fill, zero(fill)))),
                   (dense, dense[::-1])]:
        val = cross_density_integral(U, ca, la, cb, lb, gap)
        for k in range(len(la)):
            ref, scale = _full_contraction(U, ca[k], la[k], cb[k], lb[k], gap[k])
            one = cross_density_integral(U, ca[k], la[k], cb[k], lb[k], gap[k])
            for v in (val[k], one):
                if scale == 0.0:  # a zero density: exactly 0
                    assert v == 0.0, k
                else:
                    assert abs(v - ref) <= 1e-13 * scale, k


def test_cross_density_of_zero_density_builds_no_table(monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("built a table for a zero density")

    monkeypatch.setattr(quadrature, "frequency_table", build)
    U = BoxPotential(1.0, 1.0)
    assert cross_density_integral(U, np.zeros(5), 3.0, cosine_coefficients(np.eye(2)),
                                  4.0, 0.1) == 0.0
    val = cross_density_integral(U, np.zeros((3, 5)), np.ones(3), np.ones((3, 7)),
                                 np.ones(3), np.zeros(3))
    assert np.array_equal(val, np.zeros(3))
