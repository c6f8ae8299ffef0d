"""Quadrature for interaction integrals against Dirichlet sine modes.

Everything here reduces to integrals of the form

    g[a,b,c,d] = int_A int_B U(x - y - offset) sA_a(x) sA_b(x)
                                               sB_c(y) sB_d(y) dy dx

with sA, sB normalized sine modes on intervals A = [0, lA], B = [0, lB]
(B placed so that x - y_global = x - y - offset).  The difference variable
u = x - y - offset is integrated numerically over panels adapted to the
kinks and support of U, with weights c_u = U(u) w_u; for each u-node the
inner integral over the overlap [x_lo(u), x_hi(u)] is a product of two
cosine expansions and is evaluated in closed form.  Only the frequency
table

    J[m, n] = sum_u c_u int_{x_lo}^{x_hi} cos(a_m x) cos(b_n (x - s_u)) dx,

a_m = m pi / lA, b_n = n pi / lB, s_u = u + offset, is accumulated
(m <= 2 mA, n <= 2 mB); every g entry is a signed combination of four J
entries.  Sharply supported potentials cost nothing extra, and accuracy is
governed by the u-panel rule alone.  A piece density is a cosine series in
the same frequencies (its sine-basis 1-RDM G gives the coefficients), so a
density-density integral between two pieces contracts their J with two
coefficient vectors (cross_density_integral): the table is the one
quadrature engine for every interaction integral.

The table can be built over subsets of its rows and columns: every entry
is a sum over the same u-nodes (those of the nominal mA and mB), so an
entry of a subset table equals that entry of the full table.
cross_density_integral builds only the frequencies at which some density
of its batch has a non-zero coefficient: a pair state's density has none
at odd n, nor beyond twice the reach of its sub-basis.

Every J lookup of a g entry reads J[|p|, |q|] with p, q sums and
differences of mode numbers, so the table is folded once,

    E[p + R, q + C] = J[|p|, |q|],  |p| <= R = 2 mA,  |q| <= C = 2 mB,

and each of the four signed terms becomes an entry of E at an address
affine in the mode numbers.  The g tensors are then sums of four 4-D
strided views of E.  The pair matrix over the pairs (i, i + d) is built
block by block, one block per two offsets d, d': over the bounding i and k
ranges of the two groups, its direct and exchange terms are eight 2-D
strided views of E.  Every view's corner addresses are checked against
E's shape before the view is made, so no view reads outside E.

With y = x - s_u, cos(a x) cos(b y) = (cos(a x + b y) + cos(a x - b y)) / 2
and, for each sign sigma,

    int cos(a x + sigma b y) dx = [sin(a x) cos(b y)
                                   + sigma cos(a x) sin(b y)] / (a + sigma b)

between x_lo and x_hi.  The bracket separates in m and n, so its sum over
all u-nodes is two matrix products over the node axis, (2 mA + 1) x nodes
times nodes x (2 mB + 1), shared by both signs and followed by one
elementwise division.

The division is ill-conditioned where w = a_m + sigma b_n is small: the
bracket is a difference of O(1) numbers carrying a rounding error of about
eps * phase, which the division turns into eps * phase / |w|, while the
division-free form

    int cos(w x + p) dx = 2 h cos(w x_mid + p) sinc(w h / pi)

(x_mid, h the midpoint and half-width of [x_lo, x_hi]) errs by about
eps * phase * h.  Entries with |w| W < 1, W the widest overlap of any node,
are therefore summed over the nodes in the division-free form: the exact
zeros m = n of self tables and the near coincidences of cross tables.
Every other entry then errs by at most eps * phase * W per node, the
division-free bound at the widest node.

The table has a leading batch axis: with arrays ellA, ellB and offset (mA
and mB shared) it returns one table per piece pair, built in one pass.
The u-panels of every entry come from array code (the same edges,
clipping, subdivision and Gauss-Legendre rule), dead panels and nodes are
dropped by a stable compaction, and each entry's live nodes fill one row
of a zero-padded layout, so the brackets are batched matrix products and
the small-w fallback runs over the stacked entries.  A scalar call is a
batch of one.  Every stacked intermediate (a batch chunk's trigonometric
tables, a block of the fallback, a slice of cross_density_integral's
tables) is bounded by _CHUNK_CELLS cells; the large self tables of
pair_reduced_matrix keep their _NODE_CHUNK node chunks.
"""

import functools
import itertools

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "sine_modes",
    "frequency_table",
    "interaction_g_tensor",
    "cross_g_tensor",
    "pair_reduced_matrix",
    "cross_density_integral",
    "cosine_coefficients",
]


_leggauss = functools.cache(np.polynomial.legendre.leggauss)


def sine_modes(m, ell, x):
    """Normalized Dirichlet modes sqrt(2/l) sin(pi k x / l), k = 1..m.

    Returns an (m, len(x)) array.
    """
    x = np.asarray(x, dtype=np.float64)
    k = np.arange(1, m + 1)[:, None]
    return np.sqrt(2.0 / ell) * np.sin(np.pi * k * x[None, :] / ell)


def _u_panels(U, lo, hi, extra_edges, dens, max_cycles=6.0):
    """u-panels covering [lo_e, hi_e] clipped to U's effective support, for
    each batch entry e, split at kinks of U and at the entry's extra edges
    (a B x k array) and subdivided so no panel spans more than max_cycles
    oscillation cycles (density dens_e).

    Returns (e, a, b): the entry and the ends of every panel, entry by entry
    and in increasing u within an entry.
    """
    R = U.effective_radius(1e-13 * (U.moment(0) + 1e-300))
    lo_c, hi_c = np.maximum(lo, -R)[:, None], np.minimum(hi, R)[:, None]
    kinks = np.array([0.0, *U.breakpoints(), *(-b for b in U.breakpoints())])
    cand = np.concatenate((lo_c, hi_c, np.broadcast_to(kinks, (len(lo), len(kinks))),
                           extra_edges), axis=1)
    # sorted distinct edges inside the clipped range, padded with inf; a
    # panel between equal or padded edges is dead and dropped here, before
    # it is expanded into nodes
    edges = np.sort(np.where((cand >= lo_c) & (cand <= hi_c), cand, np.inf), axis=1)
    a, b = edges[:, :-1], edges[:, 1:]
    live = (b > a) & np.isfinite(b)
    e = np.nonzero(live)[0]
    a, b = a[live], b[live]
    # np.linspace(a, b, n + 1) of each segment, as one array
    n_sub = np.maximum(1, np.ceil((b - a) / (max_cycles / np.maximum(dens[e], 1e-12))))
    n_sub = n_sub.astype(np.int64)
    seg = np.repeat(np.arange(len(a)), n_sub)
    k = np.arange(len(seg)) - np.repeat(np.cumsum(n_sub) - n_sub, n_sub)
    step = ((b - a) / n_sub)[seg]
    left = k * step + a[seg]
    right = np.where(k + 1 == n_sub[seg], b[seg], (k + 1) * step + a[seg])
    return e[seg], left, right


def _u_nodes(U, ellA, ellB, offset, e, a, b):
    """Nodes of the u-panel rule on the panels (e, a, b) (see _u_panels),
    for x on [0, ellA_e], y on [0, ellB_e] and u = x - y - offset_e.

    Returns (e, u, c, x_lo, x_hi) for the nodes that contribute: weight
    c = U(u) w_u non-zero and a non-empty x-interval [x_lo, x_hi] on which
    both pieces overlap at that u.
    """
    x, w = _leggauss(_NODES_PER_PANEL)
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    u = (half[:, None] * x + mid[:, None]).ravel()
    c = np.asarray(U(u), dtype=np.float64) * (half[:, None] * w).ravel()
    e = np.repeat(e, _NODES_PER_PANEL)
    x_lo = np.maximum(0.0, u + offset[e])
    x_hi = np.minimum(ellA[e], u + offset[e] + ellB[e])
    # a boolean mask compacts stably: each entry's live nodes stay
    # contiguous and in order, as frequency_table's padded layout needs
    keep = (c != 0.0) & (x_hi > x_lo)
    return e[keep], u[keep], c[keep], x_lo[keep], x_hi[keep]


# Gauss-Legendre order of every u-panel
_NODES_PER_PANEL = 32
# u-nodes per matrix product in frequency_table: bounds each (2 mA + 1) x
# 2 _NODE_CHUNK trigonometric table (16 MB at mA = 1000)
_NODE_CHUNK = 512
# cells of each stacked intermediate: the (entry, table row, node) cells of
# a batch chunk's brackets, the (entry, node) cells of a block of the
# small-w fallback, and the (entry, m, n) cells of the tables that
# cross_density_integral builds per call
_CHUNK_CELLS = 1 << 16


def frequency_table(U, ellA, mA, ellB, mB, offset, *, rows=None, cols=None):
    """Accumulate J[m, n], 0 <= m <= 2 mA, 0 <= n <= 2 mB (see module doc).

    rows and cols, sorted frequency indices (all of them by default),
    restrict the table to J[rows][:, cols]; its entries are those of the
    full table, from the u-nodes of mA and mB.

    ellA, ellB and offset may be arrays of one shape (B,): the tables of the
    B piece pairs are then built in one pass and returned as a B x len(rows)
    x len(cols) stack.
    """
    scalar = np.ndim(ellA) == np.ndim(ellB) == np.ndim(offset) == 0
    ellA, ellB, offset = (np.atleast_1d(np.asarray(v, dtype=np.float64))
                          for v in np.broadcast_arrays(ellA, ellB, offset))
    rows = np.arange(2 * mA + 1) if rows is None else np.asarray(rows)
    cols = np.arange(2 * mB + 1) if cols is None else np.asarray(cols)
    alpha = (np.pi / ellA)[:, None] * rows
    beta = (np.pi / ellB)[:, None] * cols
    J = np.zeros((len(ellA), alpha.shape[1], beta.shape[1]))
    e, a, b = _u_panels(U, -offset - ellB, ellA - offset,
                        np.stack((-offset, ellA - ellB - offset), axis=1),
                        mA / ellA + mB / ellB)
    if len(e):
        # entries per chunk, each counted with the most nodes any entry can
        # have, up to the _NODE_CHUNK nodes of one product
        nodes = min(_NODES_PER_PANEL * np.bincount(e).max(), _NODE_CHUNK)
        step = max(1, _CHUNK_CELLS // (2 * nodes * max(alpha.shape[1], beta.shape[1])))
        ends = np.searchsorted(e, np.arange(0, len(ellA) + step, step))
        for lo, hi in zip(ends[:-1], ends[1:]):
            if lo == hi:
                continue
            entries, layout = _padded_nodes(
                *_u_nodes(U, ellA, ellB, offset, e[lo:hi], a[lo:hi], b[lo:hi]), offset)
            # an entry without live nodes (beyond U's range, or U zero
            # there) keeps its zero table
            if len(entries):
                J[entries] = _stacked_table(alpha[entries], beta[entries], *layout)
    return J[0] if scalar else J


def _padded_nodes(e, u, c, x_lo, x_hi, offset):
    """The entries that have live nodes, and their nodes (c, s = u + offset,
    x_lo, x_hi) in a zero-padded layout: row k holds the nodes of the k-th
    such entry in their order, and padding cells carry weight 0.  The nodes
    must come grouped by entry, as _u_nodes leaves them."""
    entries, first, count = np.unique(e, return_index=True, return_counts=True)
    row = np.repeat(np.arange(len(entries)), count)
    col = np.arange(len(e)) - np.repeat(first, count)
    layout = np.zeros((4, len(entries), count.max(initial=0)))
    layout[:, row, col] = c, u + offset[e], x_lo, x_hi
    return entries, layout


def _stacked_table(alpha, beta, c, s, x_lo, x_hi):
    """The tables of a batch chunk from its nodes in the padded layout."""
    # P = sum_u c_u [sin(a x) cos(b y)], Q = sum_u c_u [cos(a x) sin(b y)],
    # brackets taken between x_lo and x_hi, with y = x - s_u
    P = np.zeros((len(alpha), alpha.shape[1], beta.shape[1]))
    Q = np.zeros_like(P)
    for k in range(0, c.shape[1], _NODE_CHUNK):
        part = np.s_[:, k:k + _NODE_CHUNK]
        x = np.concatenate((x_hi[part], x_lo[part]), axis=1)
        y = x - np.concatenate((s[part], s[part]), axis=1)
        cy = np.concatenate((c[part], -c[part]), axis=1)[:, :, None]
        ax = alpha[:, :, None] * x[:, None, :]
        by = y[:, :, None] * beta[:, None, :]
        P += np.sin(ax) @ (cy * np.cos(by))
        Q += np.cos(ax) @ (cy * np.sin(by))
    xm, h = 0.5 * (x_hi + x_lo), 0.5 * (x_hi - x_lo)
    width = np.max(x_hi - x_lo, axis=1)[:, None, None]
    J = np.zeros_like(P)
    for sign in (1.0, -1.0):
        omega = alpha[:, :, None] + sign * beta[:, None, :]
        small = np.abs(omega) * width < 1.0
        T = (P + sign * Q) / np.where(small, 1.0, omega)
        e, i, j = np.nonzero(small)
        T[e, i, j] = _sinc_sums(c, s, xm, h, e, omega[e, i, j], sign * beta[e, j])
        J += 0.5 * T
    return J


def _sinc_sums(c, s, xm, h, e, omega, b):
    """sum_u c_u int cos(omega x - b s_u) dx over [xm_u - h_u, xm_u + h_u]
    for the entry arrays omega and b over the nodes of batch entries e, in
    the division-free form 2 h cos(omega xm - b s) sinc(omega h / pi)."""
    out = np.empty(len(omega))
    step = max(1, _CHUNK_CELLS // c.shape[1])
    ch = 2.0 * c * h
    for k in range(0, len(omega), step):
        ek = e[k:k + step]
        w, bk = omega[k:k + step, None], b[k:k + step, None]
        terms = np.cos(w * xm[ek] - bk * s[ek]) * np.sinc(w * h[ek] / np.pi)
        # the entries come sorted by batch entry; a block inside one entry
        # (every block of a scalar call) sums as one matrix-vector product
        out[k:k + step] = (terms @ ch[ek[0]] if ek[0] == ek[-1]
                           else np.einsum("kn,kn->k", terms, ch[ek]))
    return out


def _fold(J):
    """The folded table E[p + R, q + C] = J[|p|, |q|] of a table J of shape
    (R + 1) x (C + 1)."""
    E = np.concatenate((J[:0:-1], J))
    return np.concatenate((E[:, :0:-1], E), axis=1)


def _view(E, origin, steps, shape):
    """Read-only view v of E with v[t] = E[origin + sum_k t_k steps[k]],
    origin and each step a (row, column) offset.  Raises IndexError, before
    the view is made, if a corner of the view falls outside E."""
    corners = [origin]
    for n, (dr, dc) in zip(shape, steps):
        corners += [(r + (n - 1) * dr, c + (n - 1) * dc) for r, c in corners]
    if not all(0 <= r < E.shape[0] and 0 <= c < E.shape[1] for r, c in corners):
        raise IndexError(f"strided view {origin} + {steps} x {shape} leaves "
                         f"the folded table of shape {E.shape}")
    strides = tuple(dr * E.strides[0] + dc * E.strides[1] for dr, dc in steps)
    return as_strided(E[origin[0], origin[1]:], shape, strides, writeable=False)


def _g_tensor(J, scale):
    """g[a,b,c,d], a, b < mA and c, d < mB, from the (2 mA + 1) x (2 mB + 1)
    table J of the two pieces and scale = ellA ellB: with i = a + 1, ... the term
    J[|i -/+ j|, |k -/+ l|] is a 4-D view of the folded table with strides
    (e0, -/+e0, e1, -/+e1)."""
    E = _fold(J)
    R, C = J.shape[0] - 1, J.shape[1] - 1
    g = np.zeros((R // 2, R // 2, C // 2, C // 2))
    for s, t in itertools.product((-1, 1), repeat=2):
        term = _view(E, (R + 1 + s, C + 1 + t), ((1, 0), (s, 0), (0, 1), (0, t)), g.shape)
        if s == t:
            g += term
        else:
            g -= term
    g /= scale
    return g


def interaction_g_tensor(U, ell, m):
    """g[a,b,c,d] = int int U(x-y) s_a(x)s_b(x) s_c(y)s_d(y) on [0,ell]^2.

    Indices are 0-based (mode k = index + 1).  Symmetric under a<->b, c<->d
    and (a,b)<->(c,d).
    """
    return _g_tensor(frequency_table(U, ell, m, ell, m, 0.0), ell * ell)


def cross_g_tensor(U, ellA, mA, ellB, mB, gap):
    """Same integral with x on a piece [0, ellA] and y on a piece of length
    ellB lying 'gap' to the RIGHT of A."""
    return _g_tensor(frequency_table(U, ellA, mA, ellB, mB, ellA + gap), ellA * ellB)


def pair_reduced_matrix(U, ell, pairs):
    """Interaction matrix over antisymmetric pair states phi_(i,j).

    pairs: list of (i, j), 1 <= i < j, in any order.  Entry [(ij),(kl)]
    equals <U(x-y) phi_ij, phi_kl> = g[i,k,j,l] - g[i,l,j,k].  The pairs
    are grouped by d = j - i; for two groups d <= d' the block over their
    bounding i and k ranges is the signed sum of eight strided views of the
    folded self table (see module doc), from which the groups' own rows and
    columns are taken.  The block is written to V[d, d'] and its transpose
    to V[d', d].
    """
    i, j = np.array(pairs).T
    m = int(j.max())
    E = _fold(frequency_table(U, ell, m, ell, m, 0.0))
    R = 2 * m
    # each group: its offset d, its positions in pairs ordered by i, the
    # first i, and the rows of its pairs within the bounding i range (a
    # slice when they fill it)
    groups = []
    for d in np.unique(j - i):
        pos = np.flatnonzero(j - i == d)
        pos = pos[np.argsort(i[pos], kind="stable")]
        r = i[pos] - i[pos[0]]
        groups.append((int(d), pos, int(i[pos[0]]), int(r[-1]) + 1,
                       np.s_[:] if np.array_equal(r, np.arange(len(r))) else r))
    V = np.empty((len(pairs), len(pairs)))
    for g, (d1, pos1, i1, n1, r1) in enumerate(groups):
        for d2, pos2, k1, n2, r2 in groups[g:]:
            shape = (n1, n2)
            block = np.zeros(shape)
            # V[(i, j), (k, l)] * ell^2, j = i + d1, l = k + d2, is the sum
            # over s, t = -1, 1 of s t (J[|i + s k|, |j + t l|] (direct)
            # - J[|i + s l|, |j + t k|] (exchange)); each term steps by
            # (1, 1) in E per row i and by (s, t) per column k
            for s, t in itertools.product((-1, 1), repeat=2):
                steps = ((1, 1), (s, t))
                direct = _view(E, (R + i1 + s * k1, R + i1 + d1 + t * (k1 + d2)),
                               steps, shape)
                exchange = _view(E, (R + i1 + s * (k1 + d2), R + i1 + d1 + t * k1),
                                 steps, shape)
                if s != t:
                    direct, exchange = exchange, direct
                block += direct
                block -= exchange
            block = block[r1][:, r2]
            # np.put with flat indices: a setitem with np.ix_ indices is
            # several times slower
            np.put(V, pos1[:, None] * len(pairs) + pos2, block)
            if d2 != d1:
                np.put(V, pos2[:, None] * len(pairs) + pos1, block.T)
    V /= ell * ell
    return V


def cross_density_integral(U, G_a, ell_a, G_b, ell_b, gap):
    """int int U(x - y) rho_a(x) rho_b(y) for the densities of two pieces at
    distance gap (piece b to the right of piece a).

    G_a, G_b are the pieces' 1-RDMs over their Dirichlet modes (m x m
    matrices), so that on a piece of length ell

        rho(x) = sum_ab G_ab s_a(x) s_b(x)
               = (1/ell) sum_ab G_ab [cos((a-b) pi x/ell) - cos((a+b) pi x/ell)]
               = (1/ell) sum_n c_n cos(n pi x/ell),  0 <= n <= 2m,

    or directly the density's cosine coefficients c (cosine_coefficients).
    The integral is then c_a^T J c_b / (ell_a ell_b), J the frequency table
    of the two pieces.

    With arrays ell_a, ell_b, gap of shape (B,), the densities are stacks
    (B x m x m 1-RDMs or B x (2m + 1) coefficients) and the B integrals are
    returned as an array, from stacked tables.
    """
    batch = np.ndim(ell_a) + np.ndim(ell_b) + np.ndim(gap) > 0
    c_a, c_b = (cosine_coefficients(G) if np.ndim(G) == batch + 2
                else np.asarray(G, dtype=np.float64) for G in (G_a, G_b))
    ell_a, ell_b, gap = (np.atleast_1d(v).astype(np.float64)
                         for v in np.broadcast_arrays(ell_a, ell_b, gap))
    c_a, c_b = c_a.reshape(len(ell_a), -1), c_b.reshape(len(ell_a), -1)
    mA, mB = c_a.shape[1] // 2, c_b.shape[1] // 2
    # the tables hold only the frequencies at which some density of the
    # batch has a non-zero coefficient
    rows, cols = (np.flatnonzero(np.any(c != 0.0, axis=0)) for c in (c_a, c_b))
    c_a, c_b = c_a[:, rows], c_b[:, cols]
    out = np.zeros(len(ell_a))
    # a zero density needs no table: its integrals are 0
    live = len(out) if len(rows) and len(cols) else 0
    # the tables of a slice of the batch stay within the cell budget
    step = max(1, _CHUNK_CELLS // max(len(rows) * len(cols), 1))
    for k in range(0, live, step):
        part = slice(k, k + step)
        J = frequency_table(U, ell_a[part], mA, ell_b[part], mB,
                            ell_a[part] + gap[part], rows=rows, cols=cols)
        out[part] = (np.einsum("km,kmn,kn->k", c_a[part], J, c_b[part])
                     / (ell_a[part] * ell_b[part]))
    return out if batch else float(out[0])


def cosine_coefficients(G):
    """c_n, 0 <= n <= 2m, of the density of the 1-RDM G (m x m, or a stack
    ... x m x m of them; see cross_density_integral)."""
    G = np.asarray(G, dtype=np.float64)
    m = G.shape[-1]
    a, b = np.indices((m, m))
    flat = G.reshape(-1, m * m)
    n = 2 * m + 1
    rows = n * np.arange(len(flat))[:, None]
    c = (np.bincount((rows + np.abs(a - b).ravel()).ravel(), flat.ravel(), n * len(flat))
         - np.bincount((rows + (a + b + 2).ravel()).ravel(), flat.ravel(), n * len(flat)))
    return c.reshape(G.shape[:-2] + (n,))
