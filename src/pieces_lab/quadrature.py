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

import numpy as np

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
# pair-matrix rows per gather in pair_reduced_matrix
_ROW_CHUNK = 512


def frequency_table(U, ellA, mA, ellB, mB, offset):
    """Accumulate J[m, n], 0 <= m <= 2 mA, 0 <= n <= 2 mB (see module doc).

    ellA, ellB and offset may be arrays of one shape (B,): the tables of the
    B piece pairs are then built in one pass and returned as a B x (2 mA + 1)
    x (2 mB + 1) stack.
    """
    scalar = np.ndim(ellA) == np.ndim(ellB) == np.ndim(offset) == 0
    ellA, ellB, offset = (np.atleast_1d(np.asarray(v, dtype=np.float64))
                          for v in np.broadcast_arrays(ellA, ellB, offset))
    alpha = (np.pi / ellA)[:, None] * np.arange(2 * mA + 1)
    beta = (np.pi / ellB)[:, None] * np.arange(2 * mB + 1)
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


def _gather_g(J, ellA, ellB, a, b, c, d):
    """g[a,b,c,d] from the frequency table (0-based mode indices)."""
    i, j = a + 1, b + 1
    k, l = c + 1, d + 1
    return (J[np.abs(i - j), np.abs(k - l)] - J[np.abs(i - j), k + l]
            - J[i + j, np.abs(k - l)] + J[i + j, k + l]) / (ellA * ellB)


def interaction_g_tensor(U, ell, m):
    """g[a,b,c,d] = int int U(x-y) s_a(x)s_b(x) s_c(y)s_d(y) on [0,ell]^2.

    Indices are 0-based (mode k = index + 1).  Symmetric under a<->b, c<->d
    and (a,b)<->(c,d).
    """
    J = frequency_table(U, ell, m, ell, m, 0.0)
    idx = np.arange(m)
    a, b, c, d = np.ix_(idx, idx, idx, idx)
    return _gather_g(J, ell, ell, a, b, c, d)


def cross_g_tensor(U, ellA, mA, ellB, mB, gap):
    """Same integral with x on a piece [0, ellA] and y on a piece of length
    ellB lying 'gap' to the RIGHT of A."""
    offset = ellA + gap
    J = frequency_table(U, ellA, mA, ellB, mB, offset)
    a, b = np.ix_(np.arange(mA), np.arange(mA))
    c, d = np.ix_(np.arange(mB), np.arange(mB))
    return _gather_g(J, ellA, ellB, a[:, :, None, None], b[:, :, None, None],
                     c[None, None, :, :], d[None, None, :, :])


def pair_reduced_matrix(U, ell, pairs):
    """Interaction matrix over antisymmetric pair states phi_(i,j).

    pairs: list of (i, j), 1 <= i < j.  Entry [(ij),(kl)] equals
    <U(x-y) phi_ij, phi_kl> = g[i,k,j,l] - g[i,l,j,k].  Rows are gathered
    from the frequency table in chunks to bound peak memory.
    """
    m = max(j for _, j in pairs)
    J = frequency_table(U, ell, m, ell, m, 0.0)
    i = np.array([p[0] - 1 for p in pairs])
    j = np.array([p[1] - 1 for p in pairs])
    n = len(pairs)
    V = np.empty((n, n))
    for lo in range(0, n, _ROW_CHUNK):
        hi = min(lo + _ROW_CHUNK, n)
        a, c = np.ix_(i[lo:hi], i)
        b, d = np.ix_(j[lo:hi], j)
        V[lo:hi] = (_gather_g(J, ell, ell, a, c, b, d)
                    - _gather_g(J, ell, ell, a, d, b, c))
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
    # the tables of a slice of the batch stay within the cell budget
    step = max(1, _CHUNK_CELLS // (c_a.shape[1] * c_b.shape[1]))
    out = np.empty(len(ell_a))
    for k in range(0, len(out), step):
        part = slice(k, k + step)
        J = frequency_table(U, ell_a[part], c_a.shape[1] // 2, ell_b[part],
                            c_b.shape[1] // 2, ell_a[part] + gap[part])
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
