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
entries.  Sharply supported potentials cost nothing extra.  No u-panel
spans more than _MAX_CYCLES = 6 cycles of the table's fastest oscillation,
width * (mA / lA + mB / lB) cycles for a panel of that width.  On a
potential that is constant between its breakpoints (the box;
InteractionPotential.constant_between_breakpoints), the integrand on a
panel is that oscillation alone, so each panel takes the smallest
Gauss-Legendre order in 8, 12, 16, 24, 32 whose cycle limit (0.25, 1, 2,
6 cycles) covers it: the order integrates exp(2 pi i c u) to round-off up
to its limit.  Every other potential takes 32 nodes on every panel.

A piece density is a cosine series in the same frequencies, so a
density-density integral between two pieces contracts their J with the two
densities' cosine coefficients (cross_density_integral;
cosine_coefficients computes them from a sine-basis 1-RDM): the table is
the one quadrature engine for every interaction integral.

The table can be built over subsets of its rows and columns: every entry
is a sum over the same u-nodes (those of the nominal mA and mB; the panel
orders depend on nothing else), so an entry of a subset table equals that
entry of the full table.  cross_density_integral builds only the
frequencies at which some density of its batch has a non-zero
coefficient (a pair state's density has none at odd n, nor beyond twice
the reach of its sub-basis), and takes its nominal mode counts from the
last of them: zeros padded past a density's end add no frequency and no
u-node, and leave the integral the same bit for bit.

Every J lookup of a g entry reads J[|p|, |q|] with p, q sums and
differences of mode numbers, so the table is folded once,

    E[p + R, q + C] = J[|p|, |q|],  |p| <= R = 2 mA,  |q| <= C = 2 mB,

and each of the four signed terms becomes an entry of E at an address
affine in the mode numbers.  The g tensors are then sums of four 4-D
strided views of E.  The pair matrix over the pairs (i, i + d) is built
block by block, one block per two offsets d <= d': over the bounding i and
k ranges of the two groups, its direct and exchange terms are eight 2-D
strided views of E.  With the pairs sorted by (d, i), each group is one
run of rows and one run of columns, so a block is written to the matrix,
and its transpose to the mirrored place, by slice assignment; only the
columns the caller selects are built.  Every view's corner addresses are
checked against E's shape before the view is made, so no view reads
outside E.

With y = x - s_u, cos(a x) cos(b y) = (cos(a x + b y) + cos(a x - b y)) / 2
and, for each sign sigma,

    int cos(a x + sigma b y) dx = [sin(a x) cos(b y)
                                   + sigma cos(a x) sin(b y)] / (a + sigma b)

between x_lo and x_hi.  At each end of the overlap one factor sits on a
piece edge: x_lo = max(0, s_u) is either x = 0, where sin(a x) = 0, or
y = 0, where sin(b y) = 0; x_hi = min(lA, s_u + lB) is either x = lA,
where cos(a x) = (-1)^m, or y = lB, where cos(b y) = (-1)^n.  Summed over
the u-nodes, the two bracket terms are therefore

    P[m, n] = A0[m] + (-1)^n A1[m],    Q[m, n] = B0[n] + (-1)^m B1[n],

with A0 = -sum c_u sin(a s_u) over the lower ends at y = 0, A1 = sum c_u
sin(a x_hi) over the upper ends at y = lB, B0 = sum c_u sin(b s_u) over the
lower ends at x = 0 and B1 = sum c_u sin(b (lA - s_u)) over the upper ends
at x = lA: one sine per node end and non-zero frequency (sin(0 x) = 0 is
not evaluated), and no product over the node axis.  Each end's kind is
read from the comparison that formed it (x_lo > 0, x_hi < lA), so the edge
factors are exact.  Then

    J[m, n] = (1/2) sum_sigma (P[m, n] + sigma Q[m, n]) / (a_m + sigma b_n)

elementwise.

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
division-free bound at the widest node.  At w = 0 exactly (every fallback
entry of a self table, and (0, 0) of every table) the form is
2 h cos(p): neither the phase w x_mid nor the sinc, exactly 1 there, is
computed.

The table has a leading batch axis: with arrays ellA, ellB and offset (mA
and mB shared) it returns one table per piece pair, built in one pass.
The u-panels of every entry come from array code (the same edges,
clipping, subdivision and Gauss-Legendre orders), each panel's nodes are
gathered from the rules of all orders laid end to end, and dead panels and
nodes are dropped by a stable compaction.  The sine sums run over the node
ends of all entries at once and are added up per entry; for the small-w
fallback each entry's live nodes fill one row of a zero-padded layout.
Entries are taken in chunks by falling node count, so the rows of a
chunk's layout are of nearly equal length.  A scalar call is a batch of
one.  Every stacked intermediate (a chunk's tables and padded nodes, a
block of a sine table, a block of the fallback, a slice of
cross_density_integral's tables) is bounded by _CHUNK_CELLS cells.
"""

import functools
import itertools

import numpy as np

__all__ = [
    "frequency_table",
    "interaction_g_tensor",
    "cross_g_tensor",
    "pair_reduced_matrix",
    "cross_density_integral",
    "cosine_coefficients",
]


_leggauss = functools.cache(np.polynomial.legendre.leggauss)


def _u_panels(U, lo, hi, extra_edges, dens):
    """u-panels covering [lo_e, hi_e] clipped to U's effective support, for
    each batch entry e, split at kinks of U and at the entry's extra edges
    (a B x k array) and subdivided so no panel spans more than _MAX_CYCLES
    oscillation cycles (density dens_e).

    Returns (e, a, b): the entry and the ends of every panel, entry by entry
    and in increasing u within an entry.
    """
    # int U du = 2 tail_integral(0) for an even U sets the scale of the tolerance
    R = U.effective_radius(1e-13 * (2.0 * U.tail_integral(0.0) + 1e-300))
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
    n_sub = np.maximum(1, np.ceil((b - a) / (_MAX_CYCLES / np.maximum(dens[e], 1e-12))))
    n_sub = n_sub.astype(np.int64)
    seg = np.repeat(np.arange(len(a)), n_sub)
    k = np.arange(len(seg)) - np.repeat(np.cumsum(n_sub) - n_sub, n_sub)
    step = ((b - a) / n_sub)[seg]
    left = k * step + a[seg]
    right = np.where(k + 1 == n_sub[seg], b[seg], (k + 1) * step + a[seg])
    return e[seg], left, right


def _panel_orders(U, cycles):
    """Gauss-Legendre order of each u-panel that spans the given oscillation
    cycles: on a U constant between its breakpoints the smallest of _ORDERS
    whose cycle limit covers the panel, else _ORDERS[-1] for every panel."""
    if not U.constant_between_breakpoints:
        return np.full(len(cycles), _ORDERS[-1])
    return _ORDERS[np.searchsorted(_ORDER_CYCLES, cycles)]


@functools.cache
def _rules():
    """The Gauss-Legendre rules of _ORDERS end to end, (x, w), and start,
    where start[n] is the index of the first node of the rule of order n."""
    x, w = (np.concatenate(r) for r in zip(*map(_leggauss, _ORDERS.tolist())))
    start = np.zeros(_ORDERS[-1] + 1, dtype=np.intp)
    start[_ORDERS] = np.cumsum(_ORDERS) - _ORDERS
    return x, w, start


def _u_nodes(U, ellA, ellB, offset, e, a, b, order):
    """Nodes of the u-panel rule on the panels (e, a, b) (see _u_panels),
    order[p] of them on panel p, for x on [0, ellA_e], y on [0, ellB_e] and
    u = x - y - offset_e.

    Returns (e, u, c, x_lo, x_hi) for the nodes that contribute: weight
    c = U(u) w_u non-zero and a non-empty x-interval [x_lo, x_hi] on which
    both pieces overlap at that u.
    """
    # node k of panel p is node k of the rule of order[p], gathered from the
    # rules end to end, as _u_panels builds its segments: each panel's nodes
    # stay contiguous and in order
    rule_x, rule_w, start = _rules()
    p = np.repeat(np.arange(len(a)), order)
    k = np.arange(len(p)) - np.repeat(np.cumsum(order) - order, order)
    node = start[order][p] + k
    x, w = rule_x[node], rule_w[node]
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    u = half[p] * x + mid[p]
    c = np.asarray(U(u), dtype=np.float64) * (half[p] * w)
    e = e[p]
    x_lo = np.maximum(0.0, u + offset[e])
    x_hi = np.minimum(ellA[e], u + offset[e] + ellB[e])
    # a boolean mask compacts stably: each entry's live nodes stay
    # contiguous and in order, as the per-entry sums of _stacked_table need
    keep = (c != 0.0) & (x_hi > x_lo)
    return e[keep], u[keep], c[keep], x_lo[keep], x_hi[keep]


# Gauss-Legendre orders of a u-panel, and the most oscillation cycles each
# but the last integrates to round-off: the error of the rule for
# exp(2 pi i c x) on a unit panel at c = 0.25, 1, 2 and 6 is 1.6e-16,
# 3.6e-16, 4.6e-16 and 6.8e-16, and 32 nodes stay within 6e-16 up to 9
# cycles.  No panel spans more than _MAX_CYCLES cycles
_ORDERS = np.array([8, 12, 16, 24, 32])
_ORDER_CYCLES = np.array([0.25, 1.0, 2.0, 6.0])
_MAX_CYCLES = 6.0
# cells of each stacked intermediate: the (entry, m, n) cells and the
# padded (entry, node) layout of a batch chunk, the (end, frequency) cells
# of a block of a sine table, the (entry, node) cells of a block of the
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
    dens = mA / ellA + mB / ellB
    e, a, b = _u_panels(U, -offset - ellB, ellA - offset,
                        np.stack((-offset, ellA - ellB - offset), axis=1), dens)
    order = _panel_orders(U, (b - a) * dens[e])
    # the panels by falling node count of their entry: a stable sort keeps
    # each entry's panels together and in order.  An entry without panels
    # keeps its zero table
    nodes = np.bincount(e, order, minlength=len(ellA)).astype(np.int64)
    by_count = np.argsort(-nodes[e], kind="stable")
    e, a, b, order = e[by_count], a[by_count], b[by_count], order[by_count]
    # the first panel of each entry, then the end
    starts = np.append(_runs(e)[0], len(e))
    k = 0
    while k < len(starts) - 1:
        # a chunk of entries holds at most _CHUNK_CELLS cells of tables and
        # of padded nodes; its first entry has the most nodes, so its
        # padded nodes are nearly all live
        n = max(1, _CHUNK_CELLS // max(J.shape[1] * J.shape[2], nodes[e[starts[k]]]))
        part = slice(starts[k], starts[min(k + n, len(starts) - 1)])
        e_u, u, c, x_lo, x_hi = _u_nodes(U, ellA, ellB, offset, e[part], a[part], b[part],
                                         order[part])
        # the entries that have live nodes (an entry without them, U zero
        # there, keeps its zero table)
        first, k_u = _runs(e_u)
        if len(first):
            entries = e_u[first]
            J[entries] = _stacked_table(alpha[entries], beta[entries], rows, cols,
                                        ellA[entries], first, k_u, c, u + offset[e_u],
                                        x_lo, x_hi)
        k += n
    return J[0] if scalar else J


def _runs(e):
    """The index of the first element of each run of equal values in e, and
    the run of every element."""
    new = np.empty(len(e), dtype=bool)
    new[:1] = True
    np.not_equal(e[1:], e[:-1], out=new[1:])
    return np.flatnonzero(new), np.cumsum(new) - 1


def _stacked_table(alpha, beta, rows, cols, ellA, first, e, c, s, x_lo, x_hi):
    """The tables of a batch chunk from its nodes, grouped by entry as
    _u_nodes leaves them: e is the chunk entry of each node, and the nodes
    of entry k start at first[k]."""
    # the bracket sums P and Q from one sine per node end (see module doc):
    # a lower end x_lo > 0 is at y = 0, else at x = 0; an upper end
    # x_hi < ellA is at y = ellB, else at x = ellA
    at_s = x_lo > 0.0
    at_y = x_hi < ellA[e]
    A0 = _sine_sums(alpha, e[at_s], x_lo[at_s], -c[at_s])
    A1 = _sine_sums(alpha, e[at_y], x_hi[at_y], c[at_y])
    B0 = _sine_sums(beta, e[~at_s], s[~at_s], c[~at_s])
    B1 = _sine_sums(beta, e[~at_y], x_hi[~at_y] - s[~at_y], c[~at_y])
    P = A0[:, :, None] + A1[:, :, None] * (1 - 2 * (cols % 2))
    Q = B0[:, None, :] + B1[:, None, :] * (1 - 2 * (rows % 2))[:, None]
    # the nodes in a zero-padded layout for the small-w fallback: row k
    # holds the nodes of entry k in their order, padding cells weight 0
    col = np.arange(len(e)) - first[e]
    layout = np.zeros((4, len(first), col.max() + 1))
    layout[:, e, col] = c, s, 0.5 * (x_hi + x_lo), 0.5 * (x_hi - x_lo)
    width = np.maximum.reduceat(x_hi - x_lo, first)[:, None, None]
    J = np.zeros_like(P)
    for sign, T in ((1.0, P + Q), (-1.0, P - Q)):
        omega = alpha[:, :, None] + sign * beta[:, None, :]
        k, i, j = np.nonzero(np.abs(omega) * width < 1.0)
        small = _sinc_sums(*layout, k, omega[k, i, j], sign * beta[k, j])
        omega[k, i, j] = 1.0
        T /= omega
        T[k, i, j] = small
        J += T
    J *= 0.5
    return J


def _sine_sums(freq, e, x, w):
    """S[k, f] = sum of w sin(freq[k, f] x) over the node ends (e, x, w) of
    chunk entry k, the ends grouped by entry."""
    S = np.zeros(freq.shape)
    step = max(1, _CHUNK_CELLS // max(freq.shape[1], 1))
    # sin(0 x) = 0: a zero first frequency (rows or cols from 0) keeps a
    # zero column of sines, and only the others are evaluated.  The products
    # still run over every column, so each sum adds in the same order
    skip = int(freq.shape[1] > 0 and not freq[:, 0].any())
    for lo in range(0, len(e), step):
        ek, xk, wk = e[lo:lo + step], x[lo:lo + step], w[lo:lo + step]
        sines = np.zeros((len(ek), freq.shape[1]))
        live = sines[:, skip:]
        # a block inside one entry (every block of a scalar call) sums as
        # one vector-matrix product
        one = ek[0] == ek[-1]
        np.multiply(xk[:, None], freq[ek[0], skip:] if one else freq[ek, skip:], out=live)
        np.sin(live, out=live)
        if one:
            S[ek[0]] += wk @ sines
        else:
            first = _runs(ek)[0]
            S[ek[first]] += np.add.reduceat(wk[:, None] * sines, first)
    return S


def _sinc_sums(c, s, xm, h, e, omega, b):
    """sum_u c_u int cos(omega x - b s_u) dx over [xm_u - h_u, xm_u + h_u]
    for the entry arrays omega and b over the nodes of batch entries e, in
    the division-free form 2 h cos(omega xm - b s) sinc(omega h / pi)."""
    out = np.empty(len(omega))
    step = max(1, _CHUNK_CELLS // c.shape[1])
    ch = 2.0 * c * h
    for k in range(0, len(omega), step):
        ek = e[k:k + step]
        w = omega[k:k + step, None]
        phase = -b[k:k + step, None] * s[ek]
        # an entry at omega = 0 exactly (the m = n differences of a self
        # table, and (0, 0) of every table) is cos(-b s): its phase omega xm
        # is 0 and its sinc exactly 1, so neither is computed
        live = np.flatnonzero(w)
        el, wl = ek[live], w[live]
        phase[live] += wl * xm[el]
        terms = np.cos(phase)
        if len(live):
            terms[live] *= np.sinc(wl * h[el] / np.pi)
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
    """Read-only view v of the C-contiguous E with v[t] = E[origin + sum_k
    t_k steps[k]], origin and each step a (row, column) offset.  Raises
    IndexError, before the view is made, if a corner of the view falls
    outside E."""
    (r, c), (sr, sc) = origin, E.strides
    # the least and greatest row and column over the corners
    r_lo = r_hi = r
    c_lo = c_hi = c
    for n, (dr, dc) in zip(shape, steps):
        dr, dc = (n - 1) * dr, (n - 1) * dc
        r_lo, r_hi = (r_lo + dr, r_hi) if dr < 0 else (r_lo, r_hi + dr)
        c_lo, c_hi = (c_lo + dc, c_hi) if dc < 0 else (c_lo, c_hi + dc)
    if r_lo < 0 or c_lo < 0 or r_hi >= E.shape[0] or c_hi >= E.shape[1]:
        raise IndexError(f"strided view {origin} + {steps} x {shape} leaves "
                         f"the folded table of shape {E.shape}")
    v = np.ndarray(shape, E.dtype, E, r * sr + c * sc, [dr * sr + dc * sc for dr, dc in steps])
    v.flags.writeable = False
    return v


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


def pair_reduced_matrix(U, ell, pairs, cols=None):
    """Interaction matrix over antisymmetric pair states phi_(i,j), or the
    columns of it that cols selects.

    pairs: list (or n x 2 array) of (i, j), 1 <= i < j, in any order.
    Entry [(ij),(kl)] equals <U(x-y) phi_ij, phi_kl> = g[i,k,j,l] -
    g[i,l,j,k].  cols, a boolean mask over pairs (all of them by default),
    selects the columns: the result is V[:, cols], its rows and its columns
    in the order of pairs.

    The pairs are sorted stably by (d, i), d = j - i, so that each offset
    group is one run of rows and one run of the selected columns.  For two
    groups d <= d' the block over their bounding i and k ranges is the
    signed sum of eight strided views of the folded self table (see module
    doc).  The block's rows of group d at the selected columns of group d'
    fill V[d, d'], and its selected rows of group d at the rows of group d'
    fill V[d', d], transposed: each by one slice assignment.  The result is
    permuted back to the order of pairs unless they came in (d, i) order.
    """
    i, j = np.array(pairs).T
    n = len(i)
    cols = np.ones(n, dtype=bool) if cols is None else np.asarray(cols)
    if cols.dtype != bool or cols.shape != (n,):
        raise ValueError(f"cols must be a boolean mask over the {n} pairs")
    order = np.lexsort((i, j - i))
    i, j, picked = i[order], j[order], cols[order]
    m = int(j.max())
    E = _fold(frequency_table(U, ell, m, ell, m, 0.0))
    R = 2 * m
    # each group: its offset d, its run of rows and its run of columns of V,
    # the first i, and, within the bounding i range, its extent and the
    # positions of its pairs and of its selected pairs (slices when they
    # are runs)
    starts = np.append(_runs(j - i)[0], n)
    before = np.concatenate(([0], np.cumsum(picked)))
    groups = []
    for a, b in zip(starts[:-1], starts[1:]):
        r = i[a:b] - i[a]
        groups.append((int(j[a] - i[a]), slice(a, b), slice(before[a], before[b]),
                       int(i[a]), int(r[-1]) + 1, _run_or_index(r),
                       _run_or_index(r[picked[a:b]])))
    V = np.empty((n, before[-1]))
    for g, (d1, rows1, cols1, i1, n1, r1, c1) in enumerate(groups):
        for d2, rows2, cols2, k1, n2, r2, c2 in groups[g:]:
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
            V[rows1, cols2] = block[r1][:, c2]
            if d2 != d1:
                V[rows2, cols1] = block[c1][:, r2].T
    V /= ell * ell
    if np.array_equal(order, np.arange(n)):
        return V
    # row p of the caller is sorted row at[p]; a selected one's column is
    # the count of selected pairs before it in sorted order
    at = np.empty(n, dtype=np.intp)
    at[order] = np.arange(n)
    return V[np.ix_(at, before[at[cols]])]


def _run_or_index(r):
    """The sorted integers r as a slice when they are a run, else r itself."""
    lo = int(r[0]) if len(r) else 0
    return slice(lo, lo + len(r)) if np.array_equal(r, np.arange(lo, lo + len(r))) else r


def cross_density_integral(U, c_a, ell_a, c_b, ell_b, gap):
    """int int U(x - y) rho_a(x) rho_b(y) for the densities of two pieces at
    distance gap (piece b to the right of piece a).

    c_a, c_b are the densities' cosine coefficients (cosine_coefficients),
    rho(x) = (1/ell) sum_n c_n cos(n pi x/ell) on a piece of length ell,
    each of odd length 2m + 1.  The integral is then c_a^T J c_b /
    (ell_a ell_b), J the frequency table of the two pieces.

    With arrays ell_a, ell_b, gap of shape (B,), c_a and c_b are B x (2m + 1)
    stacks and the B integrals are returned as an array, from stacked
    tables.
    """
    batch = np.ndim(ell_a) + np.ndim(ell_b) + np.ndim(gap) > 0
    ell_a, ell_b, gap = (np.atleast_1d(v).astype(np.float64)
                         for v in np.broadcast_arrays(ell_a, ell_b, gap))
    c_a, c_b = (np.asarray(c, dtype=np.float64).reshape(len(ell_a), -1)
                for c in (c_a, c_b))
    # the tables hold only the frequencies at which some density of the
    # batch has a non-zero coefficient, on the u-nodes of the mode counts
    # that the last of them needs: zero padding adds neither
    rows, cols = (np.flatnonzero(np.any(c != 0.0, axis=0)) for c in (c_a, c_b))
    c_a, c_b = c_a[:, rows], c_b[:, cols]
    out = np.zeros(len(ell_a))
    # a zero density needs no table: its integrals are 0
    live = len(out) if len(rows) and len(cols) else 0
    mA, mB = ((int(f[-1]) + 1) // 2 if len(f) else 0 for f in (rows, cols))
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
    """c_n, 0 <= n <= 2m, of the density of the 1-RDM G over a piece's
    Dirichlet modes (m x m, or a stack ... x m x m of them).

    On a piece of length ell, s_a(x) s_b(x) = (1/ell) [cos((a-b) pi x/ell)
    - cos((a+b) pi x/ell)] for the modes a, b = 1..m, so

        rho(x) = sum_ab G_ab s_a(x) s_b(x) = (1/ell) sum_n c_n cos(n pi x/ell)

    with c_n the sum of G_ab over |a - b| = n less the sum over a + b = n.
    """
    G = np.asarray(G, dtype=np.float64)
    m = G.shape[-1]
    a, b = np.indices((m, m))
    flat = G.reshape(-1, m * m)
    n = 2 * m + 1
    rows = n * np.arange(len(flat))[:, None]
    c = (np.bincount((rows + np.abs(a - b).ravel()).ravel(), flat.ravel(), n * len(flat))
         - np.bincount((rows + (a + b + 2).ravel()).ravel(), flat.ravel(), n * len(flat)))
    return c.reshape(G.shape[:-2] + (n,))
