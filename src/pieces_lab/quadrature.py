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
"""

import numpy as np

__all__ = [
    "sine_modes",
    "frequency_table",
    "interaction_g_tensor",
    "cross_g_tensor",
    "pair_reduced_matrix",
    "cross_density_integral",
]


_leggauss_cache = {}


def _gl(a, b, n):
    if n not in _leggauss_cache:
        _leggauss_cache[n] = np.polynomial.legendre.leggauss(n)
    x, w = _leggauss_cache[n]
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def sine_modes(m, ell, x):
    """Normalized Dirichlet modes sqrt(2/l) sin(pi k x / l), k = 1..m.

    Returns an (m, len(x)) array.
    """
    x = np.asarray(x, dtype=np.float64)
    k = np.arange(1, m + 1)[:, None]
    return np.sqrt(2.0 / ell) * np.sin(np.pi * k * x[None, :] / ell)


def _u_panels(U, lo, hi, extra_edges=(), max_cycles=6.0, dens=1.0):
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
    R = U.effective_radius(1e-13 * (U.moment(0) + 1e-300))
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


def _u_nodes(U, ellA, ellB, offset, dens, n_nodes):
    """Nodes of the u-panel rule for x on [0, ellA], y on [0, ellB] and
    u = x - y - offset.

    Returns (u, c, x_lo, x_hi) for the nodes that contribute: weight
    c = U(u) w_u non-zero and a non-empty x-interval [x_lo, x_hi] on which
    both pieces overlap at that u.  n_nodes is the Gauss-Legendre order of
    every panel.
    """
    panels = _u_panels(U, -offset - ellB, ellA - offset,
                       extra_edges=(-offset, ellA - ellB - offset),
                       dens=dens)
    if not panels:
        return (np.empty(0),) * 4
    rules = [_gl(a, b, n_nodes) for a, b in panels]
    u = np.concatenate([r[0] for r in rules])
    c = np.asarray(U(u), dtype=np.float64) * np.concatenate([r[1] for r in rules])
    x_lo = np.maximum(0.0, u + offset)
    x_hi = np.minimum(ellA, u + offset + ellB)
    keep = (c != 0.0) & (x_hi > x_lo)
    return u[keep], c[keep], x_lo[keep], x_hi[keep]


# u-nodes per matrix product in frequency_table: bounds each (2 mA + 1) x
# 2 _NODE_CHUNK trigonometric table (16 MB at mA = 1000)
_NODE_CHUNK = 512
# (entry, node) cells per block of the small-w fallback
_FALLBACK_CELLS = 1 << 21


def _sinc_sums(c, s, xm, h, omega, b):
    """sum_u c_u int cos(omega x - b s_u) dx over [xm_u - h_u, xm_u + h_u],
    for the entry arrays omega and b, in the division-free form
    2 h cos(omega xm - b s) sinc(omega h / pi)."""
    out = np.empty(len(omega))
    step = max(1, _FALLBACK_CELLS // len(c))
    ch = 2.0 * c * h
    for k in range(0, len(omega), step):
        w, bk = omega[k:k + step, None], b[k:k + step, None]
        out[k:k + step] = (np.cos(w * xm - bk * s) * np.sinc(w * h / np.pi)) @ ch
    return out


def frequency_table(U, ellA, mA, ellB, mB, offset, nodes_per_panel=32):
    """Accumulate J[m, n], 0 <= m <= 2 mA, 0 <= n <= 2 mB (see module doc)."""
    u, c, x_lo, x_hi = _u_nodes(U, ellA, ellB, offset,
                                mA / ellA + mB / ellB, nodes_per_panel)
    alpha = (np.pi / ellA) * np.arange(2 * mA + 1)
    beta = (np.pi / ellB) * np.arange(2 * mB + 1)
    if len(u) == 0:
        return np.zeros((len(alpha), len(beta)))
    s = u + offset
    # P = sum_u c_u [sin(a x) cos(b y)], Q = sum_u c_u [cos(a x) sin(b y)],
    # brackets taken between x_lo and x_hi, with y = x - s_u
    P = np.zeros((len(alpha), len(beta)))
    Q = np.zeros_like(P)
    for k in range(0, len(u), _NODE_CHUNK):
        part = slice(k, k + _NODE_CHUNK)
        x = np.concatenate((x_hi[part], x_lo[part]))
        y = x - np.concatenate((s[part], s[part]))
        cy = np.concatenate((c[part], -c[part]))[:, None]
        ax = np.outer(alpha, x)
        by = np.outer(y, beta)
        P += np.sin(ax) @ (cy * np.cos(by))
        Q += np.cos(ax) @ (cy * np.sin(by))
    xm, h = 0.5 * (x_hi + x_lo), 0.5 * (x_hi - x_lo)
    width = np.max(x_hi - x_lo)
    J = np.zeros_like(P)
    for sign in (1.0, -1.0):
        omega = alpha[:, None] + sign * beta[None, :]
        small = np.abs(omega) * width < 1.0
        T = (P + sign * Q) / np.where(small, 1.0, omega)
        i, j = np.nonzero(small)
        T[i, j] = _sinc_sums(c, s, xm, h, omega[i, j], sign * beta[j])
        J += 0.5 * T
    return J


def _gather_g(J, ellA, ellB, a, b, c, d):
    """g[a,b,c,d] from the frequency table (0-based mode indices)."""
    i, j = a + 1, b + 1
    k, l = c + 1, d + 1
    return (J[np.abs(i - j), np.abs(k - l)] - J[np.abs(i - j), k + l]
            - J[i + j, np.abs(k - l)] + J[i + j, k + l]) / (ellA * ellB)


def interaction_g_tensor(U, ell, m, **kw):
    """g[a,b,c,d] = int int U(x-y) s_a(x)s_b(x) s_c(y)s_d(y) on [0,ell]^2.

    Indices are 0-based (mode k = index + 1).  Symmetric under a<->b, c<->d
    and (a,b)<->(c,d).
    """
    J = frequency_table(U, ell, m, ell, m, 0.0, **kw)
    idx = np.arange(m)
    a, b, c, d = np.ix_(idx, idx, idx, idx)
    return _gather_g(J, ell, ell, a, b, c, d)


def cross_g_tensor(U, ellA, mA, ellB, mB, gap, **kw):
    """Same integral with x on a piece [0, ellA] and y on a piece of length
    ellB lying 'gap' to the RIGHT of A."""
    offset = ellA + gap
    J = frequency_table(U, ellA, mA, ellB, mB, offset, **kw)
    a, b = np.ix_(np.arange(mA), np.arange(mA))
    c, d = np.ix_(np.arange(mB), np.arange(mB))
    return _gather_g(J, ellA, ellB, a[:, :, None, None], b[:, :, None, None],
                     c[None, None, :, :], d[None, None, :, :])


def pair_reduced_matrix(U, ell, pairs, row_chunk=512, **kw):
    """Interaction matrix over antisymmetric pair states phi_(i,j).

    pairs: list of (i, j), 1 <= i < j.  Entry [(ij),(kl)] equals
    <U(x-y) phi_ij, phi_kl> = g[i,k,j,l] - g[i,l,j,k].  Rows are gathered
    from the frequency table in chunks to bound peak memory.
    """
    m = max(j for _, j in pairs)
    J = frequency_table(U, ell, m, ell, m, 0.0, **kw)
    i = np.array([p[0] - 1 for p in pairs])
    j = np.array([p[1] - 1 for p in pairs])
    n = len(pairs)
    V = np.empty((n, n))
    for lo in range(0, n, row_chunk):
        hi = min(lo + row_chunk, n)
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
               = (1/ell) sum_n c_n cos(n pi x/ell),  0 <= n <= 2m.

    The integral is then c_a^T J c_b / (ell_a ell_b), J the frequency table
    of the two pieces.
    """
    J = frequency_table(U, ell_a, len(G_a), ell_b, len(G_b), ell_a + gap)
    return float(_cosine_coefficients(G_a) @ J @ _cosine_coefficients(G_b)
                 / (ell_a * ell_b))


def _cosine_coefficients(G):
    """c_n of the density of the 1-RDM G (see cross_density_integral)."""
    a, b = np.indices(G.shape)
    n = 2 * len(G) + 1
    return (np.bincount(np.abs(a - b).ravel(), G.ravel(), n)
            - np.bincount((a + b + 2).ravel(), G.ravel(), n))
