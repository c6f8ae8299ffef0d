"""Per-element Slater-Condon oracle for the many-body interaction.

The package assembles W = sum_{i<j} U(x_i - x_j) by grouped pair removal
(`manybody._add_pair_interaction`).  This module computes the same matrix
elements one at a time: `element` looks up g(p, q, r, s) in the same-piece
and cross-piece tables of a `Tables` lookup, which reads them from
`quadrature.interaction_g_tensor` and `quadrature.cross_g_tensor` keyed by
piece, and `slater_condon` applies the rules for 0, 1 and 2 differing
orbitals.
"""

import itertools

import numpy as np

from pieces_lab.quadrature import cross_g_tensor, interaction_g_tensor


class Tables:
    """The g tables of a configuration (intervals of (left, length)),
    built on first lookup: same[j] for piece j, cross[(j1, j2)] for pieces
    j1 < j2, None where the gap is at or beyond the range of U."""

    def __init__(self, intervals, U, M):
        self.intervals = [(float(a), float(l)) for a, l in intervals]
        self.U, self.M = U, M
        self.same, self.cross = {}, {}

    def same_piece(self, j):
        if j not in self.same:
            self.same[j] = interaction_g_tensor(self.U, self.intervals[j][1], self.M)
        return self.same[j]

    def cross_pieces(self, j1, j2):
        if (j1, j2) not in self.cross:
            (a1, l1), (a2, l2) = self.intervals[j1], self.intervals[j2]
            gap = a2 - (a1 + l1)
            self.cross[j1, j2] = (cross_g_tensor(self.U, l1, self.M, l2, self.M, gap)
                                  if gap < self.U.effective_radius(1e-12) else None)
        return self.cross[j1, j2]

    def built(self):
        """The tables built so far, as sorted ("same", ell) and ("cross",
        ellA, ellB, gap) records."""
        out = [("same", self.intervals[j][1]) for j in self.same]
        for (j1, j2), t in self.cross.items():
            if t is not None:
                (a1, l1), (a2, l2) = self.intervals[j1], self.intervals[j2]
                out.append(("cross", l1, l2, a2 - (a1 + l1)))
        return sorted(out)


def element(tables, p, q, r, s):
    """g(p, q, r, s) for orbitals (piece, k), read from a Tables lookup."""
    if tables.U is None:
        return 0.0
    (jp, kp), (jq, kq), (jr, kr), (js, ks) = p, q, r, s
    if jp != jr or jq != js:
        return 0.0
    if jp == jq:
        # table layout: [a, b, c, d] = s_a s_b in x, s_c s_d in y
        return float(tables.same_piece(jp)[kp - 1, kr - 1, kq - 1, ks - 1])
    a, b = (jp, jq) if jp < jq else (jq, jp)
    t = tables.cross_pieces(a, b)
    if t is None:
        return 0.0
    if jp < jq:
        return float(t[kp - 1, kr - 1, kq - 1, ks - 1])
    return float(t[kq - 1, ks - 1, kp - 1, kr - 1])


def slater_condon(D1, D2, tables, lengths):
    """Matrix element of sum_{i<j} U(x_i - x_j) between sorted determinants
    D1, D2 (tuples of (piece, k) orbitals), plus kinetic diagonal."""
    g = lambda p, q, r, s: element(tables, p, q, r, s)
    set1, set2 = set(D1), set(D2)
    only1 = sorted(set1 - set2, key=D1.index)
    only2 = sorted(set2 - set1, key=D2.index)
    nd = len(only1)
    if nd > 2:
        return 0.0
    if nd == 0:
        val = sum(np.pi ** 2 * k ** 2 / lengths[j] ** 2 for (j, k) in D1)
        for a, b in itertools.combinations(D1, 2):
            val += g(a, b, a, b) - g(a, b, b, a)
        return val
    if nd == 1:
        p, r = only1[0], only2[0]
        sign = (-1) ** (D1.index(p) + D2.index(r))
        val = 0.0
        for q in D1:
            if q == p:
                continue
            val += g(p, q, r, q) - g(p, q, q, r)
        return sign * val
    p, q = only1
    r, s = only2
    sign = (-1) ** (D1.index(p) + D1.index(q) + D2.index(r) + D2.index(s))
    return sign * (g(p, q, r, s) - g(p, q, s, r))


def slater_condon_hamiltonian(dets, tables, lengths):
    """Dense Hamiltonian over a list of determinants, element by element."""
    H = np.zeros((len(dets), len(dets)))
    for i, D1 in enumerate(dets):
        for j in range(i, len(dets)):
            H[i, j] = H[j, i] = slater_condon(D1, dets[j], tables, lengths)
    return H


def block_overlap_per_element(intervals, state_a, tables, state_b):
    """<Psi_a, W Psi_b> by the double loop over determinant pairs, with the
    kinetic diagonal taken out again."""
    lengths = np.array([l for _, l in intervals])
    total = 0.0
    for i, D1 in enumerate(state_a.basis.determinants):
        for j, D2 in enumerate(state_b.basis.determinants):
            elem = slater_condon(D1, D2, tables, lengths)
            if D1 == D2:
                elem -= sum(np.pi ** 2 * k ** 2 / lengths[p] ** 2 for (p, k) in D1)
            total += state_a.coeffs[i] * state_b.coeffs[j] * elem
    return total
