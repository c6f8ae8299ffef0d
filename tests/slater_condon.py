"""Per-element Slater-Condon oracle for the many-body interaction.

The package assembles W = sum_{i<j} U(x_i - x_j) by grouped pair removal
(`manybody._add_pair_interaction`).  This module computes the same matrix
elements one at a time: `element` looks up g(p, q, r, s) in the same-piece
and cross-piece tables of a TwoElectronIntegrals, and `slater_condon`
applies the rules for 0, 1 and 2 differing orbitals.
"""

import itertools

import numpy as np


def element(ints, p, q, r, s):
    """g(p, q, r, s) for orbitals (piece, k), read from the tables of ints."""
    if ints.U is None:
        return 0.0
    (jp, kp), (jq, kq), (jr, kr), (js, ks) = p, q, r, s
    if jp != jr or jq != js:
        return 0.0
    if jp == jq:
        # table layout: [a, b, c, d] = s_a s_b in x, s_c s_d in y
        return float(ints._same_table(jp)[kp - 1, kr - 1, kq - 1, ks - 1])
    a, b = (jp, jq) if jp < jq else (jq, jp)
    t = ints._cross_table(a, b)
    if t is None:
        return 0.0
    if jp < jq:
        return float(t[kp - 1, kr - 1, kq - 1, ks - 1])
    return float(t[kq - 1, ks - 1, kp - 1, kr - 1])


def slater_condon(D1, D2, ints, lengths):
    """Matrix element of sum_{i<j} U(x_i - x_j) between sorted determinants
    D1, D2 (tuples of (piece, k) orbitals), plus kinetic diagonal."""
    g = lambda p, q, r, s: element(ints, p, q, r, s)
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


def slater_condon_hamiltonian(dets, ints, lengths):
    """Dense Hamiltonian over a list of determinants, element by element."""
    H = np.zeros((len(dets), len(dets)))
    for i, D1 in enumerate(dets):
        for j in range(i, len(dets)):
            H[i, j] = H[j, i] = slater_condon(D1, dets[j], ints, lengths)
    return H


def block_overlap_per_element(intervals, state_a, ints, state_b):
    """<Psi_a, W Psi_b> by the double loop over determinant pairs, with the
    kinetic diagonal taken out again."""
    lengths = np.array([l for _, l in intervals])
    total = 0.0
    for i, D1 in enumerate(state_a.basis.determinants):
        for j, D2 in enumerate(state_b.basis.determinants):
            elem = slater_condon(D1, D2, ints, lengths)
            if D1 == D2:
                elem -= sum(np.pi ** 2 * k ** 2 / lengths[p] ** 2 for (p, k) in D1)
            total += state_a.coeffs[i] * state_b.coeffs[j] * elem
    return total
