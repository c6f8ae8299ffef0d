import numpy as np
import pytest
from scipy.linalg import eigh

from pieces_lab import _eigen, manybody, twobody
from pieces_lab._eigen import _ITERATIVE_DIM, _lowest_eigenpairs
from pieces_lab.manybody import (BlockBasis, block_overlap,
                                 enumerate_occupations,
                                 exact_ground_state_small,
                                 free_occupation_energy, solve_block)
from pieces_lab.potential import (BoxPotential, ExponentialPotential,
                                  PolynomialPotential)
from pieces_lab.quadrature import (cross_g_tensor, interaction_g_tensor,
                                   pair_reduced_matrix)
from pieces_lab.twobody import solve_two_body
from slater_condon import (Tables, block_overlap_per_element, element,
                           slater_condon_hamiltonian)
from test_acceptance import subadditivity_instances

U = BoxPotential(1.0, 1.0)


def test_enumerate_occupations():
    # lexicographic order: exact_ground_state_small visits the blocks by a
    # stable sort on free energy, so exact ties keep this order
    occs = enumerate_occupations(3, 2, 2)
    assert occs == [(0, 0, 2), (0, 1, 1), (0, 2, 0),
                    (1, 0, 1), (1, 1, 0), (2, 0, 0)]
    capped = enumerate_occupations(3, 2, 1)
    assert capped == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    # C(11, 7) compositions of 4 into 8 parts, less the 8 with a part of 4
    big = enumerate_occupations(8, 4, 3)
    assert big == sorted(set(big)) and len(big) == 330 - 8
    assert all(sum(Q) == 4 and max(Q) <= 3 for Q in big)


def test_free_occupation_energy():
    # q lowest levels of a single piece: pi^2 (1 + 4 + ... + q^2) / l^2
    assert free_occupation_energy([5.0], [3]) == pytest.approx(
        np.pi ** 2 * 14.0 / 25.0)
    assert free_occupation_energy([5.0, 10.0], [1, 2]) == pytest.approx(
        np.pi ** 2 / 25.0 + np.pi ** 2 * 5.0 / 100.0)


def test_kinetic_lower_bound_is_lower():
    # pi^2 nu^3 / (3 l_max^2 k^2) bounds the kinetic energy of nu particles
    # on k pieces from below
    lengths = [4.0, 6.0, 9.0]
    for Q in [(1, 1, 1), (2, 0, 1), (0, 3, 0)]:
        nu, k = sum(Q), len(lengths)
        bound = np.pi ** 2 * nu ** 3 / (3.0 * max(lengths) ** 2 * k ** 2)
        assert bound <= free_occupation_energy(lengths, Q) + 1e-12


def test_integrals_block_selection_rule():
    # intervals are (left, length): the pieces lie 2.0 apart, beyond the
    # unit box's range
    far = [(0.0, 5.0), (7.0, 4.0)]
    tables = Tables(far, U, M=4)
    # orbitals: (piece, k); g(p, q, r, s) pairs p with r and q with s, so a
    # term that moves a particle between pieces is forbidden
    p, q = (0, 1), (1, 1)
    assert element(tables, p, q, q, p) == 0.0
    assert element(tables, p, p, q, q) == 0.0
    # the density-density term is zero out of range ...
    assert element(tables, p, q, p, q) == 0.0
    # ... and positive for pieces 0.5 apart, within range
    near = [(0.0, 5.0), (5.5, 4.0)]
    near_tables = Tables(near, U, M=4)
    assert element(near_tables, p, q, p, q) > 0.0
    assert element(near_tables, p, p, q, q) == 0.0
    # the block tensor agrees: p is orbital 0 and q orbital 4, and with one
    # particle per piece only the density-density term and its exchange
    # remain
    assert not manybody._antisymmetrized(far, (1, 1), U, 4).any()
    A = manybody._antisymmetrized(near, (1, 1), U, 4)
    assert A[0, 4, 0, 4] == -A[0, 4, 4, 0] == element(near_tables, p, q, p, q)
    assert np.count_nonzero(A[:4, :4]) == np.count_nonzero(A[4:, 4:]) == 0


def test_piece_qbody_matches_twobody():
    ref = solve_two_body(U, 10.0, M=20)
    e2 = solve_block([(0.0, 10.0)], (2,), U, M=20, n_states=1)[0][0]
    assert e2 == pytest.approx(ref.energy, rel=1e-4)


def test_piece_qbody_free_limit():
    z = BoxPotential(0.0, 1.0)
    e3 = solve_block([(0.0, 5.0)], (3,), z, M=10, n_states=1)[0][0]
    assert e3 == pytest.approx(np.pi ** 2 * 14.0 / 25.0, rel=1e-10)


def test_block_basis_and_solve():
    intervals = [(0.0, 7.0), (9.0, 5.0)]
    basis = BlockBasis(intervals, (1, 1), M=6)
    assert basis.dim == 36
    w, states = solve_block(intervals, (1, 1), U, M=6, n_states=2)
    free = np.pi ** 2 / 49.0 + np.pi ** 2 / 25.0
    # far-separated single particles: energy ~ free value
    assert w[0] == pytest.approx(free, rel=1e-6)


def test_block_overlap_orthogonality():
    intervals = [(0.0, 7.0), (9.0, 5.0)]
    a = solve_block(intervals, (2, 0), U, M=6, n_states=1)[1][0]
    b = solve_block(intervals, (1, 1), U, M=6, n_states=1)[1][0]
    w = block_overlap(intervals, a, U, b)
    assert abs(w) < 1e-12


def test_occupation_block_energy_decoupled_vs_exact():
    intervals = [(0.0, 6.0), (56.0, 6.0)]  # far apart: no interaction
    ex = solve_block(intervals, (1, 1), U, M=8, n_states=1)[0][0]
    de = sum(solve_block([iv], (1,), U, M=8, n_states=1)[0][0]
             for iv in intervals)
    assert ex == pytest.approx(de, rel=1e-9)


def test_exact_ground_state_small():
    intervals = [(0.0, 8.0), (9.0, 4.0)]
    energy, Q, state, gap = exact_ground_state_small(intervals, 2, U, M=8)
    # one particle per piece beats a repelling pair in the long piece
    assert Q == (1, 1)
    assert gap > 0
    # the gap (1.0) equals the box radius, so the cross term vanishes and
    # the winning energy is exactly the free value
    free = np.pi ** 2 / 64.0 + np.pi ** 2 / 16.0
    assert energy == pytest.approx(free, rel=1e-9)
    assert energy < solve_two_body(U, 8.0, M=8).energy


def test_free_filling_bound_holds():
    intervals = [(0.0, 8.0), (9.0, 4.0)]
    energy, Q, _, _ = exact_ground_state_small(intervals, 2, U, M=8)
    assert free_occupation_energy([8.0, 4.0], Q) <= energy + 1e-12


def test_exact_ground_state_small_needs_an_occupation():
    # four particles on one piece exceed the per-piece cap of three
    with pytest.raises(ValueError, match="n = 4 over 1 pieces .* cap 3"):
        exact_ground_state_small([(0.0, 5.0)], 4, U)


# gaps 0 (touching) and 0.6 lie inside the box range 1; gap 1.0 equals it,
# and gap 35 lies beyond the exponential's effective radius, so those pairs
# get no cross table
NEAR = [(0.0, 5.0), (5.0, 4.0), (9.6, 6.0)]
FAR = [(0.0, 5.0), (6.0, 4.0), (45.0, 6.0)]
BLOCKS = [
    (NEAR[:1], (1,)), (NEAR[:1], (2,)), (NEAR[:1], (3,)),
    (NEAR[:2], (1, 1)), (NEAR[:2], (2, 1)), (NEAR, (1, 1, 1)),
    (NEAR, (1, 0, 2)), (FAR[:2], (1, 1)), (FAR[:2], (1, 2)),
    (FAR, (1, 1, 1)), (FAR, (2, 0, 1)),
]


@pytest.fixture
def built(monkeypatch):
    """The g tables the package builds, one record per call in the format
    of Tables.built: ("same", ell) and ("cross", ellA, ellB, gap)."""
    calls = []

    def same(U, ell, m):
        calls.append(("same", ell))
        return interaction_g_tensor(U, ell, m)

    def cross(U, ellA, mA, ellB, mB, gap):
        calls.append(("cross", ellA, ellB, gap))
        return cross_g_tensor(U, ellA, mA, ellB, mB, gap)

    monkeypatch.setattr(manybody, "interaction_g_tensor", same)
    monkeypatch.setattr(manybody, "cross_g_tensor", cross)
    return calls


@pytest.mark.parametrize("U", [None, BoxPotential(0.0, 1.0), U,
                               ExponentialPotential(1.0, 1.0)],
                         ids=["none", "box0", "box1", "exp"])
@pytest.mark.parametrize("intervals,Q", BLOCKS)
def test_block_hamiltonian_matches_slater_condon(intervals, Q, U, built):
    M = 5
    basis = BlockBasis(intervals, Q, M)
    H = basis.hamiltonian(U)
    ref_tables = Tables(intervals, U, M)
    ref = slater_condon_hamiltonian(basis.determinants, ref_tables, basis.lengths)
    assert np.abs(H - ref).max() <= 1e-13 * np.abs(ref).max()
    # the assembly builds the tables the per-element rule touches, no more,
    # and each of them once
    assert sorted(built) == ref_tables.built()


def test_single_occupancy_builds_no_same_piece_table(built):
    intervals = [(0.0, 5.0), (5.0, 4.0), (9.0, 6.0)]  # touching pieces
    BlockBasis(intervals, (1, 1, 1), 6).hamiltonian(U)
    # no same-piece table; pieces 0 and 2 lie 4.0 apart, beyond the box
    # range, so only the pairs (0, 1) and (1, 2) get a cross table
    assert sorted(built) == [("cross", 4.0, 6.0, 0.0), ("cross", 5.0, 4.0, 0.0)]


POTENTIALS = [U, ExponentialPotential(1.0, 1.0)]


@pytest.mark.parametrize("V", POTENTIALS, ids=["box", "exp"])
@pytest.mark.parametrize("Q", [(2, 0, 0), (2, 1, 0), (1, 1, 1), (1, 0, 2)])
def test_block_overlap_within_block(V, Q):
    # the ground state with itself and with the first excited state
    M = 5
    basis = BlockBasis(NEAR, Q, M)
    # with no potential the block Hamiltonian is the kinetic diagonal T
    W = basis.hamiltonian(V) - basis.hamiltonian(None)
    _, (a, b) = solve_block(NEAR, Q, V, M=M, n_states=2)
    for x, y in [(a, a), (a, b)]:
        val = block_overlap(NEAR, x, V, y)
        assert val == pytest.approx(x.coeffs @ W @ y.coeffs, rel=1e-13, abs=1e-15)
        ref = block_overlap_per_element(NEAR, x, Tables(NEAR, V, M), y)
        assert val == pytest.approx(ref, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("V", POTENTIALS, ids=["box", "exp"])
def test_block_overlap_different_truncations(V):
    # the same block solved at M = 5 and M = 6: both states live in the
    # M = 6 orbital list, and the oracle reads the M = 6 tables
    a = solve_block(NEAR, (2, 1, 0), V, M=5, n_states=1)[1][0]
    b = solve_block(NEAR, (2, 1, 0), V, M=6, n_states=1)[1][0]
    tables = Tables(NEAR, V, 6)
    for x, y in [(a, b), (b, a)]:
        val = block_overlap(NEAR, x, V, y)
        ref = block_overlap_per_element(NEAR, x, tables, y)
        assert val == pytest.approx(ref, rel=1e-13)
    with pytest.raises(ValueError):
        block_overlap(NEAR, a, V, b, M=5)


@pytest.mark.parametrize("V", POTENTIALS, ids=["box", "exp"])
def test_block_overlap_cross_block_exact_zero(V):
    # touching and near pieces: the cross tables are built, yet every
    # coupling between different occupations is a structural zero of A
    states = {Q: solve_block(NEAR, Q, V, M=5, n_states=1)[1][0]
              for Q in [(2, 1, 0), (1, 1, 1), (1, 0, 2), (0, 2, 1)]}
    for Qa, Qb in [((2, 1, 0), (1, 1, 1)), ((1, 1, 1), (1, 0, 2)),
                   ((1, 0, 2), (0, 2, 1)), ((2, 1, 0), (0, 2, 1))]:
        assert block_overlap(NEAR, states[Qa], V, states[Qb]) == 0.0


# ---------------------------------------------------------------------------
# best-first blocks against the exhaustive lexicographic loop

EXP = ExponentialPotential(1.0, 1.0)


def lexicographic_ground_state(intervals, n, U, M):
    """The former loop with its prune taken out: every block solved in
    lexicographic order, energies within 1e-10 to the smaller Q."""
    best = None
    for Q in enumerate_occupations(len(intervals), n, cap=min(n, 3)):
        w, states = solve_block(intervals, Q, U, M=M, n_states=2)
        gap = float(w[1] - w[0]) if len(w) > 1 else np.inf
        cand = (float(w[0]), Q, states[0], gap)
        if best is None or cand[0] < best[0] - 1e-10:
            best = cand
        elif abs(cand[0] - best[0]) <= 1e-10 and Q < best[1]:
            best = cand
    return best


def _line(lengths, gaps):
    lefts = np.concatenate([[0.0], np.cumsum(np.add(lengths[:-1], gaps))])
    return [(float(a), float(l)) for a, l in zip(lefts, lengths)]


def _random_cases(count=40):
    rng = np.random.default_rng(20)
    cases = []
    for _ in range(count):
        lengths = rng.uniform(3.0, 8.0, size=3)
        gaps = rng.uniform(0.0, 1.5, size=2)
        n = int(rng.integers(2, 4))
        V = (U, EXP)[int(rng.integers(2))]
        cases.append((_line(lengths, gaps), n, V, 6))
    return cases


# equal pieces at equal gaps, where mirror blocks tie exactly: within the
# potential's range, and beyond it (box range 1, exp effective radius 32),
# where every block is a sum of one-piece energies.  Ties win at (1, 2)
# against (2, 1), and at (0, 1, 1) against (1, 0, 1) and (1, 1, 0).  At
# M = 10 the (1, 2) and (2, 1) blocks have dimension 450 and take the
# iterative path.
MIRROR_CASES = [
    (_line([5.0] * 3, [0.5] * 2), 2, U, 6),
    (_line([5.0] * 3, [0.5] * 2), 3, U, 6),
    (_line([5.0] * 3, [0.0] * 2), 3, EXP, 6),
    (_line([5.0] * 2, [0.5]), 3, U, 6),
    (_line([5.0] * 2, [0.5]), 3, EXP, 10),
    (_line([5.0] * 3, [2.0] * 2), 2, U, 6),
    (_line([5.0] * 3, [2.0] * 2), 3, U, 6),
    (_line([5.0] * 3, [40.0] * 2), 2, EXP, 6),
    (_line([5.0] * 2, [2.0]), 3, U, 10),
    (_line([5.0] * 2, [40.0]), 3, EXP, 10),
]


@pytest.mark.parametrize("intervals,n,V,M", _random_cases() + MIRROR_CASES)
def test_best_first_matches_lexicographic_oracle(intervals, n, V, M):
    energy, Q, _, gap = exact_ground_state_small(intervals, n, V, M=M)
    ref_energy, ref_Q, _, ref_gap = lexicographic_ground_state(intervals, n, V, M)
    assert Q == ref_Q
    assert energy == pytest.approx(ref_energy, rel=1e-10, abs=0)
    assert gap == pytest.approx(ref_gap, rel=1e-9, abs=0)


def test_best_first_solves_only_blocks_that_can_win(monkeypatch):
    # the fewbody-stats kind of instance: (1, 1, 1) has the lowest free
    # energy and wins, and no other block's free energy comes within reach
    solved = []

    def solve(intervals, Q, U, M, n_states):
        solved.append(Q)
        return solve_block(intervals, Q, U, M=M, n_states=n_states)

    monkeypatch.setattr(manybody, "solve_block", solve)
    intervals = _line([5.6, 6.3, 5.2], [0.5, 0.6])
    energy, Q, _, _ = exact_ground_state_small(intervals, 3, U, M=6)
    assert solved == [Q] == [(1, 1, 1)]
    # exact ties are all solved, in lexicographic order
    solved.clear()
    _, Q, _, _ = exact_ground_state_small(_line([5.0] * 3, [2.0] * 2), 2, U, M=6)
    assert solved == [(0, 1, 1), (1, 0, 1), (1, 1, 0)] and Q == (0, 1, 1)


# ---------------------------------------------------------------------------
# the iterative lowest eigenpairs against eigh, on blocks and on two-body
# stages

def _criterion_12_blocks():
    """Every block of dimension >= _ITERATIVE_DIM over the unions criterion
    12 solves (criteria 7, 8 and 9 and the other tests above solve smaller
    blocks)."""
    blocks = []
    for i1, n1, i2, n2 in subadditivity_instances():
        intervals = i1 + i2
        for Q in enumerate_occupations(len(intervals), n1 + n2, min(n1 + n2, 3)):
            if BlockBasis(intervals, Q, 6).dim >= _ITERATIVE_DIM:
                blocks.append((intervals, Q, U, 6))
    return blocks


HELPER_BLOCKS = [
    # the fewbody-stats kind: three pieces of 5-7 at gaps 0.3-0.9, dim 1000
    (_line([5.6, 6.3, 5.2], [0.5, 0.6]), (1, 1, 1), U, 10),
    # mirror pieces: E1 = 1.6449345 lies 3e-6 below E2
    (_line([6.0] * 3, [0.5] * 2), (1, 1, 1), U, 10),
    # touching exp pieces, equal and unequal
    (_line([6.0] * 3, [0.0] * 2), (1, 1, 1), EXP, 10),
    (_line([5.0, 6.0, 5.5], [0.0] * 2), (1, 1, 1), EXP, 8),
    # CLI exact-small at its default M = 24
    (_line([6.3, 5.1], [0.7]), (1, 1), U, 24),
]

# the fewbody-stats blocks below dim 400: the (1, 1, 1) union of the
# sub-additivity check at M = 6 (dim 216) and the (2, 1) block of two
# pieces 60 apart at M = 8 (dim 224)
FEWBODY_BLOCKS = [
    pytest.param(_line([5.6, 6.3, 5.2], [0.5, 3.0]), (1, 1, 1), U, 6,
                 id="fewbody-216"),
    pytest.param(_line([5.6, 6.3], [60.0]), (2, 1), U, 8, id="fewbody-224"),
]




def _stage_pairs(ell, M):
    """The sub-basis of the first refinement stage of solve_two_body(V,
    ell, M), (D, K) = (8, int(max(M + 8, 40, 3 ell))): the only stage at
    ell 40.7 and 80, where it has 536 and 1008 pairs."""
    return twobody.band_pair_list(M, 8, int(max(M + 8, 40, 3.0 * ell)))


# the first two-body stage on one piece of length ell at M = 24, given by
# Q None
STAGES = [pytest.param([(0.0, ell)], None, V, 24, id=f"stage-{name}-{ell}")
          for name, V in (("box", U), ("exp", EXP),
                          ("poly", PolynomialPotential(1.0, 5.0, 1.0)))
          for ell in (40.7, 80.0)]

# the first stage of a pair-band solve of the trial state: the
# interpolation nodes (M = 16, dim 160) and the length-bin densities
# (M = 12, dim 148)
PAIR_BAND_STAGES = [pytest.param([(0.0, ell)], None, U, M,
                                 id=f"pair-band-{ell}-M{M}")
                    for ell in (6.3, 9.1) for M in (12, 16)]


def _eigenproblem(intervals, Q, V, M):
    """(H, k): a block Hamiltonian and its two lowest pairs, or for Q None
    the stage matrix (kinetic diagonal plus pair matrix) and its ground
    pair."""
    if Q is not None:
        return BlockBasis(intervals, Q, M).hamiltonian(V), 2
    ell = intervals[0][1]
    pairs = _stage_pairs(ell, M)
    i, j = np.array(pairs).T
    H = pair_reduced_matrix(V, ell, pairs)
    H[np.diag_indices_from(H)] += np.pi ** 2 * (i * i + j * j) / ell ** 2
    return H, 1


@pytest.mark.parametrize("intervals,Q,V,M",
                         HELPER_BLOCKS + _criterion_12_blocks() + STAGES
                         + FEWBODY_BLOCKS + PAIR_BAND_STAGES)
def test_lowest_eigenpairs_match_eigh(intervals, Q, V, M):
    H, k = _eigenproblem(intervals, Q, V, M)
    assert len(H) >= _ITERATIVE_DIM
    w, v = _lowest_eigenpairs(H, k)
    ref_w, ref_v = eigh(H, subset_by_index=[0, k - 1])
    # the stopping rule: residuals at most 1e-14 max|diag H|
    res = np.linalg.norm(H @ v - v * w, axis=0)
    assert res.max() <= 1e-14 * np.abs(H.diagonal()).max()
    assert np.abs(v.T @ v - np.eye(k)).max() <= 1e-13
    if Q is not None:
        assert w == pytest.approx(ref_w, rel=1e-10, abs=0)
        x, y = v[:, 0], ref_v[:, 0]
        assert min(np.linalg.norm(x - y), np.linalg.norm(x + y)) <= 1e-10
        return
    # the stage's ground pair as the solver takes it, sign rule included
    e0, c = twobody._ground_state(H)
    assert e0 == pytest.approx(ref_w[0], rel=1e-11, abs=0)
    assert c[0] >= 0
    ell = intervals[0][1]
    G, ref_G = (twobody.TwoBodySolution(ell, _stage_pairs(ell, M), e0, x,
                                        0.0).one_body_rdm()
                for x in (c, ref_v[:, 0]))
    assert np.abs(G - ref_G).max() <= 1e-12


def _leading(H, n):
    """The n x n sub-block of H over its n smallest diagonal entries."""
    o = np.argsort(H.diagonal(), kind="stable")[:n]
    return H[np.ix_(o, o)]


def _mirror_pairs_block():
    """Two interacting pairs of pieces 60 apart, the second the mirror
    image of the first, at M = 4 (dim 256): each level of one pair adds to
    each of the other's, so the second level is exactly twofold."""
    intervals = _line([5.2, 6.1, 6.1, 5.2], [0.5, 60.0, 0.5])
    return BlockBasis(intervals, (1, 1, 1, 1), 4).hamiltonian(U)


@pytest.mark.parametrize("make,k", [
    # the smallest dimension that iterates
    pytest.param(lambda: _leading(_eigenproblem([(0.0, 80.0)], None, U, 24)[0],
                                  _ITERATIVE_DIM), 1, id="stage-at-threshold"),
    pytest.param(_mirror_pairs_block, 3, id="mirror-pairs-k3"),
    pytest.param(lambda: _eigenproblem(*HELPER_BLOCKS[0])[0], 3,
                 id="fewbody-1000-k3"),
])
def test_lowest_eigenpairs_match_eigh_at_k(make, k):
    H = make()
    assert len(H) >= max(_ITERATIVE_DIM, 3 * (k + 2))
    w, v = _lowest_eigenpairs(H, k)
    ref_w, ref_v = eigh(H, subset_by_index=[0, k - 1])
    res = np.linalg.norm(H @ v - v * w, axis=0)
    assert res.max() <= 1e-14 * np.abs(H.diagonal()).max()
    assert np.abs(v.T @ v - np.eye(k)).max() <= 1e-13
    assert w == pytest.approx(ref_w, rel=1e-10, abs=0)
    # the span of the k pairs, which a degenerate level leaves free inside
    assert np.abs(v @ v.T - ref_v @ ref_v.T).max() <= 1e-10


def test_mirror_pairs_level_is_twofold():
    w = np.linalg.eigvalsh(_mirror_pairs_block())
    assert w[2] - w[1] <= 1e-12 * w[1] < w[3] - w[2]


def test_lowest_eigenpairs_dense_where_the_block_does_not_fit():
    # n < 3 (k + 2): [X, W, P] would have more columns than H has rows, so
    # even at the threshold the answer is the dense eigh's
    H = _leading(_eigenproblem([(0.0, 80.0)], None, U, 24)[0], _ITERATIVE_DIM)
    k = _ITERATIVE_DIM // 3
    w, v = _lowest_eigenpairs(H, k)
    ref_w, ref_v = np.linalg.eigh(H)
    assert np.array_equal(w, ref_w[:k]) and np.array_equal(v, ref_v[:, :k])


def test_lowest_eigenpairs_raise_when_not_converged(monkeypatch):
    intervals, Q, V, M = HELPER_BLOCKS[0]
    H = BlockBasis(intervals, Q, M).hamiltonian(V)
    monkeypatch.setattr(_eigen, "_MAX_ITER", 1)
    with pytest.raises(ArithmeticError):
        _lowest_eigenpairs(H, 2)
