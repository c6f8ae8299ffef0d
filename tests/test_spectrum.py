import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pieces_lab.disorder import from_lengths, sample_pieces
from pieces_lab.optstate import fill_free_ground_state, second_order_prediction
from pieces_lab.potential import BoxPotential, ExponentialPotential
from pieces_lab.spectrum import (SpectrumTable, _level_thresholds,
                                 counting_function, enumerate_levels_below,
                                 fermi_energy, fermi_length,
                                 free_energy_per_particle_empirical,
                                 free_energy_per_particle_theoretical,
                                 ids_theoretical, lowest_levels)
from pieces_lab.twobody import solve_two_body


def test_levels_single_piece():
    cfg = from_lengths([5.0])
    table = enumerate_levels_below(cfg, 5.0)
    # pi^2 k^2 / 25 <= 5  ->  k <= sqrt(125)/pi = 3.55
    expected = np.pi ** 2 * np.arange(1, 4) ** 2 / 25.0
    assert np.allclose(table.energies, expected, atol=1e-14)
    assert np.all(table.k == [1, 2, 3])


def _exact_count(cfg, E):
    """Levels with (pi k / l)^2 <= E, level by level."""
    count = 0
    for l in cfg.lengths:
        k = np.arange(1, int(l * np.sqrt(E) / np.pi) + 3)
        count += int(np.sum((np.pi * k / l) ** 2 <= E))
    return count


_EPS = np.finfo(np.float64).eps


def _floor_table(cfg, E):
    """The level table by a second route (E > 0): per piece, the level
    count floor(l sqrt(E) / pi (1 + 16 eps)), where the factor lifts every
    value within a few ulps of an integer k above it, and the exact test of
    level k on the pieces whose lifted value lies within a window above k."""
    lengths = cfg.lengths
    c = np.sqrt(E) / np.pi * (1.0 + 16.0 * _EPS)
    x = lengths * c
    counts = np.floor(x)
    x -= counts
    # l * c <= L bounds every k, so w covers the lift 16 k eps and rounding
    w = 32.0 * _EPS * max(c * cfg.L, 1.0)
    near = np.flatnonzero(x < w)
    k = counts[near]
    counts[near] = k - 1.0 + ((np.pi * k / lengths[near]) ** 2 <= E)
    counts = counts.astype(np.int64)
    piece_index = np.repeat(np.arange(len(lengths)), counts)
    starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    k = np.arange(counts.sum(), dtype=np.int64) - np.repeat(starts, counts) + 1
    energies = (np.pi * k / lengths[piece_index]) ** 2
    return SpectrumTable(energies, piece_index, k, E)


def _assert_same_table(table, ref):
    for name in ("energies", "piece_index", "k"):
        assert np.array_equal(getattr(table, name), getattr(ref, name))


def _check_thresholds(E, longest):
    """Each l_k passes (pi k / l)^2 <= E and the float below it fails; the
    level after the last threshold fails on the longest piece."""
    thresholds = _level_thresholds(E, longest)
    k = np.arange(1, len(thresholds) + 1)
    assert np.all((np.pi * k / thresholds) ** 2 <= E)
    assert np.all((np.pi * k / np.nextafter(thresholds, 0.0)) ** 2 > E)
    assert (np.pi * (len(thresholds) + 1) / longest) ** 2 > E


def _check_counts(c, E):
    table = enumerate_levels_below(c, E)
    ref = _floor_table(c, E)
    _assert_same_table(table, ref)
    assert np.all(table.energies <= table.cutoff)
    assert len(table) == _exact_count(c, E)
    assert counting_function(c, E) == len(ref) / c.L
    longest = c.lengths.max()
    if E >= (np.pi / longest) ** 2:
        _check_thresholds(E, longest)


def _ulps(E):
    """E and the floats one ulp below and above it."""
    return (np.nextafter(E, 0.0), E, np.nextafter(E, np.inf))


def test_counting_function_matches_table():
    cfg = sample_pieces(11, 500.0, 1.0)
    # E at a level and one ulp below it, where floor(l sqrt(E) / pi) can
    # round either way
    at = enumerate_levels_below(cfg, 2.5).energies[[10, -1]]
    cases = [(cfg, E) for E in (0.5, 1.0, 2.5, *at, *np.nextafter(at, 0.0))]
    # the floor misses the level at E = (pi / l)^2 on the first piece, and
    # counts level 3 of the second one ulp above E
    ell = 1.2989837167557965
    cases += [(from_lengths([ell]), (np.pi / ell) ** 2),
              (from_lengths([10.480521681655006]), 0.8086795361375121)]
    # (pi / l)^2 as a scalar ** 2 (libm pow) lands one ulp above E, the
    # correctly rounded square equals E: the level is in the table
    cases += [(from_lengths([10.473253182230915]), 0.08997804248445067)]
    # repeated lengths: ties in the sorted copy, at a level shared by three
    # pieces and by the longer ones' levels
    ties = from_lengths([2.0, 3.0, 2.0, 2.0, 3.0, 0.5])
    l2 = ties.lengths[0]
    cases += [(ties, E) for k in (1, 2, 3) for E in _ulps((np.pi * k / l2) ** 2)]
    # a single piece, at its levels and in between
    one = from_lengths([5.0])
    cases += [(one, E) for E in (0.1, 5.0, *_ulps((np.pi * 4 / 5.0) ** 2))]
    # below the first level of the longest piece the count is 0
    top = cfg.sorted_lengths[-1]
    first = (np.pi / top) ** 2
    cases += [(cfg, E) for E in (0.5 * first, np.nextafter(first, 0.0))]
    assert counting_function(cfg, np.nextafter(first, 0.0)) == 0.0
    # the top level of the longest piece, the last k of the sum
    k_top = int(top * np.sqrt(2.5) / np.pi)
    cases += [(cfg, E) for E in _ulps((np.pi * k_top / top) ** 2)]
    for c, E in cases:
        _check_counts(c, E)


def test_level_thresholds_are_least_passing_floats():
    cfg = sample_pieces(11, 500.0, 1.0)
    longest = cfg.lengths.max()
    at = enumerate_levels_below(cfg, 2.5).energies[[10, -1]]
    for E in (0.5, 2.5, *at, *np.nextafter(at, 0.0), *np.nextafter(at, 5.0)):
        _check_thresholds(E, longest)
    # the two boundary instances of test_counting_function_matches_table
    ell = 1.2989837167557965
    for E in _ulps((np.pi / ell) ** 2):
        _check_thresholds(E, ell)
    for E in _ulps(0.8086795361375121):
        _check_thresholds(E, 10.480521681655006)
    # at the first level of the longest piece the table starts; one ulp
    # below it the table is empty and the count 0
    first = (np.pi / longest) ** 2
    assert _level_thresholds(first, longest)[0] <= longest
    assert len(enumerate_levels_below(cfg, first)) >= 1
    below = np.nextafter(first, 0.0)
    assert len(enumerate_levels_below(cfg, below)) == 0
    assert counting_function(cfg, below) == 0.0


def test_large_tables_match_floor_route():
    cfg = sample_pieces(11000, 1e6, 1.0)
    for rho in (0.1, 0.05, 0.02):
        cutoff = lowest_levels(cfg, round(rho * cfg.L)).cutoff
        table = enumerate_levels_below(cfg, cutoff)
        ref = _floor_table(cfg, cutoff)
        _assert_same_table(table, ref)
        assert counting_function(cfg, cutoff) == len(ref) / cfg.L


@given(lengths=st.lists(st.floats(0.05, 20.0), min_size=1, max_size=30),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_counting_function_at_levels(lengths, data):
    cfg = from_lengths(lengths)
    j = data.draw(st.integers(0, cfg.n_pieces - 1))
    k = data.draw(st.integers(1, 40))
    E = data.draw(st.sampled_from(_ulps((np.pi * k / cfg.lengths[j]) ** 2)))
    _check_counts(cfg, E)


def test_lowest_levels_do_not_depend_on_the_cutoff():
    cfg = from_lengths(np.random.default_rng(4).exponential(1.0 / 3.0, 60),
                       mu=3.0)
    n = 25
    table = lowest_levels(cfg, n)
    assert len(table) >= n
    full = enumerate_levels_below(cfg, 4.0 * table.cutoff)
    for name in ("energies", "piece_index", "k"):
        assert np.array_equal(getattr(table, name)[:n], getattr(full, name)[:n])
    with pytest.raises(ValueError):
        lowest_levels(cfg, 0)


def _table_before(cfg, n):
    """Reference: lowest_levels as a lexsort of every level up to the
    first doubled cutoff that holds n, each piece's levels listed by a
    repeat over the piece counts."""
    E = fermi_energy(n / cfg.L, cfg.mu) * 1.2
    lengths = cfg.lengths
    while True:
        thresholds = _level_thresholds(E, lengths.max())
        pieces = np.flatnonzero(lengths >= thresholds[0])
        counts = np.searchsorted(thresholds, lengths[pieces], side="right")
        piece_index = np.repeat(pieces, counts)
        starts = np.cumsum(counts) - counts
        k = np.arange(len(piece_index)) - np.repeat(starts, counts) + 1
        if len(k) >= n:
            energies = (np.pi * k / lengths[piece_index]) ** 2
            order = np.lexsort((k, piece_index, energies))
            return energies[order], piece_index[order], k[order]
        E *= 2.0


# lengths 2 and 4 share levels, so levels tie at the n-th energy
_TIES = [from_lengths([4.0, 2.0, 4.0, 2.0, 2.0, 4.0]),
         from_lengths([2.0, 4.0, 8.0, 2.0, 4.0], mu=0.5)]


def test_lowest_levels_match_the_full_sort():
    cases = [(cfg, n) for cfg in _TIES for n in range(1, 25)]
    big = sample_pieces(7, 1e5, 1.0)
    cases += [(big, round(rho * big.L)) for rho in (0.1, 0.05, 0.02)]
    cases += [(sample_pieces(s, 300.0, 2.0), n) for s in range(5) for n in (1, 7, 60)]
    for cfg, n in cases:
        energies, piece_index, k = _table_before(cfg, n)
        table = lowest_levels(cfg, n)
        assert len(table) == n
        assert np.array_equal(table.energies, energies[:n])
        assert np.array_equal(table.piece_index, piece_index[:n])
        assert np.array_equal(table.k, k[:n])
        assert free_energy_per_particle_empirical(cfg, n) == energies[:n].mean()
        occ = fill_free_ground_state(cfg, n).occupation
        assert np.array_equal(occ, np.bincount(piece_index[:n], minlength=cfg.n_pieces))


def test_table_sorted_by_energy():
    cfg = sample_pieces(12, 300.0, 1.0)
    table = enumerate_levels_below(cfg, 4.0)
    assert np.all(np.diff(table.energies) >= 0)


@given(rho=st.floats(1e-3, 1.0), mu=st.floats(0.1, 4.0))
@settings(max_examples=60, deadline=None)
def test_fermi_round_trip(rho, mu):
    E = fermi_energy(rho, mu)
    assert abs(ids_theoretical(E, mu) - rho) <= 1e-10 * max(rho, 1.0)
    assert abs(fermi_length(rho, mu) - np.pi / np.sqrt(E)) < 1e-12


def test_ids_closed_form_value():
    # N(E) = mu e^{-mu l} / (1 - e^{-mu l}), l = pi / sqrt(E)
    E, mu = 2.0, 1.0
    ell = np.pi / np.sqrt(E)
    expected = mu * np.exp(-mu * ell) / (1.0 - np.exp(-mu * ell))
    assert abs(ids_theoretical(E, mu) - expected) < 1e-14


def test_ids_empirical_convergence():
    cfg = sample_pieces(1, 1e5, 1.0)
    grid = np.linspace(0.1, 3.0, 30)
    emp = np.array([counting_function(cfg, E) for E in grid])
    assert np.max(np.abs(emp - ids_theoretical(grid, 1.0))) < 0.01


def test_free_energy_theoretical_small_rho_asymptotics():
    # e(rho) -> E_rho as densities shrink; at fixed rho it lies below E_rho
    rho, mu = 0.1, 1.0
    e = free_energy_per_particle_theoretical(rho, mu)
    assert 0.0 < e < fermi_energy(rho, mu)


def test_free_energy_empirical_vs_theoretical():
    cfg = sample_pieces(2, 1e5, 1.0)
    n = round(0.1 * cfg.L)
    emp = free_energy_per_particle_empirical(cfg, n)
    theo = free_energy_per_particle_theoretical(0.1, 1.0)
    assert abs(emp - theo) / theo < 0.03


def test_empirical_free_energy_exact_small_case():
    cfg = from_lengths([2.0, 4.0])
    # levels: pi^2/16, pi^2/4 (k=1,2 of the long), pi^2/4 (short), ...
    emp = free_energy_per_particle_empirical(cfg, 2)
    expected = 0.5 * (np.pi ** 2 / 16.0 + np.pi ** 2 * 4.0 / 16.0)
    assert abs(emp - expected) < 1e-12


def test_rescale_check():
    # the two-body identity E(U, ell) = mu^2 E(U^mu, mu ell) with U^mu(u) =
    # mu^-2 U(u / mu), here at mu = 2, with U^mu built from its fields
    mu, ell = 2.0, 5.0
    for U, U_mu in [(BoxPotential(1.0, 1.0), BoxPotential(1.0 / mu ** 2, mu)),
                    (ExponentialPotential(1.0, 1.0),
                     ExponentialPotential(1.0 / mu ** 2, 1.0 / mu))]:
        for u in (0.3, 1.7, 4.0):
            assert U_mu(mu * u) == U(u) / mu ** 2
        e1 = solve_two_body(U, ell).energy
        e2 = solve_two_body(U_mu, mu * ell).energy
        assert e1 == pytest.approx(mu ** 2 * e2, rel=1e-8, abs=0.0)


def test_domain_errors():
    with pytest.raises(ValueError):
        fermi_energy(0.0, 1.0)
    with pytest.raises(ValueError):
        fermi_length(0.1, 0.0)


NAN = float("nan")


@pytest.mark.parametrize("call,match", [
    pytest.param(lambda: ids_theoretical(1.0, NAN), "mu must be positive",
                 id="ids-mu"),
    pytest.param(lambda: fermi_length(NAN, 1.0), "must be positive",
                 id="fermi_length-rho"),
    pytest.param(lambda: fermi_length(0.1, NAN), "must be positive",
                 id="fermi_length-mu"),
    pytest.param(lambda: fermi_energy(NAN, 1.0), "must be positive",
                 id="fermi_energy-rho"),
    pytest.param(lambda: lowest_levels(from_lengths([1.0, 2.0]), NAN),
                 "n must be at least 1", id="lowest_levels-n"),
])
def test_arguments_refuse_nan(call, match):
    # a NaN passed the checks written as x <= 0 or x < 1: the first three
    # returned NaN, and lowest_levels failed building its table
    with pytest.raises(ValueError, match=match):
        call()


INF = float("inf")


@pytest.mark.parametrize("call", [
    pytest.param(lambda: ids_theoretical(1.0, INF), id="ids"),
    pytest.param(lambda: fermi_length(0.1, INF), id="fermi_length"),
    pytest.param(lambda: fermi_energy(0.1, INF), id="fermi_energy"),
    pytest.param(lambda: second_order_prediction(0.1, INF, 1.0), id="second_order"),
    pytest.param(lambda: fermi_length(INF, 1.0), id="fermi_length-rho"),
])
def test_infinite_mu_refused(call):
    # an infinite mu passed the checks written as mu > 0, and each of these
    # returned NaN
    with pytest.raises(ValueError, match="positive and finite"):
        call()
