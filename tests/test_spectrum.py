import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pieces_lab.disorder import from_lengths, sample_pieces
from pieces_lab.potential import BoxPotential
from pieces_lab.spectrum import (counting_function, enumerate_levels_below,
                                 fermi_energy, fermi_length,
                                 free_energy_per_particle_empirical,
                                 free_energy_per_particle_theoretical,
                                 ids_theoretical, rescale_check)


def test_levels_single_piece():
    cfg = from_lengths([5.0])
    table = enumerate_levels_below(cfg, 5.0)
    # pi^2 k^2 / 25 <= 5  ->  k <= sqrt(125)/pi = 3.55
    expected = np.pi ** 2 * np.arange(1, 4) ** 2 / 25.0
    assert np.allclose(table.energies, expected, atol=1e-14)
    assert np.all(table.k == [1, 2, 3])


def _exact_count(cfg, E):
    """Levels with (pi k / l)^2 <= E, level by level."""
    k = np.arange(1, 200)
    return sum(int(np.sum((np.pi * k / l) ** 2 <= E)) for l in cfg.lengths)


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
    for c, E in cases:
        table = enumerate_levels_below(c, E)
        assert np.all(table.energies <= table.cutoff)
        assert len(table) == _exact_count(c, E)
        assert counting_function(c, E) * c.L == pytest.approx(len(table), abs=1e-9)


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
    cfg = from_lengths([3.0, 7.0])
    assert rescale_check(cfg, BoxPotential(1.0, 1.0), 5.0, 2.0)


def test_domain_errors():
    with pytest.raises(ValueError):
        fermi_energy(0.0, 1.0)
    with pytest.raises(ValueError):
        fermi_length(0.1, 0.0)
