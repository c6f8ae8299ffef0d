import dataclasses

import numpy as np
import pytest

from pieces_lab.potential import (BoxPotential, ExponentialPotential,
                                  PolynomialPotential, TabulatedPotential,
                                  check_HU, f_Z, potential_from_spec,
                                  split_principal, tail_Z)


def test_box_closed_forms():
    U = BoxPotential(2.0, 1.5)
    assert U(0.0) == 2.0 and U(1.5) == 2.0 and U(1.6) == 0.0
    assert U.tail_integral(0.5) == pytest.approx(2.0)
    assert U.tail_integral(2.0) == 0.0
    # Z(x) = sup_{v>=x} v^3 int_v^inf U vanishes beyond the support
    assert tail_Z(U, 2.0) == 0.0
    assert tail_Z(U, 0.0) > 0.0


def test_exponential_tail():
    U = ExponentialPotential(1.0, 1.0)
    assert U.tail_integral(6.0) == pytest.approx(np.exp(-6.0))
    # the residual beyond B * l_rho = 6 integrates to 2 e^{-6}
    principal, residual = split_principal(U, 3.0, 2.0)
    v = np.linspace(-30, 30, 300001)
    resid_mass = np.trapezoid(residual(v), v)
    assert resid_mass == pytest.approx(2.0 * np.exp(-6.0), rel=1e-3)
    assert np.allclose(principal(v) + residual(v), U(v))


def test_polynomial_admissibility():
    good = PolynomialPotential(1.0, 5.0, 1.0)
    assert check_HU(good)["ok"]
    bad = PolynomialPotential(1.0, 3.5, 1.0)
    assert not check_HU(bad)["ok"]


def test_f_Z_vanishes_for_compact_support():
    U = BoxPotential(1.0, 1.0)
    assert f_Z(U, 1e3) < 1e-2 * tail_Z(U, 0.0)


def test_tabulated_matches_base():
    U = ExponentialPotential(1.0, 2.0)
    grid = np.linspace(0.0, 10.0, 2001)
    T = TabulatedPotential(grid, U(grid))
    x = np.linspace(0.0, 9.0, 57)
    assert np.allclose(T(x), U(x), atol=1e-6)


def test_spec_parsing():
    U = potential_from_spec("box height=2 radius=0.5")
    assert U.height == 2.0 and U.radius == 0.5
    with pytest.raises(ValueError):
        potential_from_spec("")
    with pytest.raises(ValueError):
        potential_from_spec("box radius")
    with pytest.raises(ValueError):
        potential_from_spec("nosuch a=1")


def test_scaling():
    U = BoxPotential(1.0, 1.0)
    V = U.scaled(2.0, 3.0)
    assert V(2.9) == 2.0 and V(3.1) == 0.0


def test_potentials_are_value_objects():
    assert BoxPotential(1, 1) == BoxPotential(1.0, 1.0)
    assert hash(BoxPotential(1, 1)) == hash(BoxPotential(1.0, 1.0))
    a = split_principal(ExponentialPotential(1.0, 1.0), 3.0, 2.0)
    b = split_principal(ExponentialPotential(1.0, 1.0), 3.0, 2.0)
    assert a == b and a is not b
    assert hash(a[0]) == hash(b[0]) and hash(a[1]) == hash(b[1])
    assert BoxPotential(1, 1) != ExponentialPotential(1, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        BoxPotential(1.0, 1.0).height = 2.0


def test_table_without_majorant_ends_at_grid():
    grid = np.linspace(0.0, 2.0, 11)
    T = TabulatedPotential(grid, np.ones_like(grid))
    assert T.support_radius == 2.0
    assert tail_Z(T, 2.0) == 0.0
    assert tail_Z(T, 0.0) > 0.0
