import numpy as np
import pytest
from scipy import integrate

from pieces_lab.potential import (BoxPotential, ExponentialPotential,
                                  PolynomialPotential)
from pieces_lab.quadrature import (_gl, _u_panels, cross_density_integral,
                                   cross_g_tensor, frequency_table,
                                   interaction_g_tensor, sine_modes)
from pieces_lab.twobody import solve_two_body


def _s(k, ell):
    return lambda x: np.sqrt(2.0 / ell) * np.sin(np.pi * k * x / ell)


def test_sine_modes_orthonormal():
    ell = 3.7
    x = np.linspace(0, ell, 20001)
    S = sine_modes(4, ell, x)
    G = S @ S.T * (x[1] - x[0])
    assert np.allclose(G, np.eye(4), atol=1e-3)


def test_g_tensor_against_dblquad():
    U = BoxPotential(1.0, 1.0)
    ell, m = 4.0, 3
    g = interaction_g_tensor(U, ell, m)
    for (a, b, c, d) in [(0, 0, 0, 0), (0, 1, 1, 2), (2, 0, 1, 0)]:
        sa, sb = _s(a + 1, ell), _s(b + 1, ell)
        sc, sd = _s(c + 1, ell), _s(d + 1, ell)

        def inner(x):
            pts = sorted(p for p in (x - 1.0, x + 1.0) if 0 < p < ell)
            v, _ = integrate.quad(lambda y: U(x - y) * sc(y) * sd(y),
                                  0, ell, points=pts, limit=200)
            return v

        ref, _ = integrate.quad(lambda x: sa(x) * sb(x) * inner(x),
                                0, ell, limit=200)
        assert g[a, b, c, d] == pytest.approx(ref, abs=1e-9)


def test_g_tensor_symmetries():
    U = ExponentialPotential(1.0, 1.0)
    g = interaction_g_tensor(U, 5.0, 4)
    # x <-> y factor swap and within-factor index swap
    assert np.allclose(g, g.transpose(1, 0, 2, 3), atol=1e-12)
    assert np.allclose(g, g.transpose(0, 1, 3, 2), atol=1e-12)
    assert np.allclose(g, g.transpose(2, 3, 0, 1), atol=1e-12)


def test_cross_g_tensor_against_dblquad():
    U = ExponentialPotential(1.0, 1.0)
    ellA, ellB, gap = 3.0, 4.0, 0.7
    g = cross_g_tensor(U, ellA, 2, ellB, 2, gap)
    sa, sc = _s(1, ellA), _s(2, ellB)
    ref, _ = integrate.dblquad(
        lambda y, x: U(x - (ellA + gap + y)) * sa(x) ** 2 * sc(y) ** 2,
        0, ellA, 0, ellB, epsabs=1e-11)
    assert g[0, 0, 1, 1] == pytest.approx(ref, abs=1e-8)


def test_cross_g_vanishes_beyond_support():
    U = BoxPotential(1.0, 1.0)
    g = cross_g_tensor(U, 3.0, 2, 3.0, 2, 1.5)
    # gap 1.5 > support radius 1: every element zero
    assert np.max(np.abs(g)) == 0.0


def test_cross_density_integral_oracle():
    U = ExponentialPotential(1.0, 2.0)
    ell_a = ell_b = 3.0
    da = lambda x: np.asarray(_s(1, ell_a)(x)) ** 2
    db = lambda y: np.asarray(_s(1, ell_b)(y)) ** 2
    gap = 0.5
    val = cross_density_integral(U, da, ell_a, db, ell_b, gap)
    ref, _ = integrate.dblquad(
        lambda y, x: U(ell_a + gap + y - x) * da(x) * db(y),
        0, ell_a, 0, ell_b, epsabs=1e-11)
    assert val == pytest.approx(ref, rel=1e-6)


# ---------------------------------------------------------------------------
# reference per-node loops: the quadrature rules written one u-node at a
# time, with the inner integral in the division-free sinc form


def _loop_u_nodes(U, ellA, ellB, offset, dens, n_nodes):
    panels = _u_panels(U, -offset - ellB, ellA - offset,
                       extra_edges=(-offset, ellA - ellB - offset), dens=dens)
    for a, b in panels:
        uq, wu = _gl(a, b, n_nodes(a, b))
        for u, cu in zip(uq, np.asarray(U(uq), dtype=np.float64) * wu):
            x_lo = max(0.0, u + offset)
            x_hi = min(ellA, u + offset + ellB)
            if cu != 0.0 and x_hi > x_lo:
                yield u, cu, x_lo, x_hi


def _loop_cos_cos_integral(alpha, beta, shift, x_lo, x_hi):
    xm = 0.5 * (x_hi + x_lo)
    dx2 = 0.5 * (x_hi - x_lo)

    def half(omega, phase):
        return 2.0 * np.cos(omega * xm + phase) * dx2 * np.sinc(omega * dx2 / np.pi)

    return 0.5 * (half(alpha + beta, -beta * shift)
                  + half(alpha - beta, beta * shift))


def _loop_frequency_table(U, ellA, mA, ellB, mB, offset, nodes_per_panel=32):
    alpha = (np.pi / ellA) * np.arange(2 * mA + 1)[:, None]
    beta = (np.pi / ellB) * np.arange(2 * mB + 1)[None, :]
    J = np.zeros((2 * mA + 1, 2 * mB + 1))
    for u, cu, x_lo, x_hi in _loop_u_nodes(U, ellA, ellB, offset,
                                           mA / ellA + mB / ellB,
                                           lambda a, b: nodes_per_panel):
        J += cu * _loop_cos_cos_integral(alpha, beta, u + offset, x_lo, x_hi)
    return J


def _loop_cross_density_integral(U, dens_a, ell_a, dens_b, ell_b, gap, n_inner=96):
    offset = ell_a + gap
    total = 0.0
    for u, cu, x_lo, x_hi in _loop_u_nodes(
            U, ell_a, ell_b, offset, 0.25,
            lambda a, b: max(24, int(2.0 * (b - a)) + 8)):
        xs, wx = _gl(x_lo, x_hi, n_inner)
        total += cu * np.sum(wx * dens_a(xs) * dens_b(xs - u - offset))
    return total


POTENTIALS = [BoxPotential(1.0, 1.0), ExponentialPotential(1.0, 1.0),
              PolynomialPotential(1.0, 5.0, 1.0)]


@pytest.mark.parametrize("U", POTENTIALS, ids=lambda U: U.family)
@pytest.mark.parametrize("ell,m", [(5.0, 6), (40.0, 50)])
def test_frequency_table_self_matches_node_loop(U, ell, m):
    J = frequency_table(U, ell, m, ell, m, 0.0)
    ref = _loop_frequency_table(U, ell, m, ell, m, 0.0)
    assert np.max(np.abs(J - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("U", POTENTIALS, ids=lambda U: U.family)
@pytest.mark.parametrize("rel", [0.0, 1e-9, 1e-4])
@pytest.mark.parametrize("gap", [0.0, 0.7])
def test_frequency_table_cross_matches_node_loop(U, rel, gap):
    # lB = lA (1 + rel): exact, near and loose coincidences m / lA ~ n / lB,
    # where the closed form's divisor a_m - b_n vanishes or nearly so
    lA, mA, mB = 6.0, 8, 7
    lB = lA * (1.0 + rel)
    J = frequency_table(U, lA, mA, lB, mB, lA + gap)
    ref = _loop_frequency_table(U, lA, mA, lB, mB, lA + gap)
    assert np.max(np.abs(J - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("U", [BoxPotential(1.0, 1.0),
                               ExponentialPotential(1.0, 2.0)],
                         ids=lambda U: U.family)
def test_cross_density_integral_matches_node_loop(U):
    sa = solve_two_body(U, 6.0, M=12, rtol=1e-4)
    sb = solve_two_body(U, 7.5, M=12, rtol=1e-4)
    for gap in (0.0, 0.4):
        val = cross_density_integral(U, sa.density, sa.ell, sb.density, sb.ell, gap)
        ref = _loop_cross_density_integral(U, sa.density, sa.ell, sb.density,
                                           sb.ell, gap)
        assert val == pytest.approx(ref, rel=1e-13)
