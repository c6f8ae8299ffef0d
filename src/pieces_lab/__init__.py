"""Numerical laboratory for interacting fermions in a Poisson-cut
one-dimensional random geometry.

The sample geometry is [0, L] cut into independent pieces by a Poisson
process of intensity mu; each piece carries a Dirichlet Laplacian, and
particles interact through a pair potential U.  The modules cover:

    disorder   Poisson piece sampling and piece-count statistics
    spectrum   one-particle levels, integrated density of states, Fermi data
    potential  pair-potential families and their tail functional
    quadrature sine-basis interaction tensors and cross integrals
    twobody    two particles in one piece; the interaction constant gamma
    manybody   occupation blocks, Slater-Condon CI, small exact ground states
    rdm        one- and two-particle reduced density matrices
    optstate   banded trial states and the second-order energy expansion
    cli        seeded experiment harness (``pieces-lab`` entry point)

numpy is the only runtime dependency: it does all of the linear algebra,
and every numerical integral is a composite Gauss-Legendre sum on its
rule, so that a fresh process (a CLI run, a benchmark round) loads numpy
alone.
"""

from .disorder import (PieceConfiguration, count_neighbor_pairs,
                       count_pair_clusters, count_pieces_in_range,
                       count_triplets, max_piece_length, sample_pieces,
                       sample_pieces_conditioned)
from .spectrum import (SpectrumTable, counting_function,
                       enumerate_levels_below, fermi_energy, fermi_length,
                       free_energy_per_particle_empirical,
                       free_energy_per_particle_theoretical, ids_theoretical)
from .potential import (BoxPotential, ExponentialPotential,
                        InteractionPotential, PolynomialPotential,
                        potential_from_spec, tail_Z)
from .twobody import (TwoBodySolution, astar_xstar, gamma_via_K, gamma_via_fit,
                      solve_two_body)
from .manybody import (BlockBasis, CIState, block_overlap,
                       enumerate_occupations, exact_ground_state_small,
                       solve_block)
from .rdm import (DensityMatrix, antisymmetrized_product,
                  coefficient_distance_bound, factorized_rdm, pair_index,
                  rdm1, rdm2, trace_norm_distance)
from .optstate import (StatePlan, asymptotics_check, banded_fraction_prediction,
                       banded_particle_count, build_psi_opt,
                       cross_piece_bound_check, energy_of_plan,
                       fill_free_ground_state, neighbor_energy_ladder,
                       second_order_prediction, subadditivity_check)

__version__ = "0.1.0"
