"""Power-cost tours, spanning trees and matchings over unit-cube point sets.

The library constructs Hamiltonian cycles, Hamiltonian paths, spanning
trees and perfect matchings over finite point sets in [0, 1]^k while
bounding the power-k edge cost S_k = sum |e|^k, and verifies every
checkable bound against exact oracles.
"""

from .errors import CertificateError, InputError, SizeError
from .geometry import (Container, Edge, NamedBounds, PointSet, PowerCost,
                       cycle_upper_improved, edge_lengths, named_bounds, point_set,
                       power_cost, power_cost_from_weights)
from .structures import (EdgeList, HamPath, Matching, PathSystem, SpanningTree, Tour,
                         close_path, cycle_to_matchings, path_from_order,
                         tour_from_order, tree_from_pairs, validate)
from .mst import build_mst, build_threshold_forest, mst_ball_packing_check
from .sekanina import (UsageCertificate, mst_sekanina_tour, tree_cube_cycle,
                       tree_to_cycle_cost_bound, verify_double_cover)
from .greedy import classify_edges, greedy_edge_count_by_length, greedy_ham_path
from .two_phase import PhaseReport, two_phase_tour
from .planar import (ExtendedPath, RightTriangle, envelope_path, newman_square_tour,
                     non_obtuse_cycle, non_obtuse_path, right_triangle_path)
from .constructions import (clustered, cube_vertex_subset, diagonal_pair,
                            even_weight_code, k3_code4, k4_even_weight_code,
                            load_point_set, midball_reach_extremal_pair,
                            save_point_set, square_tight_sets, uniform_cube)
from .oracle import (closest_pair_bound_check, exact_min_matching, exact_min_path,
                     exact_min_tour, max_pairwise_square_sum)
from .verifiers import (BoundReport, bound_report, hamming_min_distance,
                        midball_reach_check, singleton_check)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "CertificateError", "Container", "Edge", "EdgeList", "ExtendedPath",
    "HamPath", "InputError", "Matching", "NamedBounds", "PathSystem", "PhaseReport", "PointSet",
    "PowerCost", "RightTriangle", "SizeError", "SpanningTree", "Tour",
    "UsageCertificate", "bound_report", "build_mst", "build_threshold_forest",
    "classify_edges", "close_path", "closest_pair_bound_check", "clustered",
    "cube_vertex_subset", "cycle_to_matchings", "cycle_upper_improved", "diagonal_pair",
    "edge_lengths", "envelope_path", "even_weight_code", "exact_min_matching",
    "exact_min_path", "exact_min_tour", "greedy_edge_count_by_length",
    "greedy_ham_path", "hamming_min_distance", "k3_code4", "k4_even_weight_code",
    "load_point_set", "max_pairwise_square_sum", "midball_reach_check",
    "midball_reach_extremal_pair", "mst_ball_packing_check", "mst_sekanina_tour",
    "named_bounds", "newman_square_tour", "non_obtuse_cycle", "non_obtuse_path",
    "path_from_order", "point_set", "power_cost", "power_cost_from_weights",
    "right_triangle_path", "save_point_set", "singleton_check", "square_tight_sets",
    "tour_from_order", "tree_cube_cycle", "tree_from_pairs", "tree_to_cycle_cost_bound",
    "two_phase_tour", "uniform_cube", "validate", "verify_double_cover",
]
