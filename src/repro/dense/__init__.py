"""Densest-subgraph engines for deterministic graphs.

Edge density: Goldberg's exact algorithm [1] + all-densest enumeration [46].
Clique density: Algorithms 2/3/6 of the paper (novel enumeration).
Pattern density: Algorithms 4/3/7 of the paper (novel enumeration).
Plus peeling approximations, generalised cores, and the kClist++ solver.
"""

from .goldberg import (
    DensestResult,
    build_edge_density_network,
    densest_subgraph,
    maximum_edge_density,
)
from .all_densest import (
    all_densest_subgraphs,
    count_densest_subgraphs,
    enumerate_all_densest_subgraphs,
    maximum_sized_densest_subgraph,
    prepare_from_bound,
    prepare_from_bound_csr,
)
from .clique_density import (
    all_clique_densest_subgraphs,
    build_clique_density_network,
    clique_densest_subgraph,
    enumerate_all_clique_densest_subgraphs,
    maximum_clique_density,
    maximum_sized_clique_densest_subgraph,
)
from .pattern_density import (
    all_pattern_densest_subgraphs,
    build_pattern_density_network,
    enumerate_all_pattern_densest_subgraphs,
    maximum_pattern_density,
    maximum_sized_pattern_densest_subgraph,
    pattern_densest_subgraph,
)
from .kcore import (
    core_decomposition,
    innermost_core_nodes,
    k_core,
    kh_core,
    kh_core_decomposition,
    kpsi_core,
    kpsi_core_decomposition,
)
from .peeling import (
    PeelingResult,
    peel_clique_density,
    peel_edge_density,
    peel_edge_density_csr,
    peel_pattern_density,
)
from .kclistpp import KClistResult, kclistpp_densest
from .greedypp import (
    GreedyPPResult,
    greedypp_clique_densest,
    greedypp_densest,
    greedypp_from_instances,
    greedypp_pattern_densest,
)

__all__ = [
    "DensestResult",
    "build_edge_density_network",
    "densest_subgraph",
    "maximum_edge_density",
    "all_densest_subgraphs",
    "count_densest_subgraphs",
    "enumerate_all_densest_subgraphs",
    "maximum_sized_densest_subgraph",
    "prepare_from_bound",
    "prepare_from_bound_csr",
    "all_clique_densest_subgraphs",
    "build_clique_density_network",
    "clique_densest_subgraph",
    "enumerate_all_clique_densest_subgraphs",
    "maximum_clique_density",
    "maximum_sized_clique_densest_subgraph",
    "all_pattern_densest_subgraphs",
    "build_pattern_density_network",
    "enumerate_all_pattern_densest_subgraphs",
    "maximum_pattern_density",
    "maximum_sized_pattern_densest_subgraph",
    "pattern_densest_subgraph",
    "core_decomposition",
    "innermost_core_nodes",
    "k_core",
    "kh_core",
    "kh_core_decomposition",
    "kpsi_core",
    "kpsi_core_decomposition",
    "PeelingResult",
    "peel_clique_density",
    "peel_edge_density",
    "peel_edge_density_csr",
    "peel_pattern_density",
    "KClistResult",
    "kclistpp_densest",
    "GreedyPPResult",
    "greedypp_clique_densest",
    "greedypp_densest",
    "greedypp_from_instances",
    "greedypp_pattern_densest",
]
