"""Max-flow substrate: object networks with residual access and their
flat CSR twins, Dinic for object networks, FIFO push-relabel for CSR
networks, SCCs."""

from .network import Arc, Capacity, FlowNetwork, NetNode
from .csr import CSRFlowNetwork, build_edge_density_network_csr
from .maxflow import max_flow, min_cut_maximal_source_side, min_cut_source_side
from .push_relabel import csr_push_relabel
from .scc import condensation_successors

__all__ = [
    "Arc",
    "Capacity",
    "FlowNetwork",
    "NetNode",
    "CSRFlowNetwork",
    "build_edge_density_network_csr",
    "max_flow",
    "min_cut_maximal_source_side",
    "min_cut_source_side",
    "csr_push_relabel",
    "condensation_successors",
]
