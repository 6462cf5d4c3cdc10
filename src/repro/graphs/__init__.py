"""Graph substrate: CSR directed graphs, builders, I/O, generators, datasets."""

from .builder import GraphBuilder
from .datasets import DATASET_NAMES, Dataset, dataset_summary, load_dataset
from .digraph import (
    DirectedGraph,
    GraphDelta,
    SharedGraphHandle,
    VersionedGraph,
)
from .generators import (
    barabasi_albert,
    chung_lu,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    paper_coverage_example,
    paper_example_graph,
    path_graph,
    rmat,
    star_graph,
    watts_strogatz,
)
from .interop import from_networkx, to_networkx
from .stats import (
    DegreeSummary,
    degree_summary,
    largest_wcc_fraction,
    powerlaw_tail_exponent,
    strongly_connected_components,
    weakly_connected_components,
)
from .io import load_npz, read_edge_list, save_npz, write_edge_list
from .weights import trivalency, uniform, weighted_cascade

__all__ = [
    "DirectedGraph",
    "GraphDelta",
    "VersionedGraph",
    "SharedGraphHandle",
    "GraphBuilder",
    "Dataset",
    "DATASET_NAMES",
    "load_dataset",
    "dataset_summary",
    "read_edge_list",
    "write_edge_list",
    "from_networkx",
    "to_networkx",
    "DegreeSummary",
    "degree_summary",
    "weakly_connected_components",
    "largest_wcc_fraction",
    "strongly_connected_components",
    "powerlaw_tail_exponent",
    "save_npz",
    "load_npz",
    "weighted_cascade",
    "trivalency",
    "uniform",
    "paper_example_graph",
    "paper_coverage_example",
    "erdos_renyi",
    "barabasi_albert",
    "watts_strogatz",
    "chung_lu",
    "rmat",
    "star_graph",
    "path_graph",
    "cycle_graph",
    "complete_graph",
]
