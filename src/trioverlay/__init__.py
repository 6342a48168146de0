"""Two-layer blow-up-overlay constructions of triangle-free graphs.

The pipeline: sample two small random "base" graphs, overlay them on an
N x N grid of cells (rows carry the red base, columns the blue), delete the
flags that would complete triangles, then place n vertices injectively into
cells and read off the induced graph.  The result is triangle-free by
construction, with density and independence behaviour the analysis helpers
measure.  A 3-uniform variant replaces triangles by 4-vertex stars.
"""

__version__ = "0.1.0"

from .analysis import (ConcentrationReport, SetClassification, choose2,
                       classify_sets, concentration_report,
                       edges_are_open_plus, f_function, sample_k_sets)
from .baselines import (BaselineResult, edge_deletion_baseline,
                        triangle_free_process)
from .construction import (BaseGraph, ColoredProductGraph, PlacedGraph,
                           Placement, apply_deletion_rule, build, rebuild,
                           common_neighbor_matrix,
                           common_upper_neighbor_matrix, conormal_product,
                           induce_final_graph, sample_base_graphs,
                           sample_injection)
from .graphview import SimpleGraphView, count_triangles
from .hypergraph import (BLUE, RED, TripleSystem, extract_link,
                         hyper_product, inject_hyper, s4_reduction,
                         sample_base_3graphs, verify_s4_free)
from .independence import (IndependenceResult, independence_exact,
                           independence_greedy, is_independent_set)
from .params import (Params, derive_params, explicit_params, feasible_params)
from .serialize import (InstanceRecord, TripleRecord, graph_record,
                        instances_equal, read_instance, triple_record,
                        write_instance)

__all__ = [
    "__version__",
    # params
    "Params", "derive_params", "explicit_params", "feasible_params",
    # graph machinery
    "SimpleGraphView", "count_triangles",
    # construction
    "BaseGraph", "ColoredProductGraph", "Placement", "PlacedGraph",
    "sample_base_graphs", "conormal_product", "apply_deletion_rule",
    "sample_injection", "induce_final_graph", "build", "rebuild",
    "common_neighbor_matrix", "common_upper_neighbor_matrix",
    # analysis
    "ConcentrationReport", "concentration_report", "SetClassification",
    "classify_sets", "edges_are_open_plus", "choose2", "f_function",
    "sample_k_sets",
    # independence
    "IndependenceResult", "independence_exact", "independence_greedy",
    "is_independent_set",
    # hypergraph
    "RED", "BLUE", "TripleSystem",
    "sample_base_3graphs", "hyper_product", "inject_hyper", "s4_reduction",
    "extract_link", "verify_s4_free",
    # baselines
    "BaselineResult", "edge_deletion_baseline", "triangle_free_process",
    # serialization
    "InstanceRecord", "TripleRecord", "graph_record", "triple_record",
    "write_instance", "read_instance", "instances_equal",
]
