"""Exact-arithmetic toolkit for tropical curve obstruction theory.

tropctl decides superabundancy of tropical curves over the rationals: it
computes dual obstruction spaces as kernels of exact linear systems (a chain
method for 3-valent types and a residue method that also covers
higher-valent vertices), abundancy maps, resolution trees from Laurent
order data, and the loop-direction smoothing criterion for genus-1 curves.
"""

from .curves import (
    CombinatorialType,
    TropicalCurve,
    contract_image,
    degree,
    expected_dim,
    is_immersive,
    parse_curve,
    replace_star,
    serialize_curve,
)
from .errors import PreconditionError, TropctlError, ValidationError
from .graphs import AbstractGraph, Chain, Edge, Flag
from .laurent import (
    LaurentSeries,
    PhyloLeaf,
    PhyloNode,
    clusters,
    laurent_cmp,
    laurent_greater,
    laurent_less,
    parse_laurent_doc,
    phylo_tree,
    rebase,
)
from .obstruction import (
    abundancy_map,
    classify_report,
    compatible_numbering_space,
    dual_obstruction_chain,
    dual_obstruction_dim,
    parameter_dimension,
    reduced_abundancy_map,
)
from .residues import (
    LocalModel,
    a_system,
    a_values,
    b_system,
    degeneration_compare,
    genus1_loop_criterion,
    model_from_doc,
    resolve_by_phylo,
    standard_local_model,
    xi_map,
)

__version__ = "0.1.0"

__all__ = [
    "AbstractGraph",
    "Chain",
    "CombinatorialType",
    "Edge",
    "Flag",
    "LaurentSeries",
    "LocalModel",
    "PhyloLeaf",
    "PhyloNode",
    "PreconditionError",
    "TropctlError",
    "TropicalCurve",
    "ValidationError",
    "a_system",
    "a_values",
    "abundancy_map",
    "b_system",
    "classify_report",
    "clusters",
    "compatible_numbering_space",
    "contract_image",
    "degeneration_compare",
    "degree",
    "dual_obstruction_chain",
    "dual_obstruction_dim",
    "expected_dim",
    "genus1_loop_criterion",
    "is_immersive",
    "laurent_cmp",
    "laurent_greater",
    "laurent_less",
    "model_from_doc",
    "parameter_dimension",
    "parse_curve",
    "parse_laurent_doc",
    "phylo_tree",
    "rebase",
    "reduced_abundancy_map",
    "replace_star",
    "resolve_by_phylo",
    "serialize_curve",
    "standard_local_model",
    "xi_map",
]
