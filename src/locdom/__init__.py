"""Exact location-domination invariants on small graphs.

Core objects: bitmask-backed immutable graphs, an exact hitting-set
branch-and-bound for the domination / location-domination / global
location-domination numbers, named family constructors with closed-form
value tables, block-cactus characterization predicates, and a graph6
census harness.
"""

from .graph import (
    BlockDecomposition,
    DisconnectedGraphError,
    Graph,
    blocks,
    complement,
    connected_components,
    delete_vertex,
    diameter,
    distance_matrix,
    eccentricity,
    find_isomorphism,
    induced_subgraph,
    is_connected,
    is_isomorphic,
    iter_bits,
    join,
    radius,
    union,
    vset,
    vset_members,
)
from .solver import (
    ComplementRelation,
    GlobalityReport,
    NonglobalConditions,
    SolveResult,
    complement_relation,
    dominating_vertex,
    domination_number,
    global_location_domination_number,
    globality,
    has_global_ld_code,
    is_dominating,
    is_global_ld_set,
    is_ld_set,
    ld_codes,
    location_domination_number,
    lower_bound,
    traces,
)
from .families import (
    FamilyDescriptor,
    FamilySpecError,
    FormulaTriple,
    FormulaUnsupportedError,
    build,
    formula,
    lambda_complement_path_cycle_identity,
    parse_family_spec,
)
from .blockcactus import (
    FamilyMatch,
    HierarchyTags,
    StructureReport,
    classify_lambda2_blockcactus,
    hierarchy,
    match_complement_families,
    match_nonglobal_families,
    predict_complement_plus_one,
    predict_lambda_g,
    validate_nonglobal_structure,
)
from .graph6 import Graph6ParseError, emit_graph6, iter_graph6, parse_graph6

__version__ = "0.1.0"
