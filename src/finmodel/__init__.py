"""Workbench for finite first-order structures, witness-closure hulls,
hereditarily finite sets, and graph decomposition experiments."""

from .formula import (
    BoundedExists,
    Const,
    Disjunction,
    Equality,
    Exists,
    Formula,
    FormulaPack,
    Membership,
    Negation,
    ParseError,
    Var,
    free_vars,
    parse,
    relativize,
    render,
    subformula_closure,
    substitute,
)
from .structure import (
    Budget,
    BudgetExceededError,
    CompiledFormula,
    EvalError,
    FinStructure,
    compile_formula,
    eval_formula,
    eval_relativized,
    induced_substructure,
    is_absolute,
    is_sigma_elementary,
)
from .universe import (
    Hierarchy,
    build_hierarchy,
    decode_graph,
    encode_graph,
    hf_apply,
    hf_pair,
    hf_rank,
    hf_succ,
    hf_union,
)
from .hull import Chain, Hull, chain, get_pack, hull, verify_hull
from .graph import (
    Decomposition,
    Graph,
    bridges,
    check_bond_inheritance,
    cut_of,
    cut_to_bonds,
    cycle_double_cover_search,
    delete_edges,
    edge_connectivity,
    edge_disjoint_paths,
    is_bond,
    make_graph,
    odd_cut_witness,
    restrict,
    veblen_decomposition,
)
from .decompose import (
    BondFaithfulReport,
    SliceSet,
    chain_slices,
    check_bond_faithful,
    search_bond_faithful,
    slice_partition_check,
    well_reflecting_probe,
)
from .combinatorics import (
    DeltaSystem,
    SetFamily,
    free_set,
    is_delta_system,
    make_family,
    max_sunflower,
    trace_kernel_sunflower,
)

__version__ = "0.1.0"
