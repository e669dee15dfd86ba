"""Exact Erdos-Ko-Rado-type verification for independent sets in graphs.

Counting of star sizes, exact maximum intersecting families, EKR / strict
EKR / leaf-maximum verdicts, closed-form bounds with applicability windows,
inequality grids, and exhaustive tree sweeps.
"""

from .graphs import (
    MAX_VERTICES,
    GeneratorError,
    Graph,
    Graph6Error,
    GraphError,
    SpiderSpec,
    automorphism_generators,
    bit_list,
    emit_graph6,
    generate,
    iter_bits,
    mask_of,
    max_independent_set_size,
    min_maximal_independent_set_size,
    parse_edge_list,
    parse_graph6,
    read_graph6_lines,
    spider_order,
)
from .families import (
    CountResult,
    PathMerge,
    all_independent_sets,
    count_path_rsets,
    count_rsets,
    enum_independent_rsets,
    indep_size_counts,
    indep_size_counts_tree_dp,
    merge_paths,
    merge_tree_paths,
    splitstar_witness,
    star_size,
    star_vector_tree_dp,
    star_vectors_tree_dp,
)
from .bounds import (
    Applicability,
    BoundQuery,
    GridRow,
    IneqResult,
    PeelReport,
    big_star_lower,
    binom,
    binoms2_ineq_check,
    binoms_ineq_check,
    check_degree_product,
    check_exp_linear,
    check_one_minus_exp,
    claim_star_lower,
    ekr_bound,
    frankl_bound,
    hm_bound,
    hm_bound_sum_form,
    hm_identity_check,
    hypothesis,
    peel,
    peel_bound_check,
    peel_certificates_ok,
    rmax,
    run_grid,
    spider_star_lower,
    split_star_lower,
    write_grid_csv,
    write_grid_json,
)
from .verify import (
    BUDGET_EXCEEDED,
    EKR,
    NOT_EKR,
    STRICTLY_EKR,
    EkrReport,
    HkReport,
    SearchBudget,
    SpiderOrderReport,
    is_intersecting,
    is_r_ekr,
    is_r_hk,
    is_strictly_r_ekr,
    max_nonstar_intersecting,
    nonuniform_ekr,
    spider_order_check,
    star_center,
)
from .treegen import (
    SweepFinding,
    SweepSummary,
    free_trees,
    search_catalog,
    search_trees,
    tree_certificate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
