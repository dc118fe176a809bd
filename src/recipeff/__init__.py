"""Efficiency of priority vectors for reciprocal pairwise-comparison matrices.

A positive vector w is an efficient priority vector for a reciprocal
matrix A when no other positive vector matches every entrywise deviation
|a_ij - w_i/w_j| and improves at least one.  Efficiency is decided on a
digraph: vertices 1..n, edge (i, j) iff w_i/w_j >= a_ij; w is efficient
iff the digraph is strongly connected.

The package computes Perron eigenvectors, builds and decomposes the
digraph, produces explicit dominating vectors for inefficient inputs,
decides the efficiency region of the four-parameter family Z_n(x,y,z,a),
and constructs order-(n+1) extensions with prescribed Perron vectors.
"""

from .core import (
    PerronConvergenceError,
    PerronPair,
    PerronStack,
    ReciprocalMatrix,
    make_reciprocal,
    pareto_dominates,
    perron,
    perron_stack,
    random_reciprocal,
    random_reciprocal_stack,
)
from .digraph import (
    DEFAULT_EPS_REL,
    EfficiencyDigraph,
    EfficiencyReport,
    analyze,
    analyze_stack,
    build_digraph,
    dominating_vector,
    hamiltonian_cycle,
    has_no_source,
    no_source_theorem_check,
    sinks,
    sources,
    strongly_connected,
)
from .extensions import (
    ExtensionResult,
    SourceScanReport,
    conjugated_extension,
    constant_row_sum_extension,
    extension_report,
    extension_source_scan,
    extension_source_scan_stack,
    is_extension,
    remove_index,
    row_sums,
    well_behaved_type_I,
)
from .harness import (
    DEFAULT_AXES,
    VerificationSummary,
    WalkthroughStep,
    example_base,
    example_conjugate_reference,
    example_walkthrough,
    grid_sweep,
    verify_paper_suite,
)
from .matio import (
    load_matrix,
    load_vector,
    report_json,
    report_to_dict,
    save_report,
)
from .zfamily import (
    CYCLE_CATALOG,
    IdentityResiduals,
    RegionVerdict,
    ZParams,
    ZPoint,
    ZStack,
    eigen_identity_residuals,
    evaluate_z,
    evaluate_z_stack,
    forbidden_reverse_edges,
    guarantee_a1,
    guarantee_n4,
    guarantee_n5plus,
    predicted_edges,
    reduce_to_min_first,
    table_oracle,
    z_matrix,
)

