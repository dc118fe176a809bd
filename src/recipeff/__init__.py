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

from .core import make_reciprocal, pareto_dominates, perron, random_reciprocal
from .digraph import (
    analyze,
    build_digraph,
    dominating_vector,
    hamiltonian_cycle,
    no_source_theorem_check,
    sources,
    strongly_connected,
)
from .extensions import (
    conjugated_extension,
    constant_row_sum_extension,
    extension_source_scan,
    remove_index,
    row_sums,
    well_behaved_type_I,
)
from .harness import grid_sweep
from .zfamily import (
    ZParams,
    eigen_identity_residuals,
    forbidden_reverse_edges,
    guarantee_a1,
    guarantee_n4,
    guarantee_n5plus,
    predicted_edges,
    z_matrix,
)
