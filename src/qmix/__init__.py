"""qmix: continuous quantum walks on weighted graphs - uniform-mixing search
and sound spectral/combinatorial certificates that rule mixing out."""

__version__ = "0.1.0"

from .graphs import (Bipartition, CycleFlags, DegreeStats, GraphFormatError, MatrixKind,
                     TwinKind, TwinSubgraphWitness, WeightClass, WeightedGraph, bipartition,
                     cycle_flags, degree_stats, find_twin_pairs, is_connected, is_tree,
                     matrix_of, parse_graph6, parse_weighted_edgelist, search_twin_subgraphs,
                     verify_twin_subgraphs)
from .spectral import (EigenvalueSupport, SpectralDecomposition, SpectralError,
                       SpectrumClassification, SpectrumKind, classify_spectrum, decompose,
                       decompose_graph, decompose_graphs, exact_kernel, signed_kernel_vectors,
                       support, vertex_support)
from .walk import (FeasibilityReport, HadamardClass, HadamardKind, TargetStateCandidate,
                   bipartite_block_check, hadamard_classify, matrix_uniform_deviation,
                   mixing_deviation, regular_equivalence_check, states_proportional,
                   transition_matrix, verify_target_state)
from .search import (Detection, MixingReport, empirical_inf, golden_section, scan_local,
                     scan_uniform)
from .periodicity import (PeriodicityStatus, PeriodicityVerdict, RatioConditionResult,
                          RatioMode, check_real_target_period, classify_periodic_support,
                          is_periodic_vertex, ratio_condition, vertex_periodicity)
from .certificates import (RULES, CertificateReport, CertificateVerdict, GraphFacts, Verdict,
                           cert_bipartite_global, cert_bipartite_parity, cert_connectivity,
                           cert_degree_A_c4free, cert_degree_LQ, cert_eigenvector_inequality,
                           cert_kernel_vector, cert_pendant_pair, cert_twin_subgraphs,
                           cert_twins, certify_graph, certify_vertex, collect_facts)
from .tolerances import DEFAULT_TOLERANCES, Tolerances
