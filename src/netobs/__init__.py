"""Observability radius of linear network systems.

Smallest structured perturbation (Frobenius norm, support-constrained) that
makes a sensed linear network system unobservable, plus closed-form oracles
for special topologies and Monte Carlo ensemble tooling.
"""

from .network_model import (ConstraintMask, NetworkFormatError, NetworkSystem,
                            MaskSupportError, Perturbation,
                            UnobservableSystemError, canonicalize,
                            is_observable, load_network, network_from_dict,
                            pbh_margin, perturbation_from_dict,
                            perturbation_to_dict, verify_unobservability)
from .radius_core import (CandidateTriple, SpuriousTripleError,
                          assemble_pencil, assemble_real_pencil,
                          build_reduced, build_weightings, embed_real_triple,
                          normalize_triple, orthogonality_diagnostic,
                          reconstruct_perturbation, system_residual)
from .solver import (SolverConfig, candidate_lambdas, generalized_spectrum,
                     heuristic_iterate, solve_fixed_lambda, solve_radius)
from .analytic_oracles import (OracleFailure, cut_bound, cut_bound_asymptote,
                               enumerate_cut_family, line3_optimal,
                               line_radius, min_deletion_cost, star_radius)
from .montecarlo import (EnsembleSpec, convergence_experiment, dkw_epsilon,
                         estimate_expected_radius, sample_network,
                         survival_deviation)

__version__ = "0.1.0"

__all__ = [
    "ConstraintMask", "NetworkFormatError", "NetworkSystem",
    "MaskSupportError", "Perturbation", "UnobservableSystemError",
    "canonicalize", "is_observable", "load_network", "network_from_dict",
    "pbh_margin", "perturbation_from_dict", "perturbation_to_dict",
    "verify_unobservability",
    "CandidateTriple", "SpuriousTripleError", "assemble_pencil",
    "assemble_real_pencil", "build_reduced", "build_weightings",
    "embed_real_triple", "normalize_triple", "orthogonality_diagnostic",
    "reconstruct_perturbation", "system_residual",
    "SolverConfig", "candidate_lambdas", "generalized_spectrum",
    "heuristic_iterate", "solve_fixed_lambda", "solve_radius",
    "OracleFailure", "cut_bound", "cut_bound_asymptote",
    "enumerate_cut_family", "line3_optimal", "line_radius",
    "min_deletion_cost", "star_radius",
    "EnsembleSpec", "convergence_experiment", "dkw_epsilon",
    "estimate_expected_radius", "sample_network", "survival_deviation",
    "__version__",
]
