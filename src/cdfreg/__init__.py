"""Functional linear regression of contextual CDFs.

Estimate simplex mixture weights over context-dependent CDF bases from
(context, outcome) samples, evaluate high-probability error bounds for the
estimates, and run replicated synthetic and tabular-data experiments.
"""

__version__ = "0.1.0"

from .basis import (BasisFamily, BernoulliBasis, GaussianLaplaceBasis, LogisticProbitBasis,
                    PolynomialBasis, check_simplex, inverse_cdf_sample)
from .bounds import (epsilon_lambda, epsilon_unreg, fit_loglog_slope,
                     hilbert_bound, ks_distance, ks_grid, l2_error_crps,
                     min_eigenvalue, mismatch_bound, penalized_bound,
                     weighted_norm)
from .errors import BracketError, CdfRegError, ConvergenceError, SingularGram
from .estimators import (EmpiricalCdf, delta_nU_default, fit_mle_simplex,
                         hilbert_estimate, penalized_estimate, project_simplex,
                         ridge_estimate, unregularized_estimate)
from .gram import (GramState, accumulate, gram_matrix_of_context, regularized_gram,
                   response_vector_of_sample)
from .measure import (QuadMeasure, jump_panel,
                      make_counting_measure, make_gaussian_measure,
                      make_uniform_measure, measure_from_spec, tail_mass)
from .synth import (ExperimentRecord, hard_instance_matrix, run_coverage_experiment,
                    run_scaling_experiment, sample_scheme2)
