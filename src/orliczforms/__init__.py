"""Numerical toolkit for differential-form calculus on bounded convex domains:
exterior algebra, the averaged homotopy operator, Luxemburg/Orlicz norms,
oscillation (BMO / Lipschitz) seminorms, ball-average weight classes, and an
empirical inequality-verification harness over a built-in form corpus.
"""

from .errors import (ConfigError, DegreeError, DivergedIntegralError,
                     EmptyBallFamilyError, ExpressionError, InvalidInputError,
                     NoConvergenceError, OrliczFormsError, OutOfDomainError,
                     RejectedPairError)
from .exterior import (CovectorValue, MultiIndex, hodge_star, modulus,
                       multi_indices, num_components, wedge)
from .geometry import (Ball, Box, Domain, Quadrature, ball_family, ball_inside,
                       ball_volume)
from .forms import (BumpField, CallableField, ConstantField, DifferentialForm,
                    ExprField, GridField, RadialPowerField, as_field,
                    check_analytic_partials, codifferential, evaluate)
from .homotopy import (BumpFunction, apply_Ky, apply_T, closed_part,
                       closed_part_values, decomposition_residual, materialize)
from .young import (GClassReport, OscillationNormSpec, OscillationResult,
                    WRHReport, YoungFunction, check_g_class, check_wrh,
                    custom_young, lp_norm, luxemburg_norm, oscillation_norm,
                    oscillation_profile, oscillation_residuals, oscillation_sup,
                    power, power_log, young_violations)
from .weights import (AClassReport, PhiDominatedReport, Weight, check_a_class,
                      check_phi_dominated, constant_weight, custom_weight,
                      power_weight)
from .corpus import CorpusEntry, build_corpus, default_domain, named_form
from .config import DEFAULT_CONFIG, RunConfig, load_config
from .harness import (HarnessContext, VerificationReport, VERIFIER_NAMES,
                      reports_to_csv, reports_to_json, run_suite, suite_passed,
                      verify_conjugate_pair, verify_lemma_closedpart_bound,
                      verify_lemma_T_bound, verify_oscillation_lower_bound,
                      verify_sobolev_poincare, verify_thm_bmo,
                      verify_thm_bmo_le_lip, verify_thm_lipschitz,
                      verify_weighted_lipschitz)

__version__ = "0.1.0"
