"""Fully-dynamic, cash non-additive risk measures on finite filtered models.

The library evaluates entropic-family and shortfall-family risk measures on
scenario trees and binomial lattices, solves the BSDEs that generate them,
exposes their quasi-convex dual representation at desk scale, and ships
property checkers for the axioms involved (cash (sub)additivity,
monotonicity, (quasi-)convexity, normalization, restriction and horizon
longevity).  The ``riskctl`` command runs batch experiments from JSON
configs.
"""

from .errors import (ConfigurationError, DomainError, RangeError,
                     RiskLibError, SolverError, SpecificationError,
                     TimeGridError, TreeStructureError)
from .probspace import (BrownianLattice, FiltrationModel, RandomVariable,
                        ScenarioTree)
from .qcalculus import QParams, exp_q, exp_q_extended, ln_q, q_domain_floor
from .measures import (HorizonSchedule, LossSpec, QMonotonicityReport,
                       StepFunction, UtilityFn, certainty_equivalent,
                       discounted_wrap, entropic, expected_loss, h_entropic,
                       hq_entropic_losses, longevity_index,
                       monotone_in_q_check, q_entropic_losses)
from .bsde import (BsdeSolution, Driver, GenericLipschitzDriver,
                   LinearDriver, QuadraticQDriver, g_risk_measure,
                   longevity_girsanov, quadratic_transform_solve,
                   restriction_check, solve_bsde, solve_family)
from .shortfall import (AggregatorFn, CeEquivalenceReport, ExtendedReal,
                        RiskSentinel, ShortfallSpec, TargetSchedule,
                        acceptance_member, ce_equivalence_check,
                        dynamic_shortfall, h_var, hq_shortfall_spec,
                        static_shortfall)
from .duality import (DualGrid, DualReport, c_min, c_min_bruteforce,
                      dual_value, rho_bar, risk_map_R)
from .axioms import (AxiomReport, check_cash_additive, check_cash_subadditive,
                     check_convex, check_h_longevity, check_monotone,
                     check_normalized, check_quasi_convex, check_restriction)

__version__ = "0.1.0"
