"""Growth-optimal rebalancing under fixed plus proportional transaction costs.

Solves for the optimal constant-boundary strategy (wait until the risky
fraction leaves (a, b), rebalance to alpha or beta), the reflecting-boundary
limit model for vanishing fixed costs, and provides seeded Monte Carlo and
semi-analytic evaluators to cross-check every number.
"""

from .market import (CostParams, MarketParams, ParameterError,
                     apply_generator, apply_generator_transformed,
                     from_centered, from_centered_deriv, growth_integrand,
                     growth_integrand_transformed, merton_fraction,
                     to_centered, trade_cost_gamma, trade_cost_transformed,
                     wealth_factor)
from ._slope import NonConvergence, ParameterDegeneracy
from .qvi import (BoundaryCandidate, BoundarySolution, ValueFunction,
                  VerificationReport, build_value, residual_system,
                  slope_g, slope_g_dx, slope_g_integral, solve_boundaries,
                  verify_qvi)
from .limit import (HJBReport, LimitCandidate, LimitSolution,
                    build_limit_value, residual_system_limit, solve_limit,
                    verify_hjb_limit)
from .simulate import (CouplingRow, GrowthEstimate, PathRecord,
                       ReflectedRecord, SimConfig, TradeEvent,
                       couple_at_boundaries, couple_paths,
                       estimate_growth_impulse, estimate_growth_reflected,
                       path_generator, simulate_impulse_path,
                       simulate_reflected_path)
from .lab import (BruteForceResult, ConvergenceReport, DegenerateChain,
                  SweepRow, SweepTable, brute_force_boundaries,
                  convergence_report, evaluate_policy_renewal,
                  exit_prob_up, expected_exit_time, expected_running_reward,
                  sweep_delta)

__version__ = "0.1.0"
