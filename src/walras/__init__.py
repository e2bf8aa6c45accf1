"""Combinatorial-auction equilibrium laboratory.

Exact integer machinery for markets with indivisible items: demand and
over-demand diagnostics, Lyapunov analysis, ascending-auction engines,
structural checks for gross substitutes, and brute-force Walrasian oracles.
"""

from .model import (
    Instance, Prices, Allocation, Valuation, TruncationSpec, Violation,
    ModelError, TruncationBoundsViolated, InvariantViolation,
    make_table, make_additive, make_unit_demand, make_truncation,
    make_instance, validate,
    instance_from_json, instance_to_json, prices_from_json, prices_to_json,
)
from .demand import (
    DemandReport, ObstacleReport, MinimizerReport, DescentStep,
    utility, demand_sets, demand_reports, min_demand_overlap, excess_demand,
    over_demanded_set, lyapunov, minimal_minimizer, minimal_minimizer_report,
    lyapunov_descent,
)
from .oracle import (
    WelfareResult, WalrasianCertificate, MinimalPriceReport, BudgetExceeded,
    max_welfare, envy_free_exists, is_walrasian, check_allocation,
    minimal_walrasian_price,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
