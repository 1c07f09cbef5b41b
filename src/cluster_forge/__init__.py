"""cluster-forge: exact and stochastic analysis of fusion strategies for
linear cluster chains, with rigorous bounds and 2D weaving analytics."""

__version__ = "0.1.0"

from .configuration import (
    FAILURE,
    STOP,
    SUCCESS,
    Action,
    Configuration,
    Fuse,
    IdentityConfiguration,
    InvalidFusionError,
    Stop,
    canonical_key,
    enumerate_configurations,
    parse_key,
)
from .strategies import (
    BUILTIN_STRATEGIES,
    GREED,
    MODESTY,
    STATIC,
    Greed,
    IdentityAdapter,
    InvalidStrategy,
    LookupStrategy,
    Modesty,
    StatefulStrategy,
    Strategy,
    TwoStage,
    validate_strategy,
    validate_strategy_sweep,
)
from .exact import (
    HALF,
    OracleResult,
    QualityTable,
    TableBudgetExceeded,
    build_quality_table,
    cached_quality_table,
    event_tree_oracle,
    expected_attempts,
    optimal_attempts,
    optimal_quality,
    strategy_quality,
)

__all__ = [
    "__version__",
    "SUCCESS", "FAILURE", "STOP",
    "Action", "Fuse", "Stop",
    "Configuration", "IdentityConfiguration", "InvalidFusionError",
    "canonical_key", "parse_key", "enumerate_configurations",
    "Strategy", "StatefulStrategy", "Greed", "Modesty", "TwoStage",
    "IdentityAdapter", "InvalidStrategy", "LookupStrategy",
    "GREED", "MODESTY", "STATIC", "BUILTIN_STRATEGIES", "validate_strategy",
    "validate_strategy_sweep",
    "HALF", "QualityTable", "TableBudgetExceeded", "OracleResult",
    "strategy_quality", "expected_attempts", "optimal_quality",
    "optimal_attempts", "build_quality_table", "cached_quality_table",
    "event_tree_oracle",
]
