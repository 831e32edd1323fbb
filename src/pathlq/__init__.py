"""Structured LQ control on delayed path graphs.

Closed-form controller synthesis, the online two-sweep control law with
disturbance feed-forward and receding-horizon updates, a message-passing
execution harness, and an independent dense LQ oracle for certification.
"""

from .errors import (
    HorizonViolationError,
    InvalidHorizonError,
    LedgerRangeError,
    RoundAbortError,
    SpecError,
)
from .model import (
    ControlDecision,
    GraphSpec,
    PlantState,
    Trajectory,
    aggregate_delays,
    plant_step,
    stage_cost,
    validate_spec,
)
from .ledger import (
    DisturbancePlan,
    ShiftedWindows,
    advance_time,
    apply_plan_updates,
    init_shifted_sums,
    validate_horizon,
)
from .synthesis import ControllerParams, NodeParams, synthesize
from .controller import SweepState, control_step
from .simulate import SimulationResult, closed_loop
from .oracle import (
    AugmentedSystem,
    build_augmented_system,
    solve_finite_horizon,
    stationary_riccati,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
