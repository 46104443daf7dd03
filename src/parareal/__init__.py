"""Parallel-in-time integration for ODEs with discontinuous inputs.

The package implements the classic parareal iteration and a variant whose
coarse propagator integrates a smoothed-input problem, together with the PWM
and surrogate waveforms, exact linear solvers, implicit theta steppers and
the convergence-order measurement harness.
"""

__version__ = "0.1.0"

from .algorithm import (
    FixedIterations,
    PararealConfig,
    PararealRun,
    Termination,
    initial_guess,
    iterate,
    jump_norm,
    make_config,
    reference_trajectory,
)
from .analysis import (
    BoundParams,
    ConvergenceStudy,
    DefectStudy,
    InsufficientPointsError,
    OrderFit,
    OrderProbe,
    StudySpec,
    best_fit_constant,
    defect_ode_solution,
    defect_scaling_study,
    eval_bound,
    fit_order,
    local_order_probe,
    run_study,
)
from .models import (
    LinearScalarModel,
    SplitIvp,
    UnsupportedSignalError,
    exact_linear_propagate,
    exact_trajectory,
    parse_model,
    reduced_ivp,
)
from .propagators import (
    ExactLinearPropagator,
    NonFiniteStateError,
    Propagator,
    ThetaPropagator,
    parse_propagator,
)
from .signals import (
    Constant,
    Difference,
    PwmSingle,
    Side,
    Signal,
    SineWave,
    StepWave,
    ThreePhasePwm,
    ThreePhaseSine,
    Zero,
    parse_signal,
)

__all__ = [
    "BoundParams",
    "Constant",
    "ConvergenceStudy",
    "DefectStudy",
    "Difference",
    "ExactLinearPropagator",
    "FixedIterations",
    "InsufficientPointsError",
    "LinearScalarModel",
    "NonFiniteStateError",
    "OrderFit",
    "OrderProbe",
    "PararealConfig",
    "PararealRun",
    "Propagator",
    "PwmSingle",
    "Side",
    "Signal",
    "SineWave",
    "SplitIvp",
    "StepWave",
    "StudySpec",
    "Termination",
    "ThetaPropagator",
    "ThreePhasePwm",
    "ThreePhaseSine",
    "UnsupportedSignalError",
    "Zero",
    "best_fit_constant",
    "defect_ode_solution",
    "defect_scaling_study",
    "eval_bound",
    "exact_linear_propagate",
    "exact_trajectory",
    "fit_order",
    "initial_guess",
    "iterate",
    "jump_norm",
    "local_order_probe",
    "make_config",
    "parse_model",
    "parse_propagator",
    "parse_signal",
    "reduced_ivp",
    "reference_trajectory",
    "run_study",
    "__version__",
]
