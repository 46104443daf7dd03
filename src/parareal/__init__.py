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
from .models import (
    LinearScalarModel,
    SplitIvp,
    UnsupportedSignalError,
    exact_linear_propagate,
    exact_trajectory,
    parse_model,
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
    parse_signal,
)

# ``analysis`` (studies, order fits, bounds) is imported on first use of one of
# its names (PEP 562), so a process that only runs parareal never compiles it.
_ANALYSIS_NAMES = frozenset({
    "BoundParams", "ConvergenceStudy", "OrderFit", "OrderProbe",
    "StudySpec", "defect_scaling_study", "eval_bound", "fit_order",
    "local_order_probe", "run_study",
})


def __getattr__(name: str):
    if name in _ANALYSIS_NAMES:
        from . import analysis

        return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _ANALYSIS_NAMES)


__all__ = [
    "BoundParams",
    "Constant",
    "ConvergenceStudy",
    "Difference",
    "ExactLinearPropagator",
    "FixedIterations",
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
    "UnsupportedSignalError",
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
    "reference_trajectory",
    "run_study",
    "__version__",
]
