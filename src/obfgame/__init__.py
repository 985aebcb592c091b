"""Equilibria of the bi-level obfuscation game between data-perturbing users
and a privacy-promising learner, with an empirical ERM laboratory and a
differential-privacy calibrator."""

from .dp import (
    DpScalingReport,
    DpScalingRow,
    DpSpec,
    EpsilonResult,
    gaussian_epsilon,
    scaling_check,
)
from .erm import (
    Classifier,
    Dataset,
    ErmConfig,
    ExcessRisk,
    FitResult,
    GeneratorSpec,
    PerturbationSpec,
    ScalingLevel,
    ScalingReport,
    erm_fit,
    excess_risk,
    generate_synthetic,
    perturb_dataset,
    reference_classifier,
    scaling_experiment,
)
from .errors import (
    ConfigError,
    DegenerateRegressionError,
    InconsistencyError,
    InfeasiblePromiseError,
    InfiniteLeakageError,
    NoCrossingError,
    ObfGameError,
    UndefinedThresholdError,
)
from .mfg import (
    BestResponse,
    CascadeTrace,
    MfgEquilibria,
    MfgRegime,
    ResponseKind,
    best_response,
    best_response_oracle,
    br_curve,
    cascade_simulate,
    fixed_point_check,
    gamma,
    mfg_equilibria,
)
from .model import (
    GameParams,
    ModelConventions,
    abstain_value,
    accuracy_level,
    kappa,
    learner_utility,
    privacy_level,
    privacy_pressure,
    user_utility,
)
from .stackelberg import (
    EquilibriumRegime,
    EquilibriumReport,
    RegimeConditions,
    Thresholds,
    classify_regime,
    induced_leader_utility,
    leader_utility_piecewise,
    pbne_solve,
    sg_equilibrium,
    tau_exact,
    tau_hat,
    threshold_crossings,
    thresholds,
)

__version__ = "0.1.0"
