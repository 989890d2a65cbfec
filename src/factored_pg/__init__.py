"""Policy gradients for factorized policies with per-factor baselines.

The package pairs a training stack (environments, policies, fitted baselines,
gradient estimator, natural-gradient optimizer, experiment harness) with
exact-enumeration oracles that certify the estimator's unbiasedness and the
baselines' variance-optimality on small tabular problems.
"""

from .baselines import (
    BASELINE_KINDS,
    BaselineSpec,
    BaselineState,
    QModel,
    TableModel,
)
from .config import (
    ArmConfig,
    EnvConfig,
    ExperimentConfig,
    OptimizerConfig,
    PolicyConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    matching_task_config,
    save_config,
)
from .envs import (
    Environment,
    MdpSpec,
    PointMass,
    TabularMdp,
    TargetMatching,
    make_env,
    solve_threshold_default,
)
from .errors import (
    ConfigError,
    EnumerationSizeError,
    NotEnumerableError,
    SingularSystemError,
    ZeroScoreNormError,
)
from .estimator import (
    GradientReport,
    gae_advantages,
    gradient_variance,
    pg_estimate,
    score_matrix,
    whiten,
)
from .features import (
    FeatureMap,
    IndicatorFeatures,
    LinearModel,
    QuadraticMap,
    RawFeatures,
    RffMap,
    default_ridge,
    fit_linear,
    median_bandwidth,
)
from .harness import (
    SolveTimeRow,
    first_crossing,
    lambda_sweep,
    load_curve,
    load_policy,
    run_experiment,
    summarize_run,
    table1_report,
)
from .optim import (
    collect_batch,
    conjugate_gradient,
    make_fvp,
    npg_step,
    rollout,
    substream,
    train,
)
from .oracle import (
    ORACLE_BASELINE_KINDS,
    EnumerableProblem,
    ExactVariance,
    OptimalBaselines,
    exact_eta,
    exact_gradient,
    exact_optimal_baselines,
    exact_pg_expectation,
    exact_q_table,
    exact_state_values,
    exact_variance,
    improvement_over_optimal,
    make_oracle_baseline,
    state_baseline_gap,
    zy_tables,
)
from .policies import (
    CategoricalPolicy,
    FactoredPolicy,
    IndependentGaussianPolicy,
)
from .trajectory import Batch, returns_to_go

__version__ = "0.1.0"
