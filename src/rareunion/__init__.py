"""Estimators, conditional tail samplers and efficiency diagnostics for
probabilities of unions of dependent rare events.

The pieces fit together as follows: a :mod:`~rareunion.models` object
describes the joint law and its exceedance events; the
:mod:`~rareunion.estimators` turn it into union-probability or
tail-functional estimates with reproducible seeding; the
:mod:`~rareunion.oracles` provide deterministic ground truth where the
structure allows it; and :mod:`~rareunion.efficiency` answers whether an
estimator's relative error survives the rare-event limit.  The command
line front end in :mod:`~rareunion.cli` drives grid experiments from JSON
configs.
"""

from .errors import CapabilityError, ModelSpecError, QuadratureError, RareUnionError
from .events import (
    PartitionCell,
    binomial_term,
    brute_force_tail_expectation,
    brute_force_union,
    cell_for_pattern,
    enumerate_patterns,
    partition_cells,
    residual_term,
)
from .models import (
    ArchimedeanModel,
    DependenceModel,
    FinitePatternModel,
    LaplaceModel,
    NormalModel,
    build_model,
)
from .samplers import (
    gibbs_bivariate_truncated,
    laplace_conditional_exceedance,
    sample_inverse_gaussian,
    sample_truncated_std_normal,
    sample_truncated_std_normal_pair,
)
from .estimators import (
    ESTIMATOR_NAMES,
    BonferroniBounds,
    EstimateResult,
    Payoff,
    bonferroni_bounds,
    estimate_beta_n,
    exhaustive_estimator_mean,
    exhaustive_residual_second_moment,
    exhaustive_variance_components,
    run_estimator,
)
from .oracles import (
    QmcEstimate,
    oracle_for_model,
    oracle_union_laplace,
    oracle_union_normal_equicorr,
    oracle_union_normal_qmc,
)
from .efficiency import (
    ARCHIMEDEAN_TABLE,
    BRE,
    INEFFICIENT,
    LE,
    LEDFORD_TAWN_TABLE,
    UNKNOWN,
    EfficiencyVerdict,
    EllipticalInput,
    KotzRadial,
    LedfordTawnParams,
    NORMAL_RADIAL,
    RatioDiagnostics,
    SlowlyVarying,
    berman_univariate_asymptotic,
    bivariate_type1_asymptotic_rate,
    classify_archimedean,
    classify_kotz3,
    classify_ledford_tawn,
    classify_model,
    classify_normal,
    empirical_efficiency_ratio,
    gaussian_copula_ledford_tawn,
    savage_condition,
)

__version__ = "0.1.0"
