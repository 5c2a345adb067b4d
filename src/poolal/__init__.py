"""Bayesian pool-based active learning on finite hypothesis spaces.

Greedy query policies with certified approximation ratios, brute-force
exact oracles for cross-checking them, executable robustness bounds
under prior perturbation, and sequential mixture-prior learning.
"""

from .core import (
    EmptyVersionSpaceError,
    Hypothesis,
    Instance,
    InstanceFormatError,
    LabeledSet,
    ModelEnsemble,
    Prior,
    full_hypothesis_space,
    induce_prior,
    l1_distance,
    label_marginals,
    label_seq_prob,
    load_instance,
    perturb,
    point_mass,
    posterior,
    random_instance,
    random_prior,
    save_instance,
    uniform_prior,
)
from .mixture import (
    ImpossibleObservationError,
    MixtureState,
    ProbabilisticEnsemble,
    flattened_prior,
    grid_task,
    initial_state,
    map_approx_marginal,
    mixture_marginal,
    mixture_marginals,
    mixture_observe,
    mixture_predict,
    mixture_step,
    mixture_trajectories,
    run_mixture,
    sample_truth,
)
from .optimal import (
    IdentificationError,
    OptResult,
    SizeCapError,
    c_avg,
    f_avg,
    f_worst,
    opt_avg,
    opt_avg_batch,
    opt_avg_naive,
    opt_min_cost,
    opt_min_cost_naive,
    opt_worst,
    opt_worst_naive,
)
from .policies import (
    CRITERIA,
    PolicyNode,
    PolicyTree,
    Transcript,
    build_batch_policy,
    build_policy,
    greedy_transcript,
    policy_to_text,
    run_policy,
    select,
    select_batch_max_gibbs,
    select_from_marginals,
)
from .robustness import (
    ALPHA_BATCH,
    ALPHA_GREEDY,
    BoundReport,
    check_avg_bound,
    check_batch_avg_bound,
    check_mincost_bound,
    check_mixture_bounds,
    check_worst_bound,
    counterexample_instance,
    gbs_alpha,
    sweep_reports,
)
from .utilities import (
    GeneralizedReduction,
    LossMatrix,
    PruningCount,
    VersionSpaceReduction,
    eval_utility,
    hamming_loss,
    lipschitz_constant,
    lipschitz_probe,
    load_loss_matrix,
    threshold_straddle_pair,
    zero_one_loss,
)

__version__ = "0.1.0"
