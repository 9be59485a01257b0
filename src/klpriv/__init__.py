"""KL privacy accounting for noisy gradient descent on ReLU networks."""

__version__ = "0.1.0"

from .accountant import (
    BoundReport,
    DnnBoundInputs,
    KLConstant,
    TradeoffSchedule,
    averaged_iterate_risk_bound,
    dnn_drift_bound,
    expected_grad_norm_init,
    expected_output_sqnorm_init,
    gradient_norm_constant_B,
    kl_bound_linearized,
    kl_to_dp_delta,
    lazy_R_bound,
    table_closed_form_B,
    tradeoff_schedule,
)
from .data import (
    Dataset,
    Neighbor,
    NeighborSet,
    enumerate_neighbors,
    load_csv,
    normalize_to_sqrt_d,
    save_csv,
    synth_sphere,
)
from .estimator import (
    DnnModel,
    KLEstimationResult,
    KLTrace,
    LinearizedModel,
    McReport,
    TrainConfig,
    lin_averaged_iterate,
    mc_grad_norm_at_init,
    mc_linearized_grad_diff,
    mc_output_sqnorm,
    neighbor_grad_diffs,
    noisy_gd_step,
    run_kl_estimation,
    run_streams,
)
from .linearized import (
    GramAnalysis,
    LazySolution,
    NtkFeatures,
    build_features,
    gram_analysis,
    lazy_solution,
    lin_empirical_loss,
    lin_forward,
    lin_per_example_grads,
)
from .network import (
    LossKind,
    NetArch,
    ParamVector,
    forward_batch,
    init_betas,
    jacobian_batch,
    per_example_grad_batch,
    sample_init,
)
from .numerics import (
    RankDeficiencyError,
    RngStream,
    finite_diff_gradient,
    psd_spectrum,
    solve_psd,
)
