"""Compress mixture-of-experts models into a shared base plus low-rank deltas.

Pipeline: capture calibration statistics, merge experts into a base weight
(Fisher-weighted by default), factorize each expert's residual with a
truncation-aware SVD whitened by its activation Gram, prune base columns
semi-dynamically, and run the compressed model with the same routing.
"""

from .analysis import (
    RatioAllocation,
    SensitivityProfile,
    allocate_adaptive_ratios,
    cka,
    energy_retention,
    layer_sensitivity_scan,
)
from .config import PRESETS, CompressionConfig, apply_overrides, apply_preset, parse_config_file
from .container import (
    container_load,
    container_save,
    load_any,
    load_calibration,
    load_compressed_model,
    load_model,
    save_calibration,
    save_compressed_model,
    save_model,
)
from .errors import (
    BadMagicError,
    ConfigError,
    ContainerError,
    D2MoeError,
    DegenerateInputError,
    ManifestError,
    NonFinitePayloadError,
    NotPositiveDefiniteError,
    NumericalError,
    OverlappingPayloadError,
    ParameterError,
    ShapeError,
    TruncatedPayloadError,
)
from .factorize import (
    DeltaFactor,
    rank_for_ratio,
    vanilla_svd_compress,
    weighted_error,
    whitened_factors,
)
from .fixtures import Fixture, gen_fixture
from .gradients import FISHER_MODES, FisherInfo, GradientSet, backward_logloss, fisher_accumulate
from .linalg import cholesky_damped
from .merge import MERGE_METHODS, compute_deltas, weighted_merge
from .moe import (
    LayerCapture,
    MoELayer,
    MoEModel,
    Role,
    RoutingTrace,
    capture_calibration,
    expert_frequency,
    layer_forward_dense,
    moe_forward_dense,
    silu,
)
from .pipeline import (
    EvalResult,
    LayerBuild,
    LayerStats,
    build_compressed_layer,
    compress,
    compute_layer_stats,
    evaluate,
    ratio_frontier,
)
from .pruning import (
    PrunedBase,
    dynamic_mask,
    static_metric,
    static_metric_from_gram,
    static_prune,
)
from .report import (
    CompressionReport,
    LayerRecord,
    read_report,
    strip_timings,
    write_cka_csv,
    write_frontier_csv,
    write_report,
    write_sensitivity_csv,
)
from .runtime import (
    CompressedLayer,
    CompressedModel,
    ParamReport,
    census_active_params,
    census_static_params,
    closed_form_params,
    compressed_forward,
    compressed_model_forward,
    param_report,
    trim_deltas,
)

__version__ = "0.1.0"
