"""Training-free token reduction for video language models, desk scale.

Two independent stages: prune redundant visual tokens before the decoder
(spatio-temporal importance scores, per-frame adaptive or fixed-threshold
retention), then evict the KV cache of decoder layers whose hidden states
have drifted far from the visual input (cosine degradation profile). Both
stages run against a small deterministic decoder so every claim in the
test suite is checkable end to end.
"""

from .bench import cache_bytes_linear, cache_bytes_table, run_bench, scoring_cost_scaling, scoring_table
from .cache import KVCacheLayer, LayeredKVCache, Segment, SegmentedSequence
from .decoder import Decoder, DecoderConfig, PrefillResult, init_decoder
from .errors import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    BadMagicError,
    ConfigError,
    DimensionError,
    InvariantViolation,
    PositionOverflowError,
    ShapeMismatchError,
    SharpVError,
    TensorFormatError,
    TruncatedFileError,
)
from .memory import (
    DegradationProfile,
    DiscardPlan,
    apply_discard,
    degradation_profile,
    discard_decision,
    mask_discard,
    mr_metric,
    reencode_positions,
)
from .pipeline import PipelineConfig, PromptEmbeddings, baseline_generate, run_pipeline
from .pruner import (
    MODE_ADAPTIVE,
    MODE_MANUAL,
    ImportanceMap,
    PrunedVideo,
    PrunerConfig,
    RetentionPlan,
    VideoTokens,
    combined_importance,
    frame_thresholds,
    importance_maps,
    prune_video,
    select_topk,
)
from .report import RunReport, validate_report
from .synth import (
    Burst,
    Mixed,
    Static,
    SyntheticVideoSpec,
    UniformMotion,
    gen_prompt_embeddings,
    gen_synthetic_video,
    parse_pattern,
    pattern_to_string,
)
from .tensorio import read_video, write_video
from .vecmath import cosine_sim, dissim, l2_normalize, mean_rows, paired_row_dissim, row_dissim, unit_rows

__version__ = "0.1.0"

__all__ = [
    "BadMagicError", "Burst", "ConfigError", "Decoder", "DecoderConfig",
    "DegradationProfile", "DimensionError", "DiscardPlan", "EXIT_CONFIG",
    "EXIT_INVARIANT", "EXIT_IO", "EXIT_OK", "ImportanceMap",
    "InvariantViolation", "KVCacheLayer", "LayeredKVCache", "MODE_ADAPTIVE",
    "MODE_MANUAL", "Mixed", "PipelineConfig", "PositionOverflowError",
    "PrefillResult", "PromptEmbeddings", "PrunedVideo", "PrunerConfig",
    "RetentionPlan", "RunReport", "Segment", "SegmentedSequence",
    "ShapeMismatchError", "SharpVError", "Static", "SyntheticVideoSpec",
    "TensorFormatError", "TruncatedFileError", "UniformMotion", "VideoTokens",
    "apply_discard", "baseline_generate", "cache_bytes_linear",
    "cache_bytes_table", "combined_importance", "cosine_sim",
    "degradation_profile", "discard_decision", "dissim", "frame_thresholds",
    "gen_prompt_embeddings", "gen_synthetic_video", "importance_maps", "init_decoder",
    "l2_normalize", "mask_discard", "mean_rows", "mr_metric",
    "paired_row_dissim", "parse_pattern", "pattern_to_string", "prune_video",
    "read_video", "reencode_positions", "row_dissim", "run_bench",
    "run_pipeline", "scoring_cost_scaling", "scoring_table", "select_topk",
    "unit_rows",
    "validate_report", "write_video",
]
