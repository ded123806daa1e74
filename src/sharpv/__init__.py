"""Training-free token reduction for video language models, desk scale.

Two independent stages: prune redundant visual tokens before the decoder
(spatio-temporal importance scores, per-frame adaptive or fixed-threshold
retention), then evict the KV cache of decoder layers whose hidden states
have drifted far from the visual input (cosine degradation profile). Both
stages run against a small deterministic decoder so every claim in the
test suite is checkable end to end.
"""

from .cache import KVCacheLayer, Segment, SegmentedSequence
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
from .memory import apply_discard, degradation_profile, discard_decision, reencode_positions
from .pipeline import PipelineConfig, PromptEmbeddings, baseline_generate, prefill_with_eviction, run_pipeline
from .pruner import (
    MODE_ADAPTIVE,
    MODE_MANUAL,
    PrunedVideo,
    PrunerConfig,
    VideoTokens,
    frame_thresholds,
    importance_maps,
    prune_video,
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
)
from .tensorio import read_video, write_video
from .vecmath import unit_rows

__version__ = "0.1.0"

__all__ = [
    "BadMagicError", "Burst", "ConfigError", "Decoder", "DecoderConfig",
    "DimensionError", "EXIT_CONFIG", "EXIT_INVARIANT", "EXIT_IO", "EXIT_OK",
    "InvariantViolation", "KVCacheLayer", "MODE_ADAPTIVE", "MODE_MANUAL",
    "Mixed", "PipelineConfig", "PositionOverflowError", "PrefillResult",
    "PromptEmbeddings", "PrunedVideo", "PrunerConfig", "RunReport", "Segment",
    "SegmentedSequence", "ShapeMismatchError", "SharpVError", "Static",
    "SyntheticVideoSpec", "TensorFormatError", "TruncatedFileError",
    "UniformMotion", "VideoTokens", "apply_discard", "baseline_generate",
    "degradation_profile", "discard_decision", "frame_thresholds",
    "gen_prompt_embeddings", "gen_synthetic_video", "importance_maps",
    "init_decoder", "parse_pattern", "prefill_with_eviction", "prune_video",
    "read_video", "reencode_positions", "run_pipeline", "unit_rows",
    "validate_report", "write_video",
]
