from .harness import (
    DEFAULT_N_MAX,
    DEFAULT_ORDER,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    PositivityRow,
    build_side,
    crank_rank_extraction_check,
    positivity_scan,
    run_suite,
    sample_env,
    verify,
)
from .model import (
    ConstraintViolationError,
    Identity,
    ParamEnv,
    SampleExhaustionError,
    UnsupportedNError,
    VerificationReport,
)
from .registry import REGISTRY, get_identity

__all__ = [
    "DEFAULT_N_MAX",
    "DEFAULT_ORDER",
    "DEFAULT_SAMPLES",
    "DEFAULT_SEED",
    "ConstraintViolationError",
    "Identity",
    "ParamEnv",
    "PositivityRow",
    "REGISTRY",
    "SampleExhaustionError",
    "UnsupportedNError",
    "VerificationReport",
    "build_side",
    "crank_rank_extraction_check",
    "get_identity",
    "positivity_scan",
    "run_suite",
    "sample_env",
    "verify",
]
