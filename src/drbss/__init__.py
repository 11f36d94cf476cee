"""Joint dereverberation and blind source separation in the STFT domain."""

from .ilrma_t import (
    AlgorithmVariant,
    CostTrace,
    RunResult,
    cost,
    ilrma_t_ip_iteration,
    ilrma_t_iss_joint_iteration,
    ilrma_t_iss_seq_iteration,
    projection_back,
    run,
)
from .linalg import NumericalError, SolveCounter
from .metrics import (
    EvalReport,
    align_permutation,
    cepstral_distance,
    evaluate,
    si_sdr,
    si_sir,
)
from .nmf import NmfVarianceModel, init_model, model_term, nmf_update, variance
from .sim import MixResult, SyntheticRoomConfig, make_rir, make_sources, mix
from .stacking import (
    ExtendedDemixer,
    StackedObservation,
    TapConfig,
    build_stacked,
    demix,
    split_filter,
)
from .stft import Spectrogram, StftConfig, analyze, synthesize
from .wpe import wpe_dereverb, wpe_filter_update, wpe_run, wpe_variance_update

__version__ = "0.1.0"

__all__ = [
    "AlgorithmVariant",
    "CostTrace",
    "EvalReport",
    "ExtendedDemixer",
    "MixResult",
    "NmfVarianceModel",
    "NumericalError",
    "RunResult",
    "SolveCounter",
    "Spectrogram",
    "StackedObservation",
    "StftConfig",
    "SyntheticRoomConfig",
    "TapConfig",
    "align_permutation",
    "analyze",
    "build_stacked",
    "cepstral_distance",
    "cost",
    "demix",
    "evaluate",
    "ilrma_t_ip_iteration",
    "ilrma_t_iss_joint_iteration",
    "ilrma_t_iss_seq_iteration",
    "init_model",
    "make_rir",
    "make_sources",
    "mix",
    "model_term",
    "nmf_update",
    "projection_back",
    "run",
    "si_sdr",
    "si_sir",
    "split_filter",
    "synthesize",
    "variance",
    "wpe_dereverb",
    "wpe_filter_update",
    "wpe_run",
    "wpe_variance_update",
]
