"""Competitive-learning maps for temporal sequences: a classic Kohonen
lattice plus spiking, recurrent-spiking and leaky-integrator variants with
spike-timing plasticity rules, an MFCC speech front-end, corpus ingestion,
and an evaluation harness.
"""

from .coding import EncodedInput, SsomConfig, decode_latency, encode_latency
from .corpus import (
    MACRO_CLASSES,
    Segment,
    SequenceSample,
    macro_class,
    middle_frames,
    read_alignment,
    read_dataset_csv,
    read_sphere,
    synth_generate,
    write_dataset_csv,
)
from .errors import (
    ConfigError,
    CorpusFormatError,
    DimensionMismatchError,
    DivergenceError,
    PulsomError,
)
from .evaluate import EvalReport, UnitLabelMap, calibrate, classify, mean_rate, report
from .lin import PotentialState, train_lin, update_potential
from .mfcc import (
    AudioBuffer,
    MfccConfig,
    dct_coeffs,
    frame_signal,
    hamming_window,
    mel_filterbank,
    mel_inverse,
    mel_scale,
    mfcc_pipeline,
    power_spectrum,
    preemphasis,
)
from .models import LinModel, RssomModel, SomModel, SsomModel, load_model, save_model
from .rssom import DifferenceState, train_rssom, update_difference
from .som import (
    Lattice,
    Schedule,
    TrainingLog,
    UnitIndex,
    find_bmu,
    linear_decay,
    neighborhood,
    quantization_error,
    som_update,
    train_som,
)
from .ssom import (
    FiringRecord,
    LateralKernel,
    apply_lateral,
    compute_firing_times,
    ssom_learn,
    train_ssom,
)
from .stdp import (
    StdpRule,
    StdpWindow,
    additive_update,
    input_update,
    panchev_update,
    soula_update,
    window_value,
)

__version__ = "0.1.0"
