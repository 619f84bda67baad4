"""Competitive-learning maps for temporal sequences: a classic Kohonen
lattice plus spiking, recurrent-spiking and leaky-integrator variants with
spike-timing plasticity rules, an MFCC speech front-end, corpus ingestion,
and an evaluation harness.

The package root holds the names of the README's library example and the
exception types; everything else is imported from its module
(``pulsom.ssom``, ``pulsom.models``, ...).
"""

from .coding import SsomConfig
from .corpus import synth_generate
from .errors import (
    ConfigError,
    CorpusFormatError,
    DimensionMismatchError,
    DivergenceError,
    PulsomError,
)
from .evaluate import calibrate, classify, report
from .rssom import train_rssom
from .som import Schedule

__version__ = "0.1.0"
