"""Exception types shared across the package, and the shared range check."""

import math


class PulsomError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(PulsomError):
    """Input vector dimension does not match the lattice feature dimension."""

    def __init__(self, expected, actual):
        self.expected = expected
        self.actual = actual
        super().__init__(f"dimension mismatch: expected {expected}, got {actual}")


class ConfigError(PulsomError):
    """Invalid run configuration (unknown key, bad value, missing file)."""


class CorpusFormatError(PulsomError):
    """Malformed corpus file (SPHERE audio or alignment transcription)."""

    def __init__(self, path, message, line=None):
        self.path = str(path)
        self.line = line
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")


class DivergenceError(PulsomError):
    """Training produced a non-finite weight."""

    def __init__(self, epoch):
        self.epoch = epoch
        super().__init__(f"non-finite weight detected at epoch {epoch}")


def check_positive(obj, *names) -> None:
    """Raise ValueError unless every named field of obj is finite and > 0."""
    for name in names:
        v = getattr(obj, name)
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be positive and finite, got {v}")
