"""Exception types shared across the package, the shared range check, and
the reader and line splitter of input files that must be UTF-8 text.

An exception whose ``__init__`` takes other arguments than its message
rebuilds from them when unpickled (``__reduce__``), so that it crosses the
process boundary of `pulsom features`' worker pool intact."""

import math
import re
from pathlib import Path


class PulsomError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(PulsomError):
    """Input vector dimension does not match the lattice feature dimension."""

    def __init__(self, expected, actual):
        self.expected = expected
        self.actual = actual
        super().__init__(f"dimension mismatch: expected {expected}, got {actual}")

    def __reduce__(self):
        return type(self), (self.expected, self.actual)


class ConfigError(PulsomError):
    """Invalid run configuration (unknown key, bad value, missing file)."""


class CorpusFormatError(PulsomError):
    """Malformed corpus file (SPHERE audio or alignment transcription)."""

    def __init__(self, path, message, line=None):
        self.path = str(path)
        self.message = message
        self.line = line
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")

    def __reduce__(self):
        return type(self), (self.path, self.message, self.line)


def read_utf8(path) -> str:
    """The text of a file that must be UTF-8; a byte that is not raises
    CorpusFormatError naming the line of the first such byte."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # A character appended after the prefix opens a new line exactly
        # when the prefix ends in a line break.
        line = len((raw[:exc.start] + b"x").splitlines())
        raise CorpusFormatError(path, f"not UTF-8 text: byte 0x{raw[exc.start]:02x} "
                                      f"({exc.reason})", line=line) from None


_LINE_BREAK = re.compile("\r\n|\r|\n")


def text_lines(text: str) -> list[str]:
    r"""The lines of a text, broken at \n, \r and \r\n only, as a text file
    and read_utf8's line count break them (str.splitlines also breaks at
    \x0b, \x0c, \x1c-\x1e, \x85, \u2028 and \u2029)."""
    lines = _LINE_BREAK.split(text)
    return lines[:-1] if lines[-1] == "" else lines


class DivergenceError(PulsomError):
    """Training produced a non-finite weight."""

    def __init__(self, epoch):
        self.epoch = epoch
        super().__init__(f"non-finite weight detected at epoch {epoch}")

    def __reduce__(self):
        return type(self), (self.epoch,)


def check_positive(obj, *names) -> None:
    """Raise ValueError unless every named field of obj is finite and > 0."""
    for name in names:
        v = getattr(obj, name)
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be positive and finite, got {v}")
