import pickle

import pytest

from pulsom import errors
from pulsom.errors import ConfigError, CorpusFormatError, DimensionMismatchError, DivergenceError

# One instance of every exception type in pulsom.errors, with the attributes
# it must keep.  An error raised in a `pulsom features` worker reaches the
# parent pickled, and one that would not unpickle there leaves the worker
# pool waiting for its result forever.
ERRORS = [
    (CorpusFormatError("corpus/dr1/spk1/utt1.phn", "invalid span 10..5", line=2),
     {"path": "corpus/dr1/spk1/utt1.phn", "line": 2, "message": "invalid span 10..5"}),
    (CorpusFormatError("corpus/dr1/spk1/utt1.wav", "not a SPHERE file (bad magic)"),
     {"path": "corpus/dr1/spk1/utt1.wav", "line": None}),
    (DimensionMismatchError(12, 13), {"expected": 12, "actual": 13}),
    (DivergenceError(epoch=3), {"epoch": 3}),
    (ConfigError("run.cfg:3 (lattice.rows): lattice shape must be positive"), {}),
    (errors.PulsomError("any"), {}),
]


def test_every_error_type_is_checked():
    types = {v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)}
    assert types == {type(error) for error, _ in ERRORS}


@pytest.mark.parametrize("error, attrs", ERRORS, ids=[
    "corpus-with-line", "corpus-without-line", "dimension", "divergence", "config", "base"])
def test_error_survives_pickling(error, attrs):
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert {name: getattr(back, name) for name in attrs} == attrs
