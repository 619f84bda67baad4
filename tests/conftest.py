import math
import re

import numpy as np
import pytest


def _exp_is_libm() -> bool:
    """Whether numpy's float64 exp gives the C library's bits.  It does
    where numpy dispatches no AVX-512 kernel for it; the AVX-512 kernel
    differs from libm in the last bits for about 5% of draws in [-5, 0]."""
    x = np.random.default_rng(0).uniform(-5.0, 0.0, 1000).tolist()
    return np.exp(x).tolist() == [math.exp(v) for v in x]


EXP_IS_LIBM = _exp_is_libm()


def pinned(avx512, libm):
    """The digest set recorded with this host's numpy exp.  The spiking
    trainers call exp on every presentation, so their bits follow it; each
    set is exact for its exp (numpy 2.4 on x86-64, glibc's libm).  The
    MFCC front-end's log10 takes its AVX-512 kernel exactly where exp
    does, so the feature bytes are pinned the same way."""
    return libm if EXP_IS_LIBM else avx512


# The characters that str.splitlines breaks a line at and a text file does
# not: a parser that split at them would name the wrong line.
SPLITLINES_ONLY = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def pytest_report_header():
    return f"pinned digests: the {'libm' if EXP_IS_LIBM else 'AVX-512'} exp set"


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Print a FAIL line for acceptance criteria (PASS lines come from the
    tests themselves, carrying measured details)."""
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    match = re.match(r"test_criterion_(\d+)_(\w+)", item.name)
    if match:
        number = int(match.group(1))
        name = match.group(2).replace("_", " ")
        print(f"\ncriterion {number} ({name}): FAIL")
