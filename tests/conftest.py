import hashlib
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


def _abs_is_avx2() -> bool:
    """Whether numpy's complex abs takes its AVX2 kernel (its AVX-512
    kernel gives the same bits).  Both that kernel and the baseline one
    differ from math.hypot on about a third of normal draws, in different
    draws, so the probe compares the bits of a fixed draw with those
    recorded for AVX2 (numpy 2.4 on x86-64)."""
    z = np.random.default_rng(0).normal(size=(2000, 2)).view(np.complex128)[:, 0]
    return hashlib.sha256(np.abs(z).tobytes()).hexdigest()[:16] == "19d384b573b2d8c1"


ABS_IS_AVX2 = _abs_is_avx2()


def pinned(avx512, libm, no_avx2=None):
    """The digest set recorded with this host's numpy exp.  The spiking
    trainers call exp on every presentation, so their bits follow it; each
    set is exact for its exp (numpy 2.4 on x86-64, glibc's libm).  The
    MFCC front-end's log10 takes its AVX-512 kernel exactly where exp
    does, so the feature bytes are pinned the same way; they also follow
    complex abs (the power spectrum), so a feature pin passes a third set,
    ``no_avx2``, recorded where numpy dispatches neither AVX-512 nor AVX2
    (and exp is libm's)."""
    if no_avx2 is not None and not ABS_IS_AVX2:
        return no_avx2
    return libm if EXP_IS_LIBM else avx512


def pytest_report_header():
    return (f"pinned digests: the {'libm' if EXP_IS_LIBM else 'AVX-512'} exp set, "
            f"the {'AVX2' if ABS_IS_AVX2 else 'baseline'} complex abs set")


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
