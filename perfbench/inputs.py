"""Seeded input generators for the benchmark workloads.

Everything here runs before timing starts; the program under test only ever
sees the files written here.  The same seed writes the same bytes.
"""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np

from pulsom.corpus import MACRO_CLASSES, synth_generate, write_dataset_csv, write_sphere

SAMPLE_RATE = 16000
FRAME_LEN = 256
HOP = 128

# Corpus shape: dialects x speakers x utterances of UTT_SECONDS each.
DIALECTS, SPEAKERS, UTTERANCES = 4, 3, 8
UTT_SECONDS = 3.0
PHONES_PER_S = 12.0


def synth_split(path_train: Path, path_test: Path, n_classes: int, n_train: int,
                n_test: int, seed: int, order_task: bool = False,
                separation: float = 5.0) -> tuple[int, int]:
    """Train and test sets cut from ONE synth_generate call.

    Two calls with different seeds draw different class means, so a model
    trained on one would be tested on another task; splitting one call keeps
    train and test on the same class means.  Returns the two row counts.
    """
    samples = synth_generate(n_classes, n_train + n_test, dim=12, frames=9,
                             separation=separation, order_task=order_task, seed=seed)
    per_class = n_train + n_test
    train, test = [], []
    for c in range(n_classes):
        block = samples[c * per_class:(c + 1) * per_class]
        train.extend(block[:n_train])
        test.extend(block[n_train:])
    write_dataset_csv(train, path_train)
    write_dataset_csv(test, path_test)
    return len(train), len(test)


def _phone_params(phone: str) -> np.random.Generator:
    """Per-phone signal character, fixed across seeds so that each phone
    (and therefore each macro class) sounds the same in every corpus."""
    return np.random.default_rng(zlib.crc32(phone.encode()))


def _band_noise(n: int, lo: float, hi: float, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance noise with its spectrum confined to [lo, hi] Hz."""
    spec = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / SAMPLE_RATE)
    spec[(freqs < lo) | (freqs > hi)] = 0.0
    x = np.fft.irfft(spec, n)
    return x / (np.std(x) + 1e-12)


def _phone_signal(phone: str, macro: str, n: int, scale: float, gain: float,
                  rng: np.random.Generator) -> np.ndarray:
    """One phone's waveform: each macro class has its own spectral shape,
    each phone a fixed spot inside it, each speaker a formant scale."""
    p = _phone_params(phone)
    t = np.arange(n) / SAMPLE_RATE
    tone = lambda f: np.sin(2 * np.pi * f * scale * t + rng.uniform(0, 2 * np.pi))
    if macro == "vowels":
        wave = 0.3 * (tone(p.uniform(600, 900)) + 0.6 * tone(p.uniform(1200, 2000)))
    elif macro == "semi-vowels":
        wave = 0.2 * (tone(p.uniform(250, 400)) + 0.6 * tone(p.uniform(700, 1100)))
    elif macro == "nasals":
        wave = 0.2 * tone(p.uniform(220, 300)) + 0.03 * tone(p.uniform(2000, 2600))
    elif macro == "fricatives":
        lo = p.uniform(3500, 5000)
        wave = 0.1 * _band_noise(n, lo, lo + 2500, rng)
    elif macro == "affricates":
        wave = 0.15 * _band_noise(n, 1800, 3500, rng)
        wave[:n // 5] = 0.0
    elif macro == "stops":
        wave = 0.2 * _band_noise(n, 400, p.uniform(3000, 4500), rng)
        wave[:int(0.4 * n)] = 0.0
    else:  # pauses and silence
        wave = np.zeros(n)
    return gain * wave + 0.004 * rng.standard_normal(n)


def timit_corpus(root: Path, seed: int) -> dict:
    """A TIMIT-layout corpus: dr*/spk*/utt*.wav (SPHERE) plus .phn alignments.

    Each utterance is UTT_SECONDS long: a leading and trailing h# around
    phones drawn uniformly from the TIMIT phone set, with gamma-distributed
    durations averaging 1/PHONES_PER_S.  The last segment ends on the last
    sample, so every segment overlaps whole frames.  Returns the counts the
    correctness checks expect.
    """
    rng = np.random.default_rng(seed)
    phones = sorted((p, c) for c, ps in MACRO_CLASSES.items() for p in ps if p != "h#")
    mean_len = SAMPLE_RATE / PHONES_PER_S
    total_samples = int(UTT_SECONDS * SAMPLE_RATE)
    segments = frames = 0
    for d in range(1, DIALECTS + 1):
        for s in range(1, SPEAKERS + 1):
            spk = root / f"dr{d}" / f"spk{s}"
            spk.mkdir(parents=True)
            scale = rng.uniform(0.9, 1.1)
            gain = rng.uniform(0.8, 1.2)
            for u in range(UTTERANCES):
                spans = [(0, int(rng.uniform(0.1, 0.2) * SAMPLE_RATE), "h#", "others")]
                tail = total_samples - int(rng.uniform(0.1, 0.2) * SAMPLE_RATE)
                while True:
                    n = int(np.clip(rng.gamma(4.0, mean_len / 4.0), 0.025 * SAMPLE_RATE,
                                    0.25 * SAMPLE_RATE))
                    start = spans[-1][1]
                    if start + n > tail:
                        break
                    phone, macro = phones[rng.integers(len(phones))]
                    spans.append((start, start + n, phone, macro))
                spans.append((spans[-1][1], total_samples, "h#", "others"))
                wave = np.concatenate([
                    _phone_signal(ph, mc, b - a, scale, gain, rng) for a, b, ph, mc in spans])
                write_sphere(spk / f"utt{u}.wav", np.clip(wave, -1.0, 1.0), SAMPLE_RATE)
                (spk / f"utt{u}.phn").write_text(
                    "".join(f"{a} {b} {ph}\n" for a, b, ph, _ in spans))
                segments += len(spans)
                frames += (total_samples - FRAME_LEN) // HOP + 1
    n_utts = DIALECTS * SPEAKERS * UTTERANCES
    return {"utterances": n_utts, "segments": segments, "frames": frames,
            "audio_s": n_utts * total_samples / SAMPLE_RATE}
