"""Corpus ingestion: NIST SPHERE audio, time-aligned transcriptions, segment
extraction with the middle-frames rule, the TIMIT macro-class table, a
synthetic sequence generator, and the dataset cache CSV.
"""

from __future__ import annotations

import math
import os
import re
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import CorpusFormatError, read_utf8, text_lines
from .mfcc import AudioBuffer, MfccConfig, mfcc_pipeline, row_texts

SPHERE_MAGIC = "NIST_1A"

MACRO_CLASSES = {
    "affricates": ["jh", "ch"],
    "stops": ["b", "d", "g", "p", "t", "k", "dx", "q",
              "bcl", "dcl", "gcl", "pcl", "tcl", "kcl"],
    "others": ["pau", "epi", "h#"],
    "nasals": ["m", "n", "ng", "em", "en", "eng", "nx"],
    "semi-vowels": ["l", "r", "w", "y", "hh", "hv", "el"],
    "fricatives": ["s", "sh", "z", "zh", "f", "th", "v", "dh"],
    "vowels": ["iy", "ih", "eh", "ey", "ae", "aa", "aw", "ay", "ah", "ao",
               "oy", "ow", "uh", "uw", "ux", "er", "ax", "ix", "axr", "axh"],
}

_PHONE_TO_CLASS = {p: c for c, phones in MACRO_CLASSES.items() for p in phones}
# TIMIT transcription files spell this vowel with a hyphen.
_PHONE_ALIASES = {"ax-h": "axh"}


@dataclass
class Segment:
    """A labeled sample span inside one utterance."""

    utt_id: str
    label: str
    start_sample: int
    end_sample: int

    def __post_init__(self):
        if not (0 <= self.start_sample < self.end_sample):
            raise ValueError(
                f"invalid segment span [{self.start_sample}, {self.end_sample})"
            )


@dataclass
class SequenceSample:
    """An ordered stack of feature frames with a class label."""

    frames: np.ndarray
    label: str
    macro_class: str | None = None
    utt_id: str = ""

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2:
            raise ValueError(f"frames must be 2-D, got shape {self.frames.shape}")


def macro_class(phone: str) -> str:
    """Macro class of a TIMIT phone symbol (slashes and case are ignored)."""
    key = phone.strip().strip("/").lower()
    key = _PHONE_ALIASES.get(key, key)
    try:
        return _PHONE_TO_CLASS[key]
    except KeyError:
        raise ValueError(f"unknown phone symbol {phone!r}") from None


def read_sphere(path) -> AudioBuffer:
    """Read a NIST SPHERE file with 16-bit PCM samples into [-1, 1] floats."""
    path = Path(path)
    with open(path, "rb") as f:
        raw = f.read()
    head = raw[:1024].decode("ascii", errors="replace").splitlines()
    if not head or head[0].strip() != SPHERE_MAGIC:
        raise CorpusFormatError(path, "not a SPHERE file (bad magic)")
    try:
        header_size = int(head[1].strip())
    except (IndexError, ValueError):
        raise CorpusFormatError(path, "missing or malformed header-size line") from None
    fields: dict[str, str] = {}
    for line in raw[:max(header_size, 0)].decode("ascii", errors="replace").splitlines()[2:]:
        line = line.strip()
        if line == "end_head":
            break
        if not line:
            continue
        parts = line.split(None, 2)
        if len(parts) == 3:
            fields[parts[0]] = parts[2]
    else:
        raise CorpusFormatError(
            path, f"header size {header_size} does not cover the end_head line")

    sample_rate = _header_int(path, fields, "sample_rate", 16000)
    channels = _header_int(path, fields, "channel_count", 1)
    n_bytes = _header_int(path, fields, "sample_n_bytes", 2)
    byte_format = fields.get("sample_byte_format", "01")
    coding = fields.get("sample_coding", "pcm")
    if sample_rate <= 0:
        raise CorpusFormatError(path, f"sample_rate must be positive, got {sample_rate}")
    if channels != 1:
        raise CorpusFormatError(path, f"unsupported channel_count {channels}")
    if n_bytes != 2:
        raise CorpusFormatError(path, f"unsupported sample_n_bytes {n_bytes}")
    if not coding.startswith("pcm"):
        raise CorpusFormatError(path, f"unsupported sample_coding {coding!r}")
    if byte_format == "01":
        dtype = "<i2"
    elif byte_format == "10":
        dtype = ">i2"
    else:
        raise CorpusFormatError(path, f"unsupported sample_byte_format {byte_format!r}")

    payload = raw[header_size:]
    if "sample_count" in fields:
        count = _header_int(path, fields, "sample_count", 0)
        if count < 0:
            raise CorpusFormatError(path, f"sample_count must be non-negative, got {count}")
        expected = count * 2
        if len(payload) < expected:
            raise CorpusFormatError(
                path, f"truncated data: expected {expected} bytes, found {len(payload)}"
            )
        payload = payload[:expected]
    if len(payload) % 2 != 0:
        payload = payload[:-1]
    samples = np.frombuffer(payload, dtype=dtype).astype(np.float64) / 32768.0
    return AudioBuffer(samples, sample_rate)


def _header_int(path, fields: dict[str, str], key: str, default: int) -> int:
    """An integer SPHERE header field, or the default when it is absent."""
    value = fields.get(key, default)
    try:
        return int(value)
    except ValueError:
        raise CorpusFormatError(path, f"header field {key} is not an integer: {value!r}") from None


def write_sphere(path, samples: np.ndarray, sample_rate: int = 16000) -> None:
    """Write 16-bit little-endian SPHERE audio (fixture/round-trip helper)."""
    samples = np.asarray(samples)
    if samples.dtype != np.int16:
        samples = np.clip(np.round(samples * 32768.0), -32768, 32767).astype(np.int16)
    header_size = 1024
    lines = [
        SPHERE_MAGIC,
        f"   {header_size}",
        f"sample_rate -i {sample_rate}",
        "channel_count -i 1",
        "sample_n_bytes -i 2",
        "sample_byte_format -s2 01",
        f"sample_count -i {samples.shape[0]}",
        "sample_coding -s3 pcm",
        "end_head",
    ]
    head = "\n".join(lines) + "\n"
    head = head.encode("ascii")
    head += b" " * (header_size - len(head))
    with open(path, "wb") as f:
        f.write(head)
        f.write(samples.astype("<i2").tobytes())


def read_alignment(path, phones: bool = False) -> list[Segment]:
    """Read a TIMIT-style alignment file of `start end label` sample spans.
    A label holds no comma (a dataset-CSV cell cannot), and with phones it
    is a TIMIT phone symbol."""
    path = Path(path)
    utt_id = path.stem
    segments: list[Segment] = []
    for lineno, line in enumerate(text_lines(read_utf8(path)), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise CorpusFormatError(path, f"expected `start end label`, got {line!r}",
                                    line=lineno)
        try:
            start, end = int(parts[0]), int(parts[1])
        except ValueError:
            raise CorpusFormatError(path, f"non-integer span in {line!r}",
                                    line=lineno) from None
        if start < 0 or start >= end:
            raise CorpusFormatError(path, f"invalid span {start}..{end}", line=lineno)
        if segments and start < segments[-1].end_sample:
            raise CorpusFormatError(
                path, f"segment at {start} overlaps previous ending at "
                      f"{segments[-1].end_sample}", line=lineno)
        try:
            if "," in parts[2]:
                raise ValueError(f"label {parts[2]!r} holds a comma")
            if phones:
                macro_class(parts[2])
        except ValueError as exc:
            raise CorpusFormatError(path, str(exc), line=lineno) from None
        segments.append(Segment(utt_id, parts[2], start, end))
    return segments


def middle_frame_index(seg: Segment, n_frames: int, hop: int, frame_len: int, k: int) -> list[int]:
    """Indices of the k frames centered on the middle of a segment's span.

    Frame i covers samples [i*hop, i*hop + frame_len).  Segments spanning
    fewer than k frames get their edge frames replicated outward.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    first = max(0, (seg.start_sample - frame_len) // hop + 1)
    last = min(n_frames - 1, (seg.end_sample - 1) // hop)
    if last < first:
        raise ValueError(
            f"segment {seg.label!r} [{seg.start_sample}, {seg.end_sample}) "
            f"overlaps zero frames"
        )
    center = first + (last - first + 1) // 2
    return [min(max(i, first), last) for i in range(center - k // 2, center - k // 2 + k)]


def middle_frames(seg: Segment, mfcc_frames: np.ndarray, hop: int, frame_len: int,
                  k: int) -> SequenceSample:
    """The k feature frames centered on the middle of a segment's span (see
    middle_frame_index)."""
    mfcc_frames = np.asarray(mfcc_frames, dtype=np.float64)
    idx = middle_frame_index(seg, mfcc_frames.shape[0], hop, frame_len, k)
    return SequenceSample(mfcc_frames[idx], seg.label, utt_id=seg.utt_id)


def _separated_points(n: int, dim: int, separation: float,
                      rng: np.random.Generator) -> np.ndarray:
    """n points whose pairwise distances are all >= separation."""
    scale = separation
    unit = _distance_unit(separation)
    points: list[np.ndarray] = []
    attempts = 0
    while len(points) < n:
        candidate = _finite_draw(rng.normal(0.0, scale, dim))
        if all(np.linalg.norm((candidate - p) / unit) >= separation / unit for p in points):
            points.append(candidate)
            attempts = 0
        else:
            attempts += 1
            if attempts > 200:
                scale *= 1.5
                attempts = 0
    return np.array(points)


def _distance_unit(separation: float) -> float:
    """The unit to compare distances in at this separation: 1, or the
    separation itself where squared distances would underflow to zero
    (and no candidate could ever be far enough apart)."""
    return separation if separation * separation < np.finfo(float).tiny else 1.0


def _finite_draw(values: np.ndarray) -> np.ndarray:
    """values, unless a draw at this separation overflowed to inf or NaN
    (which would leave the rejection loops comparing NaN distances forever)."""
    if not np.all(np.isfinite(values)):
        raise ValueError("separation is too large: the cluster means overflow")
    return values


def synth_class_means(n_classes: int, frames: int, dim: int, separation: float,
                      order_task: bool, seed: int) -> np.ndarray:
    """Per-class per-frame cluster means, shape (n_classes, frames, dim).

    Each class follows a smooth random-walk trajectory around its own base
    point; every cross-class pair of frame means is at least `separation`
    apart.  With order_task the two classes instead share one list of
    mutually separated frame means in opposite orders, so only temporal
    order distinguishes them.
    """
    if not (math.isfinite(3.0 * separation) and separation > 0):
        raise ValueError(f"separation must be positive with 3 * separation finite, "
                         f"got {separation}")
    if order_task and n_classes != 2:
        raise ValueError("order_task generates exactly 2 classes")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
    if order_task:
        base = _separated_points(frames, dim, separation, rng)
        return np.stack([base, base[::-1]])
    bases = _separated_points(n_classes, dim, 3.0 * separation, rng)
    step, unit = separation / 10.0, _distance_unit(separation)
    while True:
        drift = np.cumsum(rng.normal(0.0, step, (n_classes, frames, dim)), axis=1)
        means = _finite_draw(bases[:, None, :] + drift)
        if n_classes == 1 or _min_cross_class_distance(means / unit) >= separation / unit:
            return means


def _min_cross_class_distance(means: np.ndarray) -> float:
    n_classes = means.shape[0]
    best = math.inf
    for a in range(n_classes):
        for b in range(a + 1, n_classes):
            delta = means[a][:, None, :] - means[b][None, :, :]
            best = min(best, math.sqrt(float(np.min(np.sum(delta * delta, axis=2)))))
    return best


def synth_generate(n_classes: int, samples_per_class: int, dim: int = 12,
                   frames: int = 9, separation: float = 5.0,
                   order_task: bool = False, seed: int = 0) -> list[SequenceSample]:
    """Gaussian sequence clusters (unit variance) around separated frame means."""
    counts = {"classes": n_classes, "samples_per_class": samples_per_class, "dim": dim,
              "frames": frames}
    for name, count in counts.items():   # one message per count, naming it alone
        if count < 1:
            raise ValueError(f"{name} must be a positive count, got {count}")
    means = synth_class_means(n_classes, frames, dim, separation, order_task, seed)
    noise_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
    samples = []
    for c in range(means.shape[0]):
        label = f"class{c}"
        for i in range(samples_per_class):
            frames_arr = means[c] + noise_rng.standard_normal((frames, dim))
            samples.append(SequenceSample(frames_arr, label,
                                          utt_id=f"synth-{label}-{i:04d}"))
    return samples


def dataset_header(frames: int, dim: int) -> list[str]:
    cols = ["utt_id", "label", "macro_class"]
    for f in range(frames):
        cols.extend(f"f{f}c{c + 1}" for c in range(dim))
    return cols


# A dataset-CSV cell cannot hold these: they split cells and rows.
_CSV_BREAKS = re.compile("[,\r\n]")


def dataset_csv_line(utt_id: str, label: str, macro: str | None, texts) -> str:
    """One dataset-cache row, from the row_texts of the sample's frames; a
    field that holds a comma or a line break raises ValueError."""
    fields = [utt_id, label, macro or ""]
    if any(_CSV_BREAKS.search(f) for f in fields):
        raise ValueError(f"a dataset CSV cannot hold a comma or a line break, got {fields}")
    return ",".join([*fields, *texts]) + "\n"


def write_dataset_csv(samples: list[SequenceSample], path) -> None:
    """Dataset cache: one row per sample, feature columns f<frame>c<coeff>.
    A bad sample raises before the file is opened, so no file is touched."""
    if not samples:
        raise ValueError("cannot write an empty dataset")
    frames, dim = samples[0].frames.shape
    if dim < 1:
        raise ValueError("samples must have at least one feature per frame")
    for s in samples:
        if s.frames.shape != (frames, dim):
            raise ValueError("all samples must share one frames/dim shape")
        dataset_csv_line(s.utt_id, s.label, s.macro_class, ())    # checks the text fields
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(dataset_header(frames, dim)) + "\n")
        for s in samples:
            f.write(dataset_csv_line(s.utt_id, s.label, s.macro_class, row_texts(s.frames)))


def read_dataset_csv(path) -> list[SequenceSample]:
    path = Path(path)
    try:
        return _parse_dataset_csv(path)
    except UnicodeDecodeError:
        # The text reader decodes in blocks, so its error cannot tell the
        # line; decoding the whole file again finds the first bad byte.
        read_utf8(path)
        raise


# Rows that read_dataset_csv parses in one np.loadtxt call: enough to share
# the call's cost, few enough to bound the memory it takes.
CSV_BLOCK_ROWS = 128
# The characters a block's numbers may hold for np.loadtxt to read them as
# the per-row parse (float()) does.  Both call Python's number parser, but
# loadtxt also skips the ASCII separators \x1c-\x1f, which float() rejects,
# and rejects underscores and non-ASCII digits, which float() accepts; a
# block with any other character is parsed row by row.
_BULK_CHARS = b"0123456789+-.eE,"


def _parse_dataset_csv(path: Path) -> list[SequenceSample]:
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        if header[:3] != ["utt_id", "label", "macro_class"]:
            raise CorpusFormatError(path, "not a dataset cache CSV (bad header)", line=1)
        feature_cols = header[3:]
        last = re.fullmatch(r"f(\d+)c(\d+)", header[-1])
        frames, dim = (int(last[1]) + 1, int(last[2])) if last else (0, 0)
        if (frames * dim == 0 or frames * dim != len(feature_cols)
                or header != dataset_header(frames, dim)):
            raise CorpusFormatError(path, "bad feature columns: expected f0c1 .. f<F-1>c<D> "
                                          "in frame-major order", line=1)
        samples = []
        lines = enumerate(f, start=2)
        while block := [(n, line.strip()) for n, line in islice(lines, CSV_BLOCK_ROWS)]:
            rows = [(n, text) for n, text in block if text]
            bulk = _block_samples([text for _, text in rows], frames, dim) if rows else []
            samples += bulk if bulk is not None else [
                _row_sample(path, n, text, feature_cols, frames, dim) for n, text in rows]
    if not samples:
        raise CorpusFormatError(path, "no sample rows after the header", line=2)
    return samples


def _block_samples(rows: list[str], frames: int, dim: int) -> list[SequenceSample] | None:
    """The samples of a non-empty block of stripped, non-blank rows, their
    numbers parsed in one np.loadtxt call; None where a row would not parse,
    or might not parse as ``_row_sample`` parses it."""
    parts = [row.split(",", 3) for row in rows]
    numbers = [p[3] if len(p) == 4 else "" for p in parts]
    if not all(numbers) or any(n.encode().translate(None, _BULK_CHARS) for n in numbers):
        return None
    try:
        values = np.loadtxt(numbers, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(rows), frames * dim) or not np.isfinite(values).all():
        return None
    return [SequenceSample(v.reshape(frames, dim), p[1], p[2] or None, p[0])
            for v, p in zip(values, parts)]


def _row_sample(path: Path, lineno: int, line: str, feature_cols: list[str], frames: int,
                dim: int) -> SequenceSample:
    """The sample of one stripped, non-blank row, or the CorpusFormatError
    that names what is wrong with it."""
    parts = line.split(",")
    if len(parts) != 3 + frames * dim:
        raise CorpusFormatError(path, f"expected {3 + frames * dim} columns, "
                                      f"got {len(parts)}", line=lineno)
    try:
        arr = np.array(parts[3:], dtype=np.float64)
    except ValueError:
        k = next(k for k, cell in enumerate(parts[3:]) if not _is_float(cell))
        raise CorpusFormatError(path, f"non-numeric feature {feature_cols[k]} = "
                                      f"{parts[3 + k]!r}", line=lineno) from None
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        k = bad[0]
        raise CorpusFormatError(path, f"non-finite feature {feature_cols[k]} = "
                                      f"{parts[3 + k]}", line=lineno)
    return SequenceSample(arr.reshape(frames, dim), parts[1], parts[2] or None, parts[0])


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def utf8_name(path: Path) -> str:
    """The last component of path decoded from its raw bytes as UTF-8, so
    that it reads the same under any locale; raises CorpusFormatError if
    those bytes are not UTF-8."""
    try:
        return os.fsencode(path.name).decode("utf-8")
    except UnicodeDecodeError:
        raise CorpusFormatError(path, "name is not UTF-8") from None


def iter_utterances(root, dialects=None, speakers=None):
    """Yield (audio path, speaker) for each file whose suffix is ``.wav`` in
    any case, in sorted path order; the dialect and speaker names are
    ``utf8_name``s."""
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus root {root} does not exist")
    for dialect_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        dialect = utf8_name(dialect_dir)
        if dialects and dialect.lower() not in dialects:
            continue
        for speaker_dir in sorted(p for p in dialect_dir.iterdir() if p.is_dir()):
            speaker = utf8_name(speaker_dir)
            if speakers and speaker.lower() not in speakers:
                continue
            for wav in sorted(speaker_dir.iterdir()):
                if wav.suffix.lower() == ".wav":
                    yield wav, speaker


def list_utterances(root, unit: str, dialects=None, speakers=None):
    """The utterances under root with a `unit` alignment, in corpus order,
    as (utt_id, audio path, alignment path) triples, and the
    CorpusFormatError of the first name in corpus order that is not UTF-8,
    that a dataset CSV cannot hold or that a second audio file beside it
    also has, where the listing stopped (None if there is none; raise it
    once the utterances listed before it are done).  An utterance is an
    audio file named ``<name>`` plus ``.wav``, with a ``<name>.<unit>`` or
    else a ``<name>.<UNIT>`` beside it."""
    dialects = {d.lower() for d in dialects} if dialects else None
    speakers = {s.lower() for s in speakers} if speakers else None
    utterances, named = [], set()
    try:
        for wav, speaker in iter_utterances(root, dialects, speakers):
            alignments = [wav.with_name(f"{wav.name[:-4]}.{u}") for u in (unit, unit.upper())]
            ali = next((p for p in alignments if p.exists()), None)
            if ali is None:
                continue
            utt = utf8_name(wav)[:-4]
            for path, name in ((wav.parent, speaker), (wav, utt)):
                if _CSV_BREAKS.search(name):
                    raise CorpusFormatError(path, "name holds a comma or a line break")
            if (wav.parent, utt) in named:     # utt1.WAV, then utt1.wav
                raise CorpusFormatError(wav, f"a second audio file of utterance {speaker}/{utt}")
            named.add((wav.parent, utt))
            utterances.append((f"{speaker}/{utt}", wav, ali))
    except CorpusFormatError as exc:
        return utterances, exc
    return utterances, None


def read_utterance(utterance, mfcc_cfg: MfccConfig, unit: str, k: int):
    """The counts of one listed utterance for a walk's stats, its utt_id,
    coefficient rows and picks: (segment, macro class or None,
    middle_frame_index) for each segment that overlaps a frame.  An
    utterance shorter than one frame has no rows (None) and no picks, and
    its alignment is not read.  Every argument pickles."""
    utt_id, wav, ali = utterance
    buf = read_sphere(wav)
    counts = dict(utterances=1, skipped_utterances=0, segments=0, skipped_segments=0)
    if buf.samples.shape[0] < mfcc_cfg.frame_len:
        counts["skipped_utterances"] = 1
        return counts, utt_id, None, []
    feats = mfcc_pipeline(buf, mfcc_cfg)
    picks = []
    for seg in read_alignment(ali, phones=unit == "phn"):
        counts["segments"] += 1
        try:
            idx = middle_frame_index(seg, len(feats), mfcc_cfg.hop, mfcc_cfg.frame_len, k)
        except ValueError:
            counts["skipped_segments"] += 1
            continue
        picks.append((seg, macro_class(seg.label) if unit == "phn" else None, idx))
    return counts, utt_id, feats, picks


def walk_corpus(root, unit: str, k: int, dialects, speakers, stats: dict, work,
                ordered_map=None):
    """Map ``work`` (as ``read_utterance``: utterance -> (counts, ...)) over
    ``list_utterances`` in corpus order, with the map that the context
    manager ``ordered_map(number of utterances)`` gives or else the
    built-in one, and yield what it returns after the counts.  stats counts
    utterances, those shorter than one frame, segments and those that
    overlap no frame.  k is checked once, not counted as a skip per
    segment."""
    if k < 1:
        raise ValueError(f"frames per segment must be at least 1, got {k}")
    stats.update(utterances=0, skipped_utterances=0, segments=0, skipped_segments=0)
    utterances, late_error = list_utterances(root, unit, dialects, speakers)
    with ordered_map(len(utterances)) if ordered_map else nullcontext(map) as mapped:
        for result in mapped(work, utterances):
            for key, n in result[0].items():
                stats[key] += n
            yield result[1:]
    if late_error is not None:
        raise late_error


def build_corpus_dataset(root, mfcc_cfg: MfccConfig | None = None, unit: str = "phn",
                         k: int = 9, dialects=None, speakers=None):
    """Extract one SequenceSample per labeled segment under a corpus root.

    Returns (samples, stats), with stats as counted by walk_corpus.
    """
    stats: dict = {}
    work = partial(read_utterance, mfcc_cfg=mfcc_cfg or MfccConfig(), unit=unit, k=k)
    samples = [SequenceSample(feats[idx], seg.label, macro, utt_id)
               for utt_id, feats, picks in walk_corpus(
                   root, unit, k, dialects, speakers, stats, work)
               for seg, macro, idx in picks]
    return samples, stats
