import hashlib
import os
import shutil
import time
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsom import corpus as corpus_mod
from pulsom.corpus import (
    MACRO_CLASSES,
    Segment,
    SequenceSample,
    build_corpus_dataset,
    list_utterances,
    macro_class,
    middle_frame_index,
    middle_frames,
    read_alignment,
    read_dataset_csv,
    read_sphere,
    synth_class_means,
    synth_generate,
    write_dataset_csv,
    write_sphere,
)
from pulsom.errors import CorpusFormatError
from conftest import SPLITLINES_ONLY


class TestReadSphere:
    def test_round_trip_of_known_samples(self, tmp_path):
        path = tmp_path / "a.wav"
        write_sphere(path, np.array([0, 16384, -16384, 32767], dtype=np.int16))
        buf = read_sphere(path)
        assert buf.sample_rate == 16000
        assert np.allclose(buf.samples, [0.0, 0.5, -0.5, 32767 / 32768], atol=0)

    def test_float_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.integers(-32768, 32768, size=500).astype(np.int16)
        path = tmp_path / "b.wav"
        write_sphere(path, samples, sample_rate=8000)
        buf = read_sphere(path)
        assert buf.sample_rate == 8000
        assert np.array_equal((buf.samples * 32768).astype(np.int16), samples)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFF....WAVEfmt \x00" * 10)
        with pytest.raises(CorpusFormatError, match="magic"):
            read_sphere(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.wav"
        write_sphere(path, np.zeros(100, dtype=np.int16))
        data = path.read_bytes()
        path.write_bytes(data[:-50])
        with pytest.raises(CorpusFormatError, match="truncated"):
            read_sphere(path)

    def test_unsupported_channel_count(self, tmp_path):
        path = tmp_path / "c.wav"
        write_sphere(path, np.zeros(4, dtype=np.int16))
        text = path.read_bytes().replace(b"channel_count -i 1", b"channel_count -i 2")
        path.write_bytes(text)
        with pytest.raises(CorpusFormatError, match="channel_count"):
            read_sphere(path)

    @pytest.mark.parametrize("field, value", [
        ("sample_rate", b"16k00"), ("channel_count", b"one"),
        ("sample_n_bytes", b"2.0"), ("sample_count", b"4x")])
    def test_non_integer_header_field(self, tmp_path, field, value):
        path = tmp_path / "h.wav"
        write_sphere(path, np.zeros(4, dtype=np.int16))
        raw = path.read_bytes()
        line = next(x for x in raw.split(b"\n") if x.startswith(field.encode()))
        path.write_bytes(raw.replace(line, field.encode() + b" -i " + value))
        with pytest.raises(CorpusFormatError, match=f"{field} is not an integer") as exc:
            read_sphere(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("rate", [b"0", b"-8000"])
    def test_non_positive_sample_rate(self, tmp_path, rate):
        path = tmp_path / "r.wav"
        write_sphere(path, np.zeros(4, dtype=np.int16))
        path.write_bytes(path.read_bytes().replace(b"sample_rate -i 16000",
                                                   b"sample_rate -i " + rate))
        with pytest.raises(CorpusFormatError, match="sample_rate must be positive"):
            read_sphere(path)

    def test_negative_sample_count(self, tmp_path):
        path = tmp_path / "n.wav"
        write_sphere(path, np.zeros(10, dtype=np.int16))
        path.write_bytes(path.read_bytes().replace(b"sample_count -i 10",
                                                   b"sample_count -i -4"))
        with pytest.raises(CorpusFormatError,
                           match="sample_count must be non-negative, got -4") as exc:
            read_sphere(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("size", ["0", "16", "-8"])
    def test_header_size_short_of_end_head(self, tmp_path, size):
        path = tmp_path / "s.wav"
        write_sphere(path, np.zeros(4000, dtype=np.int16))
        path.write_bytes(path.read_bytes().replace(b"   1024\n", f"   {size}\n".encode(), 1))
        with pytest.raises(CorpusFormatError,
                           match=f"header size {size} does not cover the end_head line") as exc:
            read_sphere(path)
        assert str(path) in str(exc.value)

    def test_big_endian_payload(self, tmp_path):
        path = tmp_path / "be.wav"
        write_sphere(path, np.array([1000, -1000], dtype=np.int16))
        raw = path.read_bytes()
        raw = raw.replace(b"sample_byte_format -s2 01", b"sample_byte_format -s2 10")
        head, payload = raw[:1024], raw[1024:]
        path.write_bytes(head + np.frombuffer(payload, "<i2").astype(">i2").tobytes())
        buf = read_sphere(path)
        assert np.allclose(buf.samples * 32768, [1000, -1000], atol=0)


class TestReadAlignment:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "x.phn"
        path.write_text("0 1600 h#\n1600 2400 sh\n")
        segs = read_alignment(path)
        assert segs[0] == Segment("x", "h#", 0, 1600)
        assert segs[1].label == "sh"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.phn"
        path.write_text("")
        assert read_alignment(path) == []

    def test_inverted_span_reports_line(self, tmp_path):
        path = tmp_path / "x.phn"
        path.write_text("0 1600 h#\n10 5 x\n")
        with pytest.raises(CorpusFormatError) as exc:
            read_alignment(path)
        assert exc.value.line == 2

    def test_overlap_rejected(self, tmp_path):
        path = tmp_path / "x.phn"
        path.write_text("0 1600 h#\n1500 2400 sh\n")
        with pytest.raises(CorpusFormatError, match="overlaps"):
            read_alignment(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "x.phn"
        path.write_text("0 1600\n")
        with pytest.raises(CorpusFormatError) as exc:
            read_alignment(path)
        assert exc.value.line == 1

    def test_non_integer_span(self, tmp_path):
        path = tmp_path / "x.phn"
        path.write_text("zero ten h#\n")
        with pytest.raises(CorpusFormatError, match="non-integer"):
            read_alignment(path)

    def test_non_utf8_byte_reports_its_line(self, tmp_path):
        path = tmp_path / "x.phn"
        path.write_bytes(b"0 1600 h#\n1600 3200 \xad\xff\n")
        with pytest.raises(CorpusFormatError) as exc:
            read_alignment(path)
        assert exc.value.line == 2
        assert str(exc.value).startswith(f"{path}:2: not UTF-8 text: byte 0xad")

    @pytest.mark.parametrize("label, phones, message", [
        ("s,h", False, "label 's,h' holds a comma"), ("s,h", True, "label 's,h' holds a comma"),
        ("qq", True, "unknown phone symbol 'qq'")])
    def test_bad_label_reports_its_line(self, tmp_path, label, phones, message):
        path = tmp_path / "x.phn"
        path.write_text(f"0 1600 h#\n1600 2400 {label}\n")
        with pytest.raises(CorpusFormatError) as exc:
            read_alignment(path, phones=phones)
        assert str(exc.value) == f"{path}:2: {message}"

    @pytest.mark.parametrize("sep", SPLITLINES_ONLY)
    def test_error_names_the_file_line(self, tmp_path, sep):
        # a line ending in a character that only str.splitlines breaks at
        # is one line of the file, and the bad span is on the next one
        path = tmp_path / "x.phn"
        path.write_text(f"0 1600 h#{sep}\n1600 1500 sh\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as exc:
            read_alignment(path)
        assert str(exc.value) == f"{path}:2: invalid span 1600..1500"


class TestMiddleFrames:
    def frames(self, n):
        return np.arange(n, dtype=float)[:, None] * np.ones((1, 3))

    def test_exact_k_frames(self):
        # [0, 1100) overlaps frames 0..8 exactly
        seg = Segment("u", "aa", 0, 1100)
        out = middle_frames(seg, self.frames(50), hop=128, frame_len=256, k=9)
        assert np.array_equal(out.frames[:, 0], np.arange(9, dtype=float))

    def test_centered_window_in_long_segment(self):
        # segment covering frames 0..19 takes frames 6..14
        seg = Segment("u", "aa", 0, 2500)
        out = middle_frames(seg, self.frames(50), hop=128, frame_len=256, k=9)
        assert np.array_equal(out.frames[:, 0], np.arange(6, 15, dtype=float))

    def test_short_segment_replicates_edges(self):
        # segment covering frames 0..4 pads to 9 by repeating the edges
        seg = Segment("u", "aa", 0, 600)
        out = middle_frames(seg, self.frames(50), hop=128, frame_len=256, k=9)
        assert np.array_equal(out.frames[:, 0],
                              np.array([0, 0, 0, 1, 2, 3, 4, 4, 4], dtype=float))

    def test_zero_overlap_is_an_error(self):
        seg = Segment("u", "aa", 10_000, 10_050)
        with pytest.raises(ValueError, match="zero frames"):
            middle_frames(seg, self.frames(3), hop=128, frame_len=256, k=9)

    def test_index_rule_matches_the_frames_taken(self):
        seg = Segment("u", "aa", 0, 600)
        assert middle_frame_index(seg, 50, hop=128, frame_len=256, k=9) == [0, 0, 0, 1, 2, 3,
                                                                           4, 4, 4]
        with pytest.raises(ValueError, match="k must be"):
            middle_frame_index(seg, 50, hop=128, frame_len=256, k=0)

    def test_always_k_frames(self):
        rng = np.random.default_rng(1)
        feats = self.frames(40)
        for _ in range(200):
            start = int(rng.integers(0, 4500))
            end = start + int(rng.integers(1, 2000))
            seg = Segment("u", "aa", start, end)
            try:
                out = middle_frames(seg, feats, hop=128, frame_len=256, k=9)
            except ValueError:
                continue
            assert out.frames.shape == (9, 3)


class TestMacroClasses:
    def test_affricate(self):
        assert macro_class("/jh/") == "affricates"

    def test_vowel(self):
        assert macro_class("/iy/") == "vowels"

    def test_unknown_phone_named_in_error(self):
        with pytest.raises(ValueError, match="zzz"):
            macro_class("/zzz/")

    def test_covers_61_symbols_without_duplicates(self):
        all_phones = [p for phones in MACRO_CLASSES.values() for p in phones]
        assert len(all_phones) == 61
        assert len(set(all_phones)) == 61
        assert len(MACRO_CLASSES) == 7
        for p in all_phones:
            assert macro_class(p) in MACRO_CLASSES

    def test_timit_hyphen_spelling(self):
        assert macro_class("ax-h") == "vowels"

    def test_glottal_stop_is_a_stop(self):
        assert macro_class("q") == "stops"


class TestSynthGenerate:
    def test_deterministic(self):
        a = synth_generate(3, 5, dim=4, frames=3, separation=5.0, seed=9)
        b = synth_generate(3, 5, dim=4, frames=3, separation=5.0, seed=9)
        assert len(a) == len(b) == 15
        for s, t in zip(a, b):
            assert np.array_equal(s.frames, t.frames)
            assert s.label == t.label

    def test_order_task_reverses_means(self):
        means = synth_class_means(2, 9, 12, 5.0, True, seed=3)
        assert np.array_equal(means[1], means[0][::-1])

    def test_order_task_requires_two_classes(self):
        with pytest.raises(ValueError):
            synth_generate(3, 5, order_task=True, seed=0)

    def test_cross_class_separation(self):
        means = synth_class_means(3, 9, 12, 5.0, False, seed=4)
        for a in range(3):
            for b in range(a + 1, 3):
                delta = means[a][:, None, :] - means[b][None, :, :]
                dists = np.sqrt(np.sum(delta ** 2, axis=2))
                assert np.min(dists) >= 5.0

    def test_order_task_frame_means_mutually_separated(self):
        means = synth_class_means(2, 9, 12, 5.0, True, seed=5)
        base = means[0]
        for i in range(9):
            for j in range(i + 1, 9):
                assert np.linalg.norm(base[i] - base[j]) >= 5.0

    @pytest.mark.parametrize("separation", [1e-300, 2.2e-308, 5e-324])
    @pytest.mark.parametrize("order_task", [False, True])
    def test_tiny_separation_is_met_quickly(self, separation, order_task):
        # Squared distances underflow to zero at these scales; compared in
        # units of the separation, the means are still found at once.
        n_classes = 2 if order_task else 3
        start = time.perf_counter()
        means = synth_class_means(n_classes, 9, 12, separation, order_task, seed=0)
        samples = synth_generate(n_classes, 50, 12, 9, separation, order_task, seed=0)
        assert time.perf_counter() - start < 0.5
        assert len(samples) == 50 * n_classes
        assert all(np.isfinite(s.frames).all() for s in samples)
        # The order task separates one class's frame means from each other,
        # the other task every frame mean of a class from the other classes'.
        scaled = means / separation
        groups = scaled[0][:, None, :] if order_task else scaled
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                delta = groups[a][:, None, :] - groups[b][None, :, :]
                assert np.sqrt(np.sum(delta ** 2, axis=2)).min() >= 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            synth_generate(0, 5, seed=0)
        with pytest.raises(ValueError):
            synth_generate(2, 5, separation=0.0, seed=0)


class TestDatasetCsv:
    def samples(self):
        rng = np.random.default_rng(2)
        return [SequenceSample(rng.normal(size=(3, 4)), "aa", "vowels", f"u{i}")
                for i in range(5)]

    def test_round_trip(self, tmp_path):
        samples = self.samples()
        path = tmp_path / "d.csv"
        write_dataset_csv(samples, path)
        back = read_dataset_csv(path)
        assert len(back) == 5
        for s, t in zip(samples, back):
            assert np.array_equal(s.frames, t.frames)
            assert (s.label, s.macro_class, s.utt_id) == (t.label, t.macro_class, t.utt_id)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset_csv(self.samples(), path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[:3] == ["utt_id", "label", "macro_class"]
        assert header[3] == "f0c1"
        assert header[-1] == "f2c4"

    def test_samples_without_features_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one feature"):
            write_dataset_csv([SequenceSample(np.zeros((9, 0)), "aa")], tmp_path / "d.csv")

    @pytest.mark.parametrize("field", ["utt_id", "label", "macro_class"])
    @pytest.mark.parametrize("text", ["a,b", "a\nb", "a\rb"])
    def test_field_with_a_comma_or_line_break_raises(self, tmp_path, field, text):
        samples = self.samples()
        setattr(samples[2], field, text)
        with pytest.raises(ValueError, match="cannot hold a comma or a line break"):
            write_dataset_csv(samples, tmp_path / "d.csv")

    @pytest.mark.parametrize("bad", ["label", "shape"])
    def test_a_bad_sample_writes_nothing(self, tmp_path, bad):
        # the check runs before the file is opened: no truncated file that
        # reads back as a shorter dataset, and a file already there keeps its bytes
        samples = synth_generate(2, 2, dim=2, frames=2, seed=1)
        if bad == "label":
            samples[2].label = "a,b"
        else:
            samples[2] = SequenceSample(np.zeros((3, 2)), "class1")
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_bytes(b"kept\n")
        for path in (new, old):
            with pytest.raises(ValueError):
                write_dataset_csv(samples, path)
        assert not new.exists()
        assert old.read_bytes() == b"kept\n"

    def test_valid_samples_write_the_recorded_bytes(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset_csv(self.samples(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "6f2d4bfadd17f416b4199cc3561918579761b7dd2c15a3174103ddd6d4f00e86")

    def test_rewrite_is_byte_identical(self, tmp_path):
        samples = self.samples()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset_csv(samples, p1)
        write_dataset_csv(read_dataset_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n")
        with pytest.raises(CorpusFormatError):
            read_dataset_csv(path)

    @pytest.mark.parametrize("tail", ["", "\n", "\n\n"])
    def test_header_without_rows_rejected_at_line_2(self, tmp_path, tail):
        path = tmp_path / "d.csv"
        write_dataset_csv(self.samples(), path)
        path.write_text(path.read_text().splitlines()[0] + tail)
        with pytest.raises(CorpusFormatError, match="no sample rows") as exc:
            read_dataset_csv(path)
        assert exc.value.line == 2
        assert f"{path}:2" in str(exc.value)

    @pytest.mark.parametrize("feature_cols", ["", ",f0c1,f1c1,f0c2,f1c2", ",f0c1,f0c2,fXc1",
                                              ",f0c0"])
    def test_bad_feature_header_rejected_at_line_1(self, tmp_path, feature_cols):
        path = tmp_path / "d.csv"
        path.write_text(f"utt_id,label,macro_class{feature_cols}\nu,a,,1.0\n")
        with pytest.raises(CorpusFormatError) as exc:
            read_dataset_csv(path)
        assert exc.value.line == 1
        assert f"{path}:1" in str(exc.value)

    def test_non_numeric_feature_rejected_with_line_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset_csv(self.samples(), path)
        lines = path.read_text().splitlines()
        row = lines[2].split(",")
        row[8] = "abc"
        lines[2] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError) as exc:
            read_dataset_csv(path)
        assert exc.value.line == 3
        assert f"{path}:3" in str(exc.value)
        assert "f1c2" in str(exc.value) and "abc" in str(exc.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_feature_rejected_with_line(self, tmp_path, value):
        path = tmp_path / "d.csv"
        write_dataset_csv(self.samples(), path)
        lines = path.read_text().splitlines()
        row = lines[3].split(",")
        row[7] = value
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError) as exc:
            read_dataset_csv(path)
        assert exc.value.line == 4
        assert f"{path}:4" in str(exc.value)
        assert "f1c1" in str(exc.value)


FUZZ = settings(max_examples=20, derandomize=True, database=None, deadline=None)


@pytest.fixture(scope="module")
def fuzz_csv(tmp_path_factory):
    """The lines of a valid 3-frame x 4-coefficient dataset CSV and a path
    for the fuzzed copies."""
    rng = np.random.default_rng(3)
    samples = [SequenceSample(rng.normal(size=(3, 4)), "aa", "vowels", f"u{i}")
               for i in range(4)]
    path = tmp_path_factory.mktemp("fuzzed") / "d.csv"
    write_dataset_csv(samples, path)
    return path.read_text().splitlines(), path


def parses_or_names_file_and_line(path, content):
    """Write content to path; reading it back either parses or raises a
    CorpusFormatError whose message starts with `path:line`."""
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    try:
        read_dataset_csv(path)
    except CorpusFormatError as exc:
        assert exc.line is not None
        assert str(exc).startswith(f"{path}:{exc.line}: "), str(exc)


class TestFuzzedDatasetCsv:
    """No input to the dataset-CSV reader ends in any exception other than a
    CorpusFormatError that names the file and line."""

    @FUZZ
    @given(content=st.binary())
    def test_arbitrary_bytes(self, fuzz_csv, content):
        parses_or_names_file_and_line(fuzz_csv[1], content)

    @FUZZ
    @given(content=st.binary(min_size=1), at=st.integers(0, 10**6))
    def test_bytes_spliced_into_a_valid_file(self, fuzz_csv, content, at):
        good = ("\n".join(fuzz_csv[0]) + "\n").encode("utf-8")
        at %= len(good)
        parses_or_names_file_and_line(fuzz_csv[1], good[:at] + content + good[at:])

    @FUZZ
    @given(text=st.text(), row=st.integers(1, 4), cell=st.integers(3, 14))
    def test_text_on_a_feature_cell(self, fuzz_csv, text, row, cell):
        lines, path = list(fuzz_csv[0]), fuzz_csv[1]
        cells = lines[row].split(",")
        cells[cell] = text
        lines[row] = ",".join(cells)
        parses_or_names_file_and_line(path, "\n".join(lines) + "\n")

    @FUZZ
    @given(labels=st.tuples(st.text(), st.text(), st.text()), row=st.integers(1, 4))
    def test_text_on_the_label_cells(self, fuzz_csv, labels, row):
        lines, path = list(fuzz_csv[0]), fuzz_csv[1]
        lines[row] = ",".join([*labels, *lines[row].split(",")[3:]])
        parses_or_names_file_and_line(path, "\n".join(lines) + "\n")

    @FUZZ
    @given(text=st.text(), cell=st.integers(0, 14))
    def test_text_on_the_header(self, fuzz_csv, text, cell):
        lines, path = list(fuzz_csv[0]), fuzz_csv[1]
        cells = lines[0].split(",")
        cells[cell] = text
        lines[0] = ",".join(cells)
        parses_or_names_file_and_line(path, "\n".join(lines) + "\n")


# Feature cells that the block parse must read as the per-row parse does, or
# leave to it: float() takes underscores, non-ASCII digits and padding, and
# np.loadtxt skips the ASCII separators \x1c-\x1f that float() rejects.
ODD_CELLS = ["-0.0", "1e400", "-1e400", "nan", "inf", "1e-320", "1_0", "\u0661\u0662",
             " 1.5", "1.5\t", "+.5", "", "#", '"', "'1'", "\x1c1.5", "1.5\x1f", "0x10",
             "1.5e", "1,5", "\u22121"]
BULK_CHECK = settings(max_examples=60, derandomize=True, database=None, deadline=None)


def read_outcome(path):
    """The samples read_dataset_csv reads from path, bit for bit, or the
    message of the CorpusFormatError it raises."""
    try:
        return [(s.frames.shape, s.frames.tobytes(), s.label, s.macro_class, s.utt_id)
                for s in read_dataset_csv(path)]
    except CorpusFormatError as exc:
        return str(exc)


class TestBlockParse:
    """The dataset-CSV reader parses blocks of rows in one np.loadtxt call;
    whatever the rows hold, it reads what the per-row parse reads, or raises
    its error at the same line."""

    FRAMES, DIM = 2, 3

    def rows(self, n, seed):
        """n rows of float reprs over the whole float64 range."""
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((n, self.FRAMES * self.DIM))
        values *= 10.0 ** rng.integers(-320, 300, values.shape)
        return [[f"u{i}", "aa", "vowels" if i % 3 else "", *map(repr, row.tolist())]
                for i, row in enumerate(values)]

    def check(self, path, rows, blanks=(), newline="\n"):
        lines = [",".join(corpus_mod.dataset_header(self.FRAMES, self.DIM))]
        lines += [",".join(row) for row in rows]
        for at, blank in sorted(blanks, reverse=True):
            lines.insert(1 + at % len(rows), blank)
        path.write_bytes(newline.join(lines).encode("utf-8") + newline.encode())
        with patch.object(corpus_mod, "_block_samples", lambda *args: None):
            want = read_outcome(path)
        got = read_outcome(path)
        assert got == want
        return got

    @BULK_CHECK
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(3, 8),
                                    st.sampled_from(ODD_CELLS) | st.floats().map(repr)),
                          max_size=4),
           cut=st.none() | st.tuples(st.integers(0, 10**6), st.integers(0, 7)),
           blanks=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(["", " ", "\t"])),
                           max_size=3),
           newline=st.sampled_from(["\n", "\r\n"]))
    def test_matches_the_per_row_parse(self, tmp_path_factory, n, seed, edits, cut, blanks,
                                       newline):
        rows = self.rows(n, seed)
        for row, cell, text in edits:
            rows[row % n][cell] = text
        if cut is not None:     # a row with fewer or more cells
            row, keep = cut
            rows[row % n] = rows[row % n][:keep] or rows[row % n] + ["1.0"]
        self.check(tmp_path_factory.mktemp("block") / "d.csv", rows, blanks, newline)

    @pytest.mark.parametrize("cell", ODD_CELLS)
    def test_odd_cell_after_the_first_block(self, tmp_path, cell):
        rows = self.rows(2 * corpus_mod.CSV_BLOCK_ROWS + 5, 7)
        rows[corpus_mod.CSV_BLOCK_ROWS + 3][5] = cell
        got = self.check(tmp_path / "d.csv", rows, [(10, "")])
        if isinstance(got, str):
            assert got.startswith(f"{tmp_path / 'd.csv'}:{corpus_mod.CSV_BLOCK_ROWS + 6}: ")

    def test_every_row_of_a_long_file_is_read_in_order(self, tmp_path):
        rows = self.rows(3 * corpus_mod.CSV_BLOCK_ROWS + 1, 8)
        got = self.check(tmp_path / "d.csv", rows, [(0, ""), (200, " ")], "\r\n")
        assert [utt for *_, utt in got] == [row[0] for row in rows]


PHN = "0 1600 h#\n1600 3200 sh\n3200 4800 iy\n4800 6400 h#\n"


@pytest.fixture(scope="module")
def fuzz_phn(tmp_path_factory):
    """A path for the fuzzed alignment files."""
    return tmp_path_factory.mktemp("fuzzed") / "u.phn"


def parses_or_names_alignment_line(path, content):
    """Write content to path; reading it back as an alignment either parses
    or raises a CorpusFormatError whose message starts with `path:line`."""
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    try:
        read_alignment(path)
    except CorpusFormatError as exc:
        assert exc.line is not None
        assert str(exc).startswith(f"{path}:{exc.line}: "), str(exc)


class TestFuzzedAlignment:
    """No input to the alignment reader ends in any exception other than a
    CorpusFormatError that names the file and line."""

    @FUZZ
    @given(content=st.binary())
    def test_arbitrary_bytes(self, fuzz_phn, content):
        parses_or_names_alignment_line(fuzz_phn, content)

    @FUZZ
    @given(content=st.binary(min_size=1), at=st.integers(0, 10**6))
    def test_bytes_spliced_into_a_valid_file(self, fuzz_phn, content, at):
        good = PHN.encode("utf-8")
        at %= len(good)
        parses_or_names_alignment_line(fuzz_phn, good[:at] + content + good[at:])

    @FUZZ
    @given(text=st.text(), row=st.integers(0, 3), field=st.integers(0, 2))
    def test_text_in_one_field(self, fuzz_phn, text, row, field):
        lines = [line.split(" ") for line in PHN.splitlines()]
        lines[row][field] = text
        parses_or_names_alignment_line(fuzz_phn, "".join(" ".join(line) + "\n" for line in lines))


def make_fixture_corpus(root, n_utts=2):
    """Tiny TIMIT-layout corpus: one dialect, one speaker, two utterances
    of synthetic [h# sh iy h#] with a consistent signal character per phone."""
    rng = np.random.default_rng(7)
    speaker = root / "dr1" / "spk1"
    speaker.mkdir(parents=True)
    for i in range(n_utts):
        n = 6400
        t = np.arange(n) / 16000.0
        wave = 0.01 * rng.standard_normal(n)          # h# floor
        noise = rng.standard_normal(n)
        wave[1600:3200] += 0.25 * (noise[1600:3200] - np.roll(noise, 1)[1600:3200])
        wave[3200:4800] += 0.35 * np.sin(2 * np.pi * 300.0 * t[3200:4800])
        wave[3200:4800] += 0.15 * np.sin(2 * np.pi * 2300.0 * t[3200:4800])
        write_sphere(speaker / f"utt{i}.wav", wave)
        (speaker / f"utt{i}.phn").write_text(
            f"0 1600 h#\n1600 3200 sh\n3200 4800 iy\n4800 {n} h#\n")
    return root


class TestBuildCorpusDataset:
    def test_fixture_corpus(self, tmp_path):
        root = make_fixture_corpus(tmp_path / "corpus")
        samples, stats = build_corpus_dataset(root)
        assert stats["utterances"] == 2
        assert stats["segments"] == 8
        assert len(samples) == 8
        for s in samples:
            assert s.frames.shape == (9, 12)
            assert s.macro_class is not None

    def test_utterance_shorter_than_a_frame_is_skipped_and_counted(self, tmp_path):
        root = make_fixture_corpus(tmp_path / "corpus")
        want, _ = build_corpus_dataset(root)
        speaker = root / "dr1" / "spk1"
        write_sphere(speaker / "utt05.wav", np.zeros(100, dtype=np.int16))
        (speaker / "utt05.phn").write_text("0 100 h#\n")
        samples, stats = build_corpus_dataset(root)
        assert stats["utterances"] == 3
        assert stats["skipped_utterances"] == 1
        assert stats["segments"] == 8
        assert [(s.utt_id, s.label) for s in samples] == [(s.utt_id, s.label) for s in want]
        assert all(np.array_equal(a.frames, b.frames) for a, b in zip(samples, want))

    def test_dialect_filter(self, tmp_path):
        root = make_fixture_corpus(tmp_path / "corpus")
        samples, stats = build_corpus_dataset(root, dialects=["dr2"])
        assert stats["utterances"] == 0
        assert samples == []

    def test_unknown_phone_raises_corpus_error(self, tmp_path):
        root = make_fixture_corpus(tmp_path / "corpus")
        phn = root / "dr1" / "spk1" / "utt0.phn"
        phn.write_text("0 3200 qq\n")
        with pytest.raises(CorpusFormatError, match="qq"):
            build_corpus_dataset(root)

    def test_missing_root(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            build_corpus_dataset(tmp_path / "nope")

    def test_utterance_name_that_is_not_utf8_names_its_audio_file(self, tmp_path):
        root = make_fixture_corpus(tmp_path / "corpus")
        speaker = os.fsencode(root / "dr1" / "spk1")
        for suffix in (b".wav", b".phn"):
            os.rename(speaker + b"/utt1" + suffix, speaker + b"/ut\xe91" + suffix)
        utterances, error = list_utterances(root, "phn")
        assert [utt_id for utt_id, _, _ in utterances] == ["spk1/utt0"]
        assert str(error) == f"{root}/dr1/spk1/ut\udce91.wav: name is not UTF-8"

    def test_audio_names_that_differ_only_in_suffix_case_raise(self, tmp_path):
        # utt1.WAV sorts first and is listed; utt1.wav names utt1 again
        root = make_fixture_corpus(tmp_path / "corpus")
        speaker = root / "dr1" / "spk1"
        shutil.copy(speaker / "utt1.wav", speaker / "utt1.WAV")
        utterances, error = list_utterances(root, "phn")
        assert [(utt_id, wav.name) for utt_id, wav, _ in utterances] == [
            ("spk1/utt0", "utt0.wav"), ("spk1/utt1", "utt1.WAV")]
        message = f"{speaker}/utt1.wav: a second audio file of utterance spk1/utt1"
        assert str(error) == message
        with pytest.raises(CorpusFormatError) as raised:
            build_corpus_dataset(root)
        assert str(raised.value) == message


@pytest.fixture(scope="module")
def fuzz_sphere(tmp_path_factory):
    """The 1024-byte header and the payload of a valid 40-sample SPHERE
    file, and a path for the fuzzed copies."""
    path = tmp_path_factory.mktemp("fuzzed") / "u.wav"
    write_sphere(path, np.arange(-20, 20, dtype=np.int16) * 100)
    raw = path.read_bytes()
    return raw[:1024], raw[1024:], path


def reads_or_names_file(path, content):
    """Write content to path; reading it back as SPHERE audio either parses
    or raises a CorpusFormatError whose message starts with the path."""
    path.write_bytes(content)
    try:
        read_sphere(path)
    except CorpusFormatError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)


class TestFuzzedSphereHeader:
    """No SPHERE header ends in any exception other than a CorpusFormatError
    naming the file, and a header size that falls short of the end_head
    line is always rejected."""

    @FUZZ
    @given(header=st.binary())
    def test_arbitrary_header_bytes(self, fuzz_sphere, header):
        reads_or_names_file(fuzz_sphere[2], header + fuzz_sphere[1])

    @FUZZ
    @given(content=st.binary(min_size=1), at=st.integers(0, 1023))
    def test_bytes_spliced_into_the_header(self, fuzz_sphere, content, at):
        head, payload, path = fuzz_sphere
        reads_or_names_file(path, head[:at] + content + head[at:] + payload)

    @FUZZ
    @given(text=st.text(), field=st.integers(2, 7))
    def test_text_on_a_field_line(self, fuzz_sphere, text, field):
        head, payload, path = fuzz_sphere
        lines = head.split(b"\n")
        lines[field] = text.encode("utf-8")
        reads_or_names_file(path, b"\n".join(lines) + payload)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(size=st.integers(-10**6, 1100))
    def test_header_size(self, fuzz_sphere, size):
        head, payload, path = fuzz_sphere
        fuzzed = head.replace(b"   1024\n", f"{size}\n".encode(), 1)
        if size < fuzzed.index(b"end_head") + len(b"end_head"):
            path.write_bytes(fuzzed + payload)
            with pytest.raises(CorpusFormatError, match="does not cover the end_head line"):
                read_sphere(path)
        else:
            reads_or_names_file(path, fuzzed + payload)
