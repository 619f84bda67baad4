import numpy as np
import pytest

from pulsom.corpus import (
    MACRO_CLASSES,
    Segment,
    SequenceSample,
    build_corpus_dataset,
    macro_class,
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
