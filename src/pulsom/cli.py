"""Command-line entry point.

Subcommands: features (corpus -> dataset CSV), synth (synthetic dataset),
train (any model variant) and eval (calibrate + report).  Every run is
driven by one config file; resolved settings are written next to the
outputs together with a manifest of produced files.

Exit codes: 0 ok, 2 config error, 3 I/O error, 4 malformed corpus file,
5 training divergence.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import corpus as corpus_mod
from .config import RunConfig, registry_help
from .errors import ConfigError, CorpusFormatError, DivergenceError
from .evaluate import calibrate, render_text, report, write_confusion_csv, write_report_csv
from .lin import train_lin
from .mfcc import frames_csv_header, frames_csv_lines, row_texts
from .models import load_model, model_of, save_model
from .rssom import train_rssom
from .som import Lattice, sample_vectors, train_som
from .ssom import feature_ranges, normalized_init, train_ssom

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_CORPUS = 4
EXIT_DIVERGED = 5


@contextmanager
def _outputs(cfg: RunConfig, *names: str):
    """Paths to write the outputs ``names`` to: ``.part`` files in run.outdir,
    renamed to ``names`` if the block ends cleanly and deleted if not.  A
    clean run then writes effective-config.txt and a run-manifest.txt that
    hashes it and the outputs."""
    outdir = cfg.outdir()
    outdir.mkdir(parents=True, exist_ok=True)
    finals = [outdir / name for name in names]
    parts = [p.with_name(p.name + ".part") for p in finals]
    try:
        yield parts
        for part, final in zip(parts, finals):
            os.replace(part, final)
    except BaseException:
        for part in parts:
            part.unlink(missing_ok=True)
        raise
    eff = outdir / "effective-config.txt"
    eff.write_text(cfg.effective_text(), encoding="utf-8")
    lines = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}"
             for p in sorted(finals + [eff])]
    (outdir / "run-manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_dataset(cfg: RunConfig, key: str, model=None):
    """The dataset at ``key``; with a model, one whose vectors are not the
    model's width is malformed (its header, line 1, says so)."""
    path = Path(cfg.require(key))
    if not path.is_file():
        raise FileNotFoundError(f"dataset file {path} does not exist")
    data = corpus_mod.read_dataset_csv(path)
    if model is not None:
        concat = getattr(model, "concat", False)
        width = sample_vectors(data[:1], concat).shape[1]
        if width != model.lattice.dim:
            raise CorpusFormatError(path, f"{width} features per "
                                    f"{'sample' if concat else 'frame'}, but the model has "
                                    f"dim {model.lattice.dim}", line=1)
    return data


def cmd_features(cfg: RunConfig) -> int:
    root = Path(cfg.require("corpus.root"))
    if not root.is_dir():
        raise FileNotFoundError(f"corpus root {root} does not exist")
    dialects = [d for d in cfg["corpus.dialects"].split(",") if d]
    speakers = [s for s in cfg["corpus.speakers"].split(",") if s]
    mfcc_cfg, k = cfg.mfcc_config(), cfg["corpus.frames"]
    stats = {}
    with _outputs(cfg, "dataset.csv", "frames.csv") as (out, frames_out), \
            open(out, "w", encoding="utf-8") as data_f, \
            open(frames_out, "w", encoding="utf-8") as frames_f:
        data_f.write(",".join(corpus_mod.dataset_header(k, mfcc_cfg.n_coeffs)) + "\n")
        frames_f.write(frames_csv_header(mfcc_cfg.n_coeffs))
        # Each utterance's numbers are formatted once, for both files.  The
        # walk's ValueErrors are settings (too many mel filters, no frames).
        with cfg.config_errors("mfcc.", "corpus."):
            for utt_id, feats, picks in corpus_mod.walk_corpus(
                    root, mfcc_cfg, cfg["corpus.unit"], k, dialects, speakers, stats):
                texts = row_texts(feats)
                frames_f.write(frames_csv_lines(utt_id, texts))
                data_f.write("".join(
                    corpus_mod.dataset_csv_line(utt_id, seg.label, macro,
                                                [texts[i] for i in idx])
                    for seg, macro, idx in picks))
        if stats["segments"] == stats["skipped_segments"]:
            raise FileNotFoundError(f"no labeled segments found under {root}")
    print(f"utterances: {stats['utterances']} ({stats['skipped_utterances']} skipped)")
    print(f"segments: {stats['segments']} ({stats['skipped_segments']} skipped)")
    print(f"wrote {cfg.outdir() / 'dataset.csv'}")
    return EXIT_OK


def synth_dataset(cfg: RunConfig):
    """The configured synthetic sequences; a bad value raises ConfigError
    naming where it was set."""
    with cfg.config_errors("synth.", "run.seed"):
        return corpus_mod.synth_generate(
            cfg["synth.classes"], cfg["synth.samples_per_class"], cfg["synth.dim"],
            cfg["synth.frames"], cfg["synth.separation"], cfg["synth.order_task"],
            cfg["run.seed"])


def cmd_synth(cfg: RunConfig) -> int:
    samples = synth_dataset(cfg)
    with _outputs(cfg, "synth.csv") as (out,):
        corpus_mod.write_dataset_csv(samples, out)
    print(f"wrote {cfg.outdir() / 'synth.csv'} ({len(samples)} sequences)")
    return EXIT_OK


def build_model(cfg: RunConfig, data):
    """The untrained model of the configured kind, initialized from data; a
    bad value raises ConfigError naming where it was set."""
    kind = cfg.require("run.model")
    rows, cols, seed = cfg["lattice.rows"], cfg["lattice.cols"], cfg["run.seed"]
    with cfg.config_errors("lattice.", f"{kind}."):
        if kind == "som":
            vectors = sample_vectors(data, cfg["som.concat"])
            return model_of(kind, Lattice.random_init(rows, cols, vectors, seed), cfg)
        return model_of(kind, normalized_init(rows, cols, data, seed), cfg,
                        *feature_ranges(data))


def _build_and_train(cfg: RunConfig, data):
    schedule = cfg.schedule()
    model = build_model(cfg, data)
    trainer = {"som": train_som, "ssom": train_ssom, "rssom": train_rssom, "lin": train_lin}
    return model, trainer[cfg["run.model"]](data, model, schedule, cfg["run.seed"])


def cmd_train(cfg: RunConfig) -> int:
    with cfg.config_errors():
        data = _read_dataset(cfg, "data.train_csv")
    model, log = _build_and_train(cfg, data)
    with _outputs(cfg, "model.txt", "training-log.csv") as (model_path, log_path):
        save_model(model, model_path)
        log.to_csv(log_path)
    final = log.rows[-1]
    print(f"trained {model.kind} for {len(log.rows)} epochs "
          f"(final qe {final.qe:.6g}, {log.total_skipped} skipped presentations)")
    print(f"wrote {cfg.outdir() / 'model.txt'}")
    return EXIT_OK


def _class_function(cfg: RunConfig):
    if cfg["eval.class_map"] == "timit_macro":
        def class_of(label):
            return label if label in corpus_mod.MACRO_CLASSES else corpus_mod.macro_class(label)
        return class_of, list(corpus_mod.MACRO_CLASSES)
    return None, None


def _check_classes(path: Path, data, class_of) -> None:
    """The dataset row of the first sample whose label has no class is
    malformed (sample i is the i-th non-blank row after the header)."""
    for i, sample in enumerate(data):
        try:
            class_of(sample.label)
        except ValueError:
            with open(path, encoding="utf-8") as f:
                line = [n for n, text in enumerate(f, start=1) if n > 1 and text.strip()][i]
            raise CorpusFormatError(path, f"label {sample.label!r} is neither a TIMIT phone "
                                          "nor a macro class", line=line) from None


def cmd_eval(cfg: RunConfig, model_path: str) -> int:
    model_path = Path(model_path)
    if not model_path.is_file():
        raise FileNotFoundError(f"model file {model_path} does not exist")
    with cfg.config_errors():
        model = load_model(model_path)
    if model.kind.lower() != cfg.require("run.model"):
        raise ConfigError(
            f"model file is {model.kind} but config asks for "
            f"{cfg['run.model'].upper()}")
    train_data = _read_dataset(cfg, "data.train_csv", model)
    datasets = {"data.train_csv": train_data}
    test_path = Path(cfg.require("data.test_csv"))
    if test_path.is_file() and os.path.samefile(cfg["data.train_csv"], test_path):
        test_data = train_data      # one file named twice is read and checked once
    else:
        test_data = datasets["data.test_csv"] = _read_dataset(cfg, "data.test_csv", model)
    class_of, expected = _class_function(cfg)
    if class_of is not None:    # predictions carry training labels: check both files
        for key, data in datasets.items():
            _check_classes(Path(cfg[key]), data, class_of)
    labels = calibrate(model, train_data, frame_vote=cfg["eval.frame_vote"])
    rep, confusion = report(model, labels, test_data, class_of=class_of,
                            expected_classes=expected)
    text = render_text(rep, title=f"Recognition rates ({model.kind})")
    with _outputs(cfg, "report.txt", "report.csv", "confusion.csv") as (txt, csv, conf):
        txt.write_text(text, encoding="utf-8")
        write_report_csv(rep, csv)
        write_confusion_csv(confusion, conf)
    print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pulsom",
        description=__doc__,
        epilog=registry_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("features", "extract MFCC features from a corpus into a dataset CSV"),
        ("synth", "generate a synthetic sequence dataset CSV"),
        ("train", "train the configured model on data.train_csv"),
        ("eval", "calibrate on data.train_csv, evaluate data.test_csv"),
    ]:
        p = sub.add_parser(name, help=doc, epilog=registry_help(),
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", required=True, help="run configuration file")
        if name == "eval":
            p.add_argument("--model", required=True, help="trained model file")
    return parser


def main(argv=None) -> int:
    if isinstance(sys.stdout, io.TextIOWrapper):
        # A label the locale cannot encode prints escaped, as on stderr.
        sys.stdout.reconfigure(errors="backslashreplace")
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config)
        if args.command == "features":
            return cmd_features(cfg)
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        return cmd_eval(cfg, args.model)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CorpusFormatError as exc:
        print(f"corpus error: {exc}", file=sys.stderr)
        return EXIT_CORPUS
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (FileNotFoundError, PermissionError, IsADirectoryError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        # e.g. lattice.rows = 10^12 in train, synth.samples_per_class = 10^15
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
