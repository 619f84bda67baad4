"""Command-line entry point.

Subcommands: features (corpus -> dataset CSV), synth (synthetic dataset),
train (any model variant), eval (calibrate + report), report (re-render a
report CSV).  Every run is driven by one config file; resolved settings are
written next to the outputs together with a manifest of produced files.

Exit codes: 0 ok, 2 config error, 3 I/O error, 4 malformed corpus file,
5 training divergence.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from .config import AUTO, RunConfig, registry_help
from .errors import ConfigError, CorpusFormatError, DivergenceError
from .evaluate import calibrate, read_report_csv, render_text, report, write_confusion_csv, write_report_csv
from .lin import train_lin
from .mfcc import write_frames_csv
from .models import LinModel, RssomModel, SomModel, SsomModel, load_model, save_model
from .rssom import train_rssom
from .som import Lattice, train_som
from .ssom import feature_ranges, normalized_init, train_ssom

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_CORPUS = 4
EXIT_DIVERGED = 5


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _finalize(cfg: RunConfig, outdir: Path, produced: list[Path]) -> None:
    eff = outdir / "effective-config.txt"
    eff.write_text(cfg.effective_text())
    produced = produced + [eff]
    manifest = outdir / "run-manifest.txt"
    lines = [f"{_sha256(p)}  {p.name}" for p in sorted(produced)]
    manifest.write_text("\n".join(lines) + "\n")


def _read_dataset(cfg: RunConfig, key: str):
    path = Path(cfg.require(key))
    if not path.is_file():
        raise FileNotFoundError(f"dataset file {path} does not exist")
    return corpus_mod.read_dataset_csv(path)


def cmd_features(cfg: RunConfig) -> int:
    root = Path(cfg.require("corpus.root"))
    if not root.is_dir():
        raise FileNotFoundError(f"corpus root {root} does not exist")
    dialects = [d for d in cfg["corpus.dialects"].split(",") if d]
    speakers = [s for s in cfg["corpus.speakers"].split(",") if s]
    samples, stats = corpus_mod.build_corpus_dataset(
        root, cfg.mfcc_config(), unit=cfg["corpus.unit"], k=cfg["corpus.frames"],
        dialects=dialects or None, speakers=speakers or None, collect_frames=True)
    if not samples:
        raise FileNotFoundError(f"no labeled segments found under {root}")
    outdir = cfg.outdir()
    outdir.mkdir(parents=True, exist_ok=True)
    out = outdir / "dataset.csv"
    corpus_mod.write_dataset_csv(samples, out)
    frames_out = outdir / "frames.csv"
    write_frames_csv(stats["utterance_frames"], frames_out)
    print(f"utterances: {stats['utterances']} ({stats['skipped_utterances']} skipped)")
    print(f"segments: {stats['segments']} ({stats['skipped_segments']} skipped)")
    print(f"wrote {out}")
    _finalize(cfg, outdir, [out, frames_out])
    return EXIT_OK


def cmd_synth(cfg: RunConfig) -> int:
    try:
        samples = corpus_mod.synth_generate(
            cfg["synth.classes"], cfg["synth.samples_per_class"], cfg["synth.dim"],
            cfg["synth.frames"], cfg["synth.separation"], cfg["synth.order_task"],
            cfg["run.seed"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    outdir = cfg.outdir()
    outdir.mkdir(parents=True, exist_ok=True)
    out = outdir / "synth.csv"
    corpus_mod.write_dataset_csv(samples, out)
    print(f"wrote {out} ({len(samples)} sequences)")
    _finalize(cfg, outdir, [out])
    return EXIT_OK


def _build_and_train(cfg: RunConfig, data):
    kind = cfg.require("run.model")
    seed = cfg["run.seed"]
    rows, cols = cfg["lattice.rows"], cfg["lattice.cols"]
    schedule = cfg.schedule()
    if kind == "som":
        if cfg["som.concat"]:
            vectors = np.stack([s.frames.ravel() for s in data])
        else:
            vectors = np.concatenate([s.frames for s in data], axis=0)
        lattice = Lattice.random_init(rows, cols, vectors, seed)
        log = train_som(vectors, lattice, schedule, seed)
        return SomModel(lattice, concat=cfg["som.concat"]), log

    ssom_cfg = cfg.ssom_config()
    kernel = cfg.lateral_kernel()
    rule = cfg.stdp_rule()
    lo, hi = feature_ranges(data)
    lattice = normalized_init(rows, cols, data, seed)
    if kind == "ssom":
        log = train_ssom(data, lattice, schedule, ssom_cfg, rule, seed,
                         kernel=kernel, lo=lo, hi=hi)
        return SsomModel(lattice, lo, hi, ssom_cfg, kernel, rule), log
    if kind == "rssom":
        alpha = cfg["rssom.alpha"]
        log = train_rssom(data, lattice, schedule, ssom_cfg, rule, alpha, seed,
                          kernel=kernel, lo=lo, hi=hi)
        return RssomModel(lattice, lo, hi, ssom_cfg, kernel, rule, alpha=alpha), log
    lam = cfg["lin.lambda"]
    scale = cfg["lin.scale_input_by_lambda"]
    log = train_lin(data, lattice, schedule, ssom_cfg, rule, lam, seed,
                    kernel=kernel, lo=lo, hi=hi, scale_input_by_lambda=scale)
    return LinModel(lattice, lo, hi, ssom_cfg, kernel, rule, lam=lam,
                    scale_input_by_lambda=scale), log


def cmd_train(cfg: RunConfig) -> int:
    try:
        data = _read_dataset(cfg, "data.train_csv")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    model, log = _build_and_train(cfg, data)
    outdir = cfg.outdir()
    outdir.mkdir(parents=True, exist_ok=True)
    model_path = outdir / "model.txt"
    log_path = outdir / "training-log.csv"
    save_model(model, model_path)
    log.to_csv(log_path)
    final = log.rows[-1]
    print(f"trained {model.kind} for {len(log.rows)} epochs "
          f"(final qe {final.qe:.6g}, {log.total_skipped} skipped presentations)")
    print(f"wrote {model_path}")
    _finalize(cfg, outdir, [model_path, log_path])
    return EXIT_OK


def _class_function(cfg: RunConfig):
    if cfg["eval.class_map"] == "timit_macro":
        def class_of(label):
            if label in corpus_mod.MACRO_CLASSES:
                return label
            return corpus_mod.macro_class(label)
        return class_of, list(corpus_mod.MACRO_CLASSES)
    return None, None


def cmd_eval(cfg: RunConfig, model_path: str) -> int:
    model_path = Path(model_path)
    if not model_path.is_file():
        raise FileNotFoundError(f"model file {model_path} does not exist")
    try:
        model = load_model(model_path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if model.kind.lower() != cfg.require("run.model"):
        raise ConfigError(
            f"model file is {model.kind} but config asks for "
            f"{cfg['run.model'].upper()}")
    train_data = _read_dataset(cfg, "data.train_csv")
    test_data = _read_dataset(cfg, "data.test_csv")
    frame_vote = cfg["eval.frame_vote"]
    class_of, expected = _class_function(cfg)
    labels = calibrate(model, train_data, frame_vote=frame_vote)
    rep, confusion = report(model, labels, test_data, class_of=class_of,
                            frame_vote=frame_vote, expected_classes=expected)
    outdir = cfg.outdir()
    outdir.mkdir(parents=True, exist_ok=True)
    text = render_text(rep, title=f"Recognition rates ({model.kind})")
    (outdir / "report.txt").write_text(text)
    write_report_csv(rep, outdir / "report.csv")
    write_confusion_csv(confusion, outdir / "confusion.csv")
    print(text, end="")
    _finalize(cfg, outdir,
              [outdir / "report.txt", outdir / "report.csv", outdir / "confusion.csv"])
    return EXIT_OK


def cmd_report(csv_path: str) -> int:
    path = Path(csv_path)
    if not path.is_file():
        raise FileNotFoundError(f"report CSV {path} does not exist")
    try:
        rep = read_report_csv(path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    print(render_text(rep), end="")
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
    p = sub.add_parser("report", help="re-render a report CSV as a text table")
    p.add_argument("--csv", required=True, help="report CSV written by eval")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.csv)
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


if __name__ == "__main__":
    sys.exit(main())
