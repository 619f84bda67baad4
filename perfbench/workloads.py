"""The three benchmark workloads.

Each workload writes its seeded inputs and run configs under a work
directory and returns a plan: the config files to load at set-up, and the
CLI steps to run in order, each with what its outputs must satisfy.  All
paths in a plan and its configs are relative to the work directory, which is
the worker's current directory.
"""

from __future__ import annotations

from pathlib import Path

from inputs import synth_split, timit_corpus

FRAMES = 9


def _write_cfg(workdir: Path, name: str, keys: dict) -> str:
    rel = f"cfg/{name}.cfg"
    path = workdir / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return rel


def _train_eval(workdir: Path, kind: str, base: dict, train_rows: int, test_rows: int,
                epochs: int, lattice: int, eval_variants=(("eval", {}),)):
    """One train step for `kind` plus one eval step per variant."""
    outdir = f"runs/{kind}"
    keys = {"run.model": kind, "run.outdir": outdir, "lattice.rows": lattice,
            "lattice.cols": lattice, "schedule.epochs": epochs, **base}
    train_cfg = _write_cfg(workdir, f"{kind}-train", keys)
    steps = [{"kind": "train", "argv": ["train", "--config", train_cfg], "outdir": outdir,
              "model": kind.upper(), "lattice": lattice, "epochs": epochs,
              "frames": epochs * train_rows * FRAMES}]
    configs = [train_cfg]
    for name, extra in eval_variants:
        eval_dir = f"{outdir}/{name}"
        cfg = _write_cfg(workdir, f"{kind}-{name}", {**keys, "run.outdir": eval_dir, **extra})
        configs.append(cfg)
        steps.append({"kind": "eval", "outdir": eval_dir, "test_rows": test_rows,
                      "argv": ["eval", "--config", cfg, "--model", f"{outdir}/model.txt"],
                      "frames": (train_rows + test_rows) * FRAMES})
    return configs, steps


def train_seq(workdir: Path, seed: int) -> dict:
    """The temporal-order task: two classes share their frames in opposite
    order; each model is trained long enough that training dominates."""
    (workdir / "inputs").mkdir(parents=True)
    train_rows, test_rows = synth_split(workdir / "inputs/train.csv", workdir / "inputs/test.csv",
                                        2, 75, 25, seed, order_task=True)
    base = {"run.seed": seed, "rssom.alpha": 0.5, "lin.lambda": 0.4,
            "data.train_csv": "inputs/train.csv", "data.test_csv": "inputs/test.csv"}
    configs, steps = [], []
    for kind in ("som", "ssom", "rssom", "lin"):
        c, s = _train_eval(workdir, kind, base, train_rows, test_rows, epochs=4, lattice=8)
        configs += c
        steps += s
    return {"configs": configs, "steps": steps}


def eval_large(workdir: Path, seed: int) -> dict:
    """Brief training on a small calibration set, then inference over a large
    test set with the terminal winner and with per-frame voting."""
    (workdir / "inputs").mkdir(parents=True)
    train_rows, test_rows = synth_split(workdir / "inputs/train.csv", workdir / "inputs/test.csv",
                                        3, 40, 700, seed, separation=2.0)
    base = {"run.seed": seed, "data.train_csv": "inputs/train.csv",
            "data.test_csv": "inputs/test.csv"}
    variants = (("terminal", {}), ("frame-vote", {"eval.frame_vote": "true"}))
    configs, trains, evals = [], [], []
    for kind in ("ssom", "rssom", "lin"):
        c, s = _train_eval(workdir, kind, base, train_rows, test_rows, epochs=4, lattice=12,
                           eval_variants=variants)
        configs += c
        trains.append(s[0])
        evals += s[1:]
    return {"configs": configs, "steps": trains + evals}


def corpus_features(workdir: Path, seed: int) -> dict:
    """MFCC features from a TIMIT-layout corpus, then a one-epoch SOM on the
    dataset it produced.  The SOM runs on whole-segment vectors
    (som.concat), so feature extraction stays the larger share of the time;
    its 16x16 lattice gives the train and eval steps enough work to time."""
    counts = timit_corpus(workdir / "inputs/corpus", seed)
    feat_dir = "runs/features"
    feat_cfg = _write_cfg(workdir, "features", {"run.outdir": feat_dir,
                                                "corpus.root": "inputs/corpus"})
    rows = counts["segments"]
    # One epoch runs at the schedule's start values throughout, so they are
    # set to a small step and a narrow neighborhood.
    base = {"run.seed": seed, "som.concat": "true", "eval.class_map": "timit_macro",
            "schedule.lr_start": 0.1, "schedule.lr_end": 0.1,
            "schedule.radius_start": 1.0, "schedule.radius_end": 1.0,
            "data.train_csv": f"{feat_dir}/dataset.csv",
            "data.test_csv": f"{feat_dir}/dataset.csv"}
    configs, steps = _train_eval(workdir, "som", base, rows, rows, epochs=1, lattice=16)
    features = {"kind": "features", "argv": ["features", "--config", feat_cfg],
                "outdir": feat_dir, "segments": rows, "frame_rows": counts["frames"],
                "audio_s": counts["audio_s"]}
    return {"configs": [feat_cfg] + configs, "steps": [features] + steps}


WORKLOADS = {
    "train-seq": train_seq,
    "eval-large": eval_large,
    "corpus-features": corpus_features,
}
