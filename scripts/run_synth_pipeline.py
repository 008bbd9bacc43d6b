#!/usr/bin/env python3
"""Run the whole pipeline end to end on a deterministic synthetic corpus.

Generates a small corpus with known sentence alignments, trains the
extractor and the abstractor, fine-tunes the extractor with actor-critic
updates, summarizes, runs the graph and lead baselines, and prints the
evaluation table.  Every stage goes through the public CLI, so this
doubles as a smoke test for the installed package.

The synthetic generator picks each report's summary sentences uniformly
at random, so there is no signal that transfers across reports: held-out
scores are chance level by construction.  The demo therefore evaluates
reconstruction on the training split (can the trained system reproduce
the alignments it was fit to?) and disables the validation-watched
learning-rate decay, which would otherwise fire on the unlearnable
validation loss every epoch.  The held-out splits are still generated,
ingested, and aligned to exercise the data plumbing.

Usage:
    python scripts/run_synth_pipeline.py --workdir /tmp/synth_demo
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from narrsum.harness import cli

SYNTH_SPEC = {
    "n_reports": 12,
    "sentences_per_report": 12,
    "summary_sentences": 3,
    "vocabulary_size": 50,
    "noise_rate": 0.0,
    "n_validation_reports": 3,
    "n_testing_reports": 3,
}

CONFIG = {
    "vocab_size": 300,
    "embedding_dim": 32,
    "hidden_dim": 32,
    "lr": 0.01,
    "lr_decay": 1.0,
    "batch_size": 8,
    "extractor_epochs": 60,
    "abstractor_epochs": 80,
    "max_output_tokens": 16,
    "rl_episodes": 150,
    "rl_lr": 0.001,
    "rl_updates_every": 4,
    # Gold summaries are at most 3 sentences x 9 tokens; the default
    # budget of 1000 words would let every baseline emit the whole report.
    "word_limit": 27,
}


def run(stage: str, argv: list[str]) -> None:
    print(f"\n== {stage}: narrsum {' '.join(argv)}")
    started = time.perf_counter()
    code = cli(argv)
    if code != 0:
        sys.exit(f"{stage} failed with exit code {code}")
    print(f"== {stage} done in {time.perf_counter() - started:.1f}s")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", type=Path, default=Path("synth_demo"),
                        help="directory for the corpus and all artifacts")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    workdir = args.workdir.resolve()
    data_root = workdir / "data"
    out_dir = workdir / "out"
    workdir.mkdir(parents=True, exist_ok=True)

    spec_path = workdir / "synth_spec.json"
    spec_path.write_text(json.dumps({**SYNTH_SPEC, "seed": args.seed}, indent=2) + "\n")
    config_path = workdir / "config.json"
    config_path.write_text(
        json.dumps({**CONFIG, "seed": args.seed, "data_root": str(data_root)}, indent=2) + "\n"
    )

    base = ["--config", str(config_path), "--out", str(out_dir)]
    run("synthgen", ["synthgen", "--spec", str(spec_path), *base])
    run("ingest", ["ingest", *base])
    run("oracle", ["oracle", *base])
    run("train-extractor", ["train-extractor", *base])
    run("train-abstractor", ["train-abstractor", *base])
    run("train-rl", ["train-rl", *base])
    run("summarize", ["summarize", "--split", "training",
                      "--extractor", str(out_dir / "extractor_rl.ckpt"), *base])
    for method in ("textrank", "lexrank", "lead"):
        run(f"baseline-{method}", ["baseline", "--method", method, "--split", "training", *base])

    predictions = [
        out_dir / "summaries",
        out_dir / "baseline_textrank",
        out_dir / "baseline_lexrank",
        out_dir / "baseline_lead",
    ]
    run("evaluate", ["evaluate", "--split", "training",
                     "--pred", *map(str, predictions), *base])
    print(f"\nartifacts under {out_dir}")


if __name__ == "__main__":
    main()
