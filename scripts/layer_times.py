#!/usr/bin/env python3
"""Compare the CPU time of fixed-shape autodiff blocks between two source trees.

    python3 scripts/layer_times.py PARENT CHANGE [--processes 5] [--repeats 5] [--size paper]

PARENT and CHANGE are source checkouts (each with `src/narrsum`). The script
starts `--processes` fresh processes per tree, alternating the trees, each
with that tree's sources on `PYTHONPATH`, `PYTHONHASHSEED=0` and every BLAS
thread variable set to 1. A process builds each block from a fixed seed, runs
it once to warm up, then `--repeats` times under `time.process_time`. Every
repeat is one training step's work on that block: `Adam.zero_grad`, the
forward pass, a `mean_cross_entropy` loss over its output and `backward`,
except for the `Adam.step` block, which times only the update, the `load`
block, which times only the two loads, the `synthgen` and `frontend`
blocks, and the `a2c` block, which times one whole actor-critic update.

At `--size paper` (E=300, H=64) the blocks are:
- `bilstm_batch`: 300 word sequences of up to 22 tokens, as the extractor's
  word encoder sees one long report;
- `attention_decoder`: 50 abstractor pairs, each a one-row `bilstm_batch`
  encode of a 20-token source and a 20-step decoder;
- `pointer_decoder`: 20 pointer passes of 11 steps over 301 keys;
- `Adam.step`: one update of the extractor's parameters with a 5000-word
  embedding (the 20000-word one would need about 300 MB for the data, the
  gradient, both moments and the scratch buffers);
- `load`: `Checkpointed.load` of an extractor and an abstractor with a
  15000-word vocabulary (checkpoints of 37.6 and 67.5 MiB), which the
  process saves once, before timing, into a temporary directory. It calls
  only the constructors, `save` and `load`, so it runs on older trees too;
- `synthgen`: `generate` of the `report_extractive` workload's corpus at
  seed 1001 (one training and one testing report of 300 sentences), then of
  one report of 3000 sentences (15-30 tokens each, vocabulary 20000, noise
  0.1, 40 gold sentences) at seed 7, into the temporary directory. It uses
  only `SynthSpec` and `generate`, so it runs on older trees too;
- `frontend`: the fixed cost of one CLI stage, as `sentences_from_text` of
  the first testing report that `synthgen` wrote (the `report_extractive`
  one, 300 sentences) at 60 tokens per sentence, then one `cli` call that
  parses a full `baseline` argv and exits 2 at a `--data-root` that does not
  exist, with stderr captured and `--out` in the temporary directory. It
  uses only `sentences_from_text` and `cli`, so it runs on older trees too.
- `a2c`: one `A2CTrainer.update` over a wave of 4 sampled `rollout`s of the
  first training report that `synthgen` wrote (300 sentences), with an
  extractor over that report's vocabulary, a `Critic` and a paraphraser
  that returns its input. Every repeat updates the same wave. It uses only
  names older trees have too.
`--size tiny` runs the same blocks at toy shapes, to check the script.

It prints each block's median CPU milliseconds over all repeats of all
processes, per tree, and CHANGE over PARENT. Exit status: 0 when every
process ran, 1 when one failed, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# As perfbench/run.py sets them, so that BLAS threading cannot change a time.
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# Block shapes: word sequences and their steps, embedding and hidden sizes,
# abstractor pairs and their tokens, pointer passes over `sentences` keys with
# `picks` choices before stop, the embedding's vocabulary in `Adam.step`, the
# vocabulary of the checkpoints that `load` reads, and the `SynthSpec` fields
# of the corpora that `synthgen` writes.
REPORT_EXTRACTIVE_SPEC = dict(seed=1001, n_reports=1, sentences_per_report=300, summary_sentences=10,
                              vocabulary_size=2000, n_validation_reports=0, n_testing_reports=1,
                              min_sentence_tokens=22, max_sentence_tokens=22)
LONG_REPORT_SPEC = dict(seed=7, n_reports=1, sentences_per_report=3000, summary_sentences=40,
                        vocabulary_size=20000, noise_rate=0.1, n_validation_reports=0, n_testing_reports=0,
                        min_sentence_tokens=15, max_sentence_tokens=30)
SIZES = {
    "paper": dict(rows=300, steps=22, e=300, h=64, pairs=50, tokens=20, passes=20, sentences=300,
                  picks=10, vocab=5000, load_vocab=15000, synth=[REPORT_EXTRACTIVE_SPEC, LONG_REPORT_SPEC]),
    "tiny": dict(rows=3, steps=4, e=5, h=3, pairs=2, tokens=3, passes=2, sentences=4, picks=2, vocab=12,
                 load_vocab=12, synth=[dict(seed=1, n_reports=2, sentences_per_report=6, summary_sentences=2,
                                            noise_rate=0.1)]),
}


def blocks(size: dict, workdir: Path):
    """(name, setup) pairs; `setup()` returns a callable that runs the block
    once. Files that a block writes go under `workdir`."""
    import numpy as np

    from narrsum import autodiff as ad
    from narrsum.abstractor import AbstractorModel
    from narrsum.config import RunConfig
    from narrsum.corpus import build_vocab, load_dataset, sentences_from_text
    from narrsum.extractor import ExtractorModel
    from narrsum.harness import cli
    from narrsum.rl import A2CTrainer, Critic, rollout
    from narrsum.synthgen import SynthSpec, generate

    rng = np.random.default_rng(0)
    e, h = size["e"], size["h"]

    def uniform(*shape):
        return ad.param(ad.uniform_init(rng, shape))

    def lstm(dim, hidden):
        return [uniform(4 * hidden, dim + hidden), ad.param(ad.lstm_bias_init(hidden))]

    def targets(n, classes):
        return rng.integers(0, classes, size=n).tolist()

    def bilstm():
        n, steps = size["rows"], size["steps"]
        lengths = rng.integers(1, steps + 1, size=n).tolist()
        lengths[0] = steps
        x = uniform(n, steps, e)
        weights = lstm(e, h) + lstm(e, h)
        goal = targets(n * steps, 2 * h)
        opt = ad.Adam(dict(enumerate([x] + weights)), lr=1e-3, clip_norm=1.0)

        def run():
            opt.zero_grad()
            states, _ = ad.bilstm_batch(x, lengths, *weights, h)
            ad.backward(ad.mean_cross_entropy(ad.reshape(states, (n * steps, 2 * h)), goal))

        return run

    def decoder():
        t = size["tokens"]
        enc = lstm(e, h) + lstm(e, h)
        dec_w, dec_b = uniform(8 * h, e + 4 * h), ad.param(ad.lstm_bias_init(2 * h))
        att = [uniform(2 * h, h), uniform(2 * h, h), uniform(h)]
        pairs = [(uniform(1, t, e), uniform(t, e), targets(t, 4 * h)) for _ in range(size["pairs"])]
        params = enc + [dec_w, dec_b] + att + [p for pair in pairs for p in pair[:2]]
        opt = ad.Adam(dict(enumerate(params)), lr=1e-3, clip_norm=1.0)

        def run():
            opt.zero_grad()
            for source, inputs, goal in pairs:
                states, finals = ad.bilstm_batch(source, [t], *enc, h)
                keys, init = ad.reshape(states, (t, 2 * h)), ad.reshape(finals, (2 * h,))
                features = ad.attention_decoder(inputs, keys, init, dec_w, dec_b, *att)
                ad.backward(ad.mean_cross_entropy(features, goal))

        return run

    def pointer():
        n, picks = size["sentences"], size["picks"]
        w, b = uniform(8 * h, 4 * h), ad.param(ad.lstm_bias_init(2 * h))
        wq, wk, v = uniform(2 * h, h), uniform(2 * h, h), uniform(h)
        passes = [(uniform(n + 1, 2 * h), rng.choice(n, size=picks, replace=False).tolist() + [n])
                  for _ in range(size["passes"])]
        opt = ad.Adam(dict(enumerate([w, b, wq, wk, v] + [keys for keys, _ in passes])), lr=1e-3, clip_norm=1.0)

        def run():
            opt.zero_grad()
            for keys, actions in passes:
                ad.backward(ad.mean_cross_entropy(ad.pointer_decoder(keys, actions, w, b, wq, wk, v), actions))

        return run

    def adam():
        shapes = [(size["vocab"], e), (4 * h, e + h), (4 * h,), (4 * h, e + h), (4 * h,), (4 * h, 3 * h), (4 * h,),
                  (4 * h, 3 * h), (4 * h,), (8 * h, 4 * h), (8 * h,), (2 * h, h), (2 * h, h), (h,), (2 * h,)]
        params = {k: uniform(*shape) for k, shape in enumerate(shapes)}
        opt = ad.Adam(params, lr=1e-3, clip_norm=1.0)
        for p in params.values():
            p.grad = rng.normal(size=p.data.shape)
        return opt.step

    def load():
        saved = []
        for cls in (ExtractorModel, AbstractorModel):
            path = workdir / f"{cls.KIND}.ckpt"
            cls(size["load_vocab"], e, h, rng).save(path)
            saved.append((cls, path))

        def run():
            for cls, path in saved:
                cls.load(path)

        return run

    def synthgen():
        specs = [SynthSpec(**fields) for fields in size["synth"]]

        def run():
            for k, spec in enumerate(specs):
                generate(spec, workdir / f"corpus{k}")

        return run

    def frontend():
        text = sorted((workdir / "corpus0" / "testing" / "annual_reports").glob("*.txt"))[0].read_text()
        argv = ["baseline", "--method", "lexrank", "--split", "testing", "--seed", "1",
                "--data-root", str(workdir / "absent"), "--out", str(workdir / "out")]

        def run():
            sentences_from_text(text, 60)
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli(argv)
            if code != 2:
                raise RuntimeError(f"the frontend block's cli call exited {code}, not 2")

        return run

    def a2c():
        report = load_dataset(workdir / "corpus0", 60).training[0]
        vocab = build_vocab(report.sentences, 60 * len(report.sentences))
        extractor, critic = ExtractorModel(vocab.size, e, h, rng), Critic(h, rng)
        trainer = A2CTrainer(extractor.params, critic, policy_lr=1e-3, critic_lr=1e-3, clip_norm=1.0)

        class Identity:
            def paraphrase(self, ids, config):
                return list(ids)

        wave = [rollout(report, report.summaries[0], extractor, Identity(), vocab, RunConfig(), mode="sample", rng=rng)
                for _ in range(4)]
        return lambda: trainer.update(wave)

    # `frontend` and `a2c` read reports that `synthgen` writes, so they come after it.
    return [("bilstm_batch", bilstm), ("attention_decoder", decoder), ("pointer_decoder", pointer),
            ("Adam.step", adam), ("load", load), ("synthgen", synthgen), ("frontend", frontend), ("a2c", a2c)]


def child(size_name: str, repeats: int) -> None:
    """Time every block in this process; print {block: [ms, ...]} as JSON."""
    times = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, setup in blocks(SIZES[size_name], Path(workdir)):
            run = setup()
            run()
            laps = []
            for _ in range(repeats):
                start = time.process_time()
                run()
                laps.append((time.process_time() - start) * 1000.0)
            times[name] = laps
    print(json.dumps(times))


def time_tree(tree: Path, size_name: str, repeats: int) -> dict[str, list[float]]:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    env.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", "--size", size_name, "--repeats", str(repeats)]
    done = subprocess.run(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"timing {tree} failed with exit {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, nargs="?", help="source tree of the parent")
    parser.add_argument("change", type=Path, nargs="?", help="source tree of the change")
    parser.add_argument("--processes", type=int, default=5, help="fresh processes per tree (default 5)")
    parser.add_argument("--repeats", type=int, default=5, help="timed runs of each block per process (default 5)")
    parser.add_argument("--size", choices=sorted(SIZES), default="paper")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.processes < 1 or args.repeats < 1:
        parser.error("--processes and --repeats must be at least 1")
    if args.child:
        child(args.size, args.repeats)
        return 0
    trees = {"PARENT": args.parent, "CHANGE": args.change}
    for tree in trees.values():
        if tree is None or not (tree / "src" / "narrsum" / "__init__.py").is_file():
            parser.error(f"no narrsum sources under {tree}/src")
    laps: dict[str, dict[str, list[float]]] = {side: {} for side in trees}
    try:
        for _ in range(args.processes):
            for side, tree in trees.items():
                for name, times in time_tree(tree.resolve(), args.size, args.repeats).items():
                    laps[side].setdefault(name, []).extend(times)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"{args.size} blocks, median CPU ms over {args.processes} processes x {args.repeats} repeats per tree")
    print(f"{'block':<20} {'PARENT':>10} {'CHANGE':>10} {'CHANGE/PARENT':>14}")
    for name in laps["PARENT"]:
        parent, change = (statistics.median(laps[side][name]) for side in trees)
        ratio = f"{change / parent:.3f}" if parent > 0 else "-"
        print(f"{name:<20} {parent:>10.2f} {change:>10.2f} {ratio:>14}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
