"""The benchmark's workloads: a synthetic corpus spec, a run config and the
CLI stages run on them, one after the other.

Every corpus has a fixed shape and seeded content, so runs with different
seeds do the same amount of work on different text: sentences have one
length (22 tokens, the middle of the 15-30 range of report-scale corpora),
and gold sentences are verbatim copies (noise 0), so synthgen never redraws
a perturbation or a whole report.
"""

from __future__ import annotations

from dataclasses import dataclass

BASELINES = ("textrank", "lexrank", "lead")
# The trained summaries must reach this ROUGE-L F1 on the split they are
# scored on, and beat every baseline. The demo script's full schedule reaches
# 1.000; the shorter one here reached 1.000 on 48 of 50 seeds and 0.900 on the
# other two (1002 and 1007), the worst seen.
MIN_SUMMARIES_F1 = 0.85


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict  # SynthSpec fields except the seed
    config: dict  # RunConfig fields except the seed and data_root
    neural: bool  # train, fine-tune and summarize before the baselines
    split: str  # the split that is summarized, baselined and evaluated

    def reports(self, split: str) -> int:
        key = {"training": "n_reports", "validation": "n_validation_reports",
               "testing": "n_testing_reports"}[split]
        return self.spec[key]

    @property
    def total_reports(self) -> int:
        return sum(self.reports(s) for s in ("training", "validation", "testing"))

    def stages(self) -> list[tuple[str, list[str]]]:
        """(stage name, CLI argv before the global flags); `{out}` is the run's output dir."""
        stages = [("oracle", ["oracle"])]
        systems = []
        if self.neural:
            stages += [
                ("train-extractor", ["train-extractor"]),
                ("train-abstractor", ["train-abstractor"]),
                ("train-rl", ["train-rl"]),
                ("summarize", ["summarize", "--split", self.split,
                               "--extractor", "{out}/extractor_rl.ckpt"]),
            ]
            systems.append("{out}/summaries")
        for method in BASELINES:
            stages.append((f"baseline-{method}",
                           ["baseline", "--method", method, "--split", self.split]))
            systems.append(f"{{out}}/baseline_{method}")
        stages.append(("evaluate", ["evaluate", "--split", self.split, "--pred", *systems]))
        return stages

    def work(self) -> dict[str, tuple[str, float]]:
        """Stage-throughput metric name -> (stage name or 'baseline', work units per iteration)."""
        n_split = self.reports(self.split)
        systems = len(BASELINES) + int(self.neural)
        work = {
            "oracle_reports_per_s": ("oracle", self.total_reports),
            "baseline_reports_per_s": ("baseline", n_split * len(BASELINES)),
            "evaluate_docs_per_s": ("evaluate", n_split * systems),
        }
        if self.neural:
            pairs = self.spec["n_reports"] * self.spec["summary_sentences"]
            work.update({
                "train_extractor_docs_per_s":
                    ("train-extractor", self.spec["n_reports"] * self.config["extractor_epochs"]),
                "train_abstractor_pairs_per_s":
                    ("train-abstractor", pairs * self.config["abstractor_epochs"]),
                "train_rl_episodes_per_s": ("train-rl", self.config["rl_episodes"]),
                "summarize_reports_per_s": ("summarize", n_split),
            })
        return work


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="demo",
            why="tiny models trained for many epochs: time goes to per-token autodiff "
                "bookkeeping, while rouge, oracle and baselines cost nearly nothing",
            # The demo script's report shape and config, cut to 2 training
            # reports, 40 epochs, batches of 1 and 40 RL episodes so that a pass
            # takes about 8 s. Most seeds still train to ROUGE-L F1 1.000, but
            # no schedule that fits a run did so on every seed.
            # Sentences have one length, so every seed does the same work.
            spec={"n_reports": 2, "sentences_per_report": 12, "summary_sentences": 3,
                  "vocabulary_size": 50, "noise_rate": 0.0, "n_validation_reports": 1,
                  "n_testing_reports": 1, "min_sentence_tokens": 7, "max_sentence_tokens": 7},
            config={"vocab_size": 300, "embedding_dim": 32, "hidden_dim": 32, "lr": 0.01,
                    "lr_decay": 1.0, "batch_size": 1, "extractor_epochs": 40,
                    "abstractor_epochs": 40, "max_output_tokens": 16, "rl_episodes": 40,
                    "rl_lr": 0.001, "rl_updates_every": 4},
            neural=True,
            # The generator plants no signal that transfers across reports, so the
            # demo scores reconstruction of the training split.
            split="training",
        ),
        Workload(
            name="report_extractive",
            why="long reports with no neural model: pure-Python LCS in the oracle dominates, "
                "then O(n^2) sentence graphs and PageRank; autodiff does nothing",
            spec={"n_reports": 1, "sentences_per_report": 300, "summary_sentences": 10,
                  "vocabulary_size": 2000, "noise_rate": 0.0, "n_validation_reports": 0,
                  "n_testing_reports": 1, "min_sentence_tokens": 22, "max_sentence_tokens": 22},
            config={"word_limit": 220},
            neural=False,
            split="testing",
        ),
    )
}

