"""Command-line pipeline: ingest, align, train, summarize, evaluate.

Subcommands cover the full flow from raw corpus to a score report whose
twelve cells per system (precision/recall/F1 for four metric variants)
are averaged over test documents. Every path is deterministic under a
fixed seed: rerunning a subcommand rewrites byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .abstractor import AbstractorModel, prepare_abstractor_pairs
from .autodiff import NonFiniteGradError
from .baselines import lead_n, lexrank, textrank
from .config import ConfigError, RunConfig, load_config
from .corpus import (
    SPLITS,
    DataError,
    Document,
    LoadedDataset,
    Vocab,
    build_vocab,
    load_dataset,
    read_text,
    sentence_line,
    sentences_from_text,
)
from .extractor import (
    Extraction,
    ExtractorModel,
    doc_to_ids,
    example_loss,
    prepare_extractor_examples,
    save_extractions,
)
from .oracle import OracleAlignment, build_oracle, load_alignments, save_alignments
from .rl import Critic, train_rl
from .rouge import REPORT_METRICS, RougeScore, best_against_references
from .synthgen import SynthSpec, generate
from .training import fit

log = logging.getLogger(__name__)

# Report rows, outermost first: `REPORT_METRICS` blocks, each precision/recall/F1.
REPORT_COMPONENTS = ("precision", "recall", "f1")


# ---------------------------------------------------------------- text output


def truncate_to_word_limit(tokens: Sequence[str], limit: int) -> list[str]:
    """First min(len(tokens), limit) tokens."""
    if limit < 1:
        raise ValueError("word limit must be at least 1")
    return list(tokens)[:limit]


def truncate_sentences(sentence_tokens: Sequence[Sequence[str]], limit: int) -> list[list[str]]:
    """Apply the word budget across sentences; the crossing one is cut."""
    out: list[list[str]] = []
    used = 0
    for tokens in sentence_tokens:
        if used >= limit:
            break
        kept = truncate_to_word_limit(tokens, limit - used)
        if kept:
            out.append(kept)
            used += len(kept)
    return out


def detokenize(sentence_tokens: Sequence[Sequence[str]]) -> str:
    """The non-empty sentences as `sentence_line`s, joined by spaces."""
    return " ".join(sentence_line(tokens) for tokens in sentence_tokens if tokens)


# ---------------------------------------------------------------- summarize


def summarize_document(
    document: Document,
    extractor: ExtractorModel,
    abstractor: AbstractorModel,
    vocab: Vocab,
    config: RunConfig,
) -> tuple[Extraction, str]:
    """Extract, paraphrase each pick in pointer order, emit capped text."""
    ids_lists = doc_to_ids(document, vocab)
    extraction = extractor.extract(document.id, ids_lists, max_steps=config.max_extract_sentences)
    # An empty rewrite is dropped by `truncate_sentences`, as an empty baseline sentence is.
    rewritten = [vocab.decode(abstractor.paraphrase(ids_lists[idx], config)) for idx in extraction.indices]
    text = detokenize(truncate_sentences(rewritten, config.word_limit))
    return extraction, text


# ---------------------------------------------------------------- evaluation


@dataclass
class SystemEvaluation:
    system: str
    cells: dict[str, RougeScore]  # metric label -> mean over documents
    per_document: dict[str, dict[str, RougeScore]]
    missing_references: list[str]


@dataclass
class EvaluationReport:
    split: str
    aggregation: str
    systems: list[SystemEvaluation]


def evaluate_system(
    predictions: dict[str, str],
    references: dict[str, list[list[tuple[str, ...]]]],
    config: RunConfig,
    *,
    system: str = "system",
) -> SystemEvaluation:
    """Score one system's summary texts against each report's gold summaries.

    Each prediction is split into sentences of at most
    `config.max_sentence_tokens` tokens and scored against its best
    reference (or the mean, per `config.reference_aggregation`), and each
    report cell is the arithmetic mean over scored documents. Predictions
    without references are excluded and reported.
    """
    missing = sorted(
        rid for rid in predictions if rid not in references or not references[rid]
    )
    if missing:
        log.warning("%s: %d predictions without references excluded", system, len(missing))
    excluded = set(missing)
    scored_ids = sorted(rid for rid in predictions if rid not in excluded)
    per_document: dict[str, dict[str, RougeScore]] = {}
    for rid in scored_ids:
        candidate = sentences_from_text(predictions[rid], config.max_sentence_tokens)
        per_document[rid] = {}
        for label, scorer in REPORT_METRICS.items():
            per_document[rid][label] = best_against_references(
                candidate, references[rid], scorer, config.reference_aggregation
            )
    cells = {}
    for label in REPORT_METRICS:
        means = []
        for component in REPORT_COMPONENTS:
            values = [getattr(per_document[rid][label], component) for rid in scored_ids]
            means.append(float(np.mean(values)) if values else 0.0)
        cells[label] = RougeScore(*means)
    return SystemEvaluation(system, cells, per_document, missing)


def report_rows(report: EvaluationReport) -> list[tuple[str, list[float]]]:
    """The twelve metric rows, one column per system."""
    rows = []
    for label in REPORT_METRICS:
        for component in REPORT_COMPONENTS:
            values = [getattr(s.cells[label], component) for s in report.systems]
            rows.append((f"{component}({label})", values))
    return rows


def write_report(report: EvaluationReport, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    systems = [s.system for s in report.systems]

    lines = [",".join(["metric"] + systems)]
    for label, values in report_rows(report):
        lines.append(",".join([label] + [f"{v:.6f}" for v in values]))
    (out_dir / "report.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    name_width = max(len(label) for label, _ in report_rows(report))
    col_width = max(12, *(len(s) + 2 for s in systems))
    text = [f"split: {report.split}  aggregation: {report.aggregation}", ""]
    text.append(" " * name_width + "".join(s.rjust(col_width) for s in systems))
    for label, values in report_rows(report):
        text.append(label.ljust(name_width) + "".join(f"{v:.3f}".rjust(col_width) for v in values))
    text.append("")
    for s in report.systems:
        text.append(f"{s.system}: {len(s.per_document)} documents scored, "
                    f"{len(s.missing_references)} predictions without references excluded")
    (out_dir / "report.txt").write_text("\n".join(text) + "\n", encoding="utf-8")

    doc_lines = ["system,report_id,metric,precision,recall,f1"]
    for s in report.systems:
        for rid in sorted(s.per_document):
            for label in REPORT_METRICS:
                score = s.per_document[rid][label]
                doc_lines.append(
                    f"{s.system},{rid},{label},{score.precision:.6f},{score.recall:.6f},{score.f1:.6f}"
                )
    (out_dir / "report_documents.csv").write_text("\n".join(doc_lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- shared plumbing


class UsageError(Exception):
    """Command-line misuse; mapped to exit status 1.

    `usage` is the usage of the parser that refused the arguments, when a
    parser did; otherwise `cli` prints the usage of the command it runs.
    """

    def __init__(self, message: str, usage: str | None = None):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    commands: dict[str, "_Parser"]  # set by `build_parser` on the top-level parser

    def error(self, message):  # keep argparse from exiting with status 2
        raise UsageError(message, self.format_usage())


def _add_global_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=argparse.SUPPRESS, help="JSON config file")
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="override the seed")
    parser.add_argument("--data-root", dest="data_root", default=argparse.SUPPRESS,
                        help="corpus root directory")
    parser.add_argument("--out", default=argparse.SUPPRESS, help="output directory (default ./out)")


def _resolve_config(ns: argparse.Namespace) -> RunConfig:
    config = load_config(getattr(ns, "config")) if hasattr(ns, "config") else RunConfig()
    overrides = {}
    if hasattr(ns, "seed"):
        overrides["seed"] = ns.seed
    if hasattr(ns, "data_root"):
        overrides["data_root"] = ns.data_root
    return config.replace(**overrides) if overrides else config


def _require_data_root(config: RunConfig) -> Path:
    if not config.data_root:
        raise UsageError("--data-root (or data_root in the config) is required")
    return Path(config.data_root)


def _require_creatable_dir(flag: str, path: Path) -> None:
    """Refuse `path` when it, or the nearest of its ancestors that exists, is not a directory."""
    for existing in (path, *path.parents):
        if existing.exists():
            if not existing.is_dir():
                where = path if existing == path else f"{path} is below {existing}, which"
                raise UsageError(f"{flag} {where} exists and is not a directory")
            return


def _load_corpus(config: RunConfig) -> LoadedDataset:
    return load_dataset(_require_data_root(config), config.max_sentence_tokens)


def _training_vocab(dataset: LoadedDataset, config: RunConfig) -> Vocab:
    """Vocabulary over training reports and their gold summaries."""
    reports = dataset.training
    sentences = [s for report in reports for s in report.sentences]
    sentences += [s for report in reports for summary in report.summaries for s in summary]
    return build_vocab(sentences, config.vocab_size)


def _load_or_build_alignments(dataset: LoadedDataset, split: str, out_dir: Path) -> list[OracleAlignment]:
    """The split's alignment file from `oracle` if there is one, else a fresh oracle.

    A second record for one report, or a loaded record whose indices fall
    outside its report or summaries, is a `DataError`; one for a report not
    in the split is left to the stage, which warns and skips it.
    """
    reports = dataset.split(split)
    path = out_dir / f"alignments_{split}.jsonl"
    if not path.exists():
        return build_oracle(reports)
    alignments = load_alignments(path)
    by_id = {report.id: report for report in reports}
    seen: set[str] = set()
    for al in alignments:
        if al.report_id in seen:
            raise DataError(f"{path}: more than one alignment of report {al.report_id}")
        seen.add(al.report_id)
        report = by_id.get(al.report_id)
        problem = _alignment_range_problem(al, report) if report is not None else None
        if problem:
            raise DataError(f"{path}: alignment of report {al.report_id} does not fit it: {problem}")
    return alignments


def _alignment_range_problem(al: OracleAlignment, report: Document) -> str | None:
    """The first index of `al` outside its report or summaries, or the first
    repeated extraction target, described; or None."""
    n_summaries = len(report.summaries)
    if not 0 <= al.chosen_summary < n_summaries:
        return f"chosen_summary {al.chosen_summary} of {n_summaries} summaries"
    n_gold = len(report.summaries[al.chosen_summary])
    n_report = len(report.sentences)
    for t, j, _ in al.per_sentence:
        if not 0 <= t < n_gold:
            return f"gold sentence {t} of {n_gold}"
        if not 0 <= j < n_report:
            return f"report sentence {j} of {n_report}"
    for k, i in enumerate(al.extract_targets):
        if not 0 <= i < n_report:
            return f"target {i} of {n_report} report sentences"
        if i in al.extract_targets[:k]:
            return f"target {i} repeated"
    return None


def _load_models(
    extractor_path: Path, abstractor_path: Path, config: RunConfig, enforce_config: bool
) -> tuple[ExtractorModel, AbstractorModel, Vocab]:
    for path in (extractor_path, abstractor_path):
        if not path.exists():
            raise DataError(f"missing pretrained checkpoint: {path}")
    try:
        extractor, extractor_vocab = ExtractorModel.load(extractor_path)
        abstractor, abstractor_vocab = AbstractorModel.load(abstractor_path)
    except (OSError, ValueError) as exc:
        raise DataError(f"unusable checkpoint: {exc}") from exc
    if extractor_vocab is None or abstractor_vocab is None:
        raise DataError("pipeline checkpoints must embed their vocabulary")
    for path, model, vocab in (
        (extractor_path, extractor, extractor_vocab),
        (abstractor_path, abstractor, abstractor_vocab),
    ):
        if len(vocab) != model.vocab_size:
            raise DataError(
                f"checkpoint {path} embeds {len(vocab)} vocabulary tokens "
                f"but its model has vocab_size {model.vocab_size}"
            )
    if extractor_vocab != abstractor_vocab:
        raise DataError("extractor and abstractor checkpoints disagree on the vocabulary")
    if enforce_config:
        for name, model in (("extractor", extractor), ("abstractor", abstractor)):
            arch = model.arch()
            if (arch["embedding_dim"], arch["hidden_dim"]) != (config.embedding_dim, config.hidden_dim):
                raise DataError(
                    f"{name} checkpoint {arch} does not match the active config "
                    f"(embedding_dim={config.embedding_dim}, hidden_dim={config.hidden_dim})"
                )
    return extractor, abstractor, Vocab.from_list(extractor_vocab)


def _rng(config: RunConfig, stream: int) -> np.random.Generator:
    return np.random.default_rng([config.seed, stream])


# ---------------------------------------------------------------- subcommands


def cmd_ingest(ns, config: RunConfig, out_dir: Path) -> int:
    dataset = _load_corpus(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "data_root": str(_require_data_root(config)),
        "max_sentence_tokens": config.max_sentence_tokens,
        "splits": dataset.manifest(),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    for split, stats in dataset.manifest().items():
        print(f"{split}: {stats['reports']} reports, {stats['summaries']} summaries")
    return 0


def cmd_oracle(ns, config: RunConfig, out_dir: Path) -> int:
    dataset = _load_corpus(config)
    # Parse every split first, so a bad file is refused before any alignment file is written.
    reports = {split: dataset.split(split) for split in SPLITS}
    for split in SPLITS:
        alignments = build_oracle(reports[split])
        save_alignments(alignments, out_dir / f"alignments_{split}.jsonl")
        print(f"{split}: {len(alignments)} alignments")
    return 0


@dataclass(frozen=True)
class TrainStage:
    """What tells the teacher-forced training stages apart."""

    name: str  # printed, and the stem of the stage's checkpoint names
    model: type
    prepare: Callable  # (reports, alignments, vocab) -> training items
    loss: Callable  # model -> `fit`'s loss over one item
    epochs: str  # the RunConfig field holding the epoch count
    streams: tuple[int, int]  # RNG streams of the initial weights and of the batch order


TRAIN_STAGES = {
    "train-extractor": TrainStage(
        "extractor", ExtractorModel, prepare_extractor_examples, example_loss, "extractor_epochs", (0, 1)
    ),
    "train-abstractor": TrainStage(
        "abstractor", AbstractorModel, prepare_abstractor_pairs, lambda model: model.teacher_forced_loss,
        "abstractor_epochs", (2, 3),
    ),
}


def cmd_train(ns, config: RunConfig, out_dir: Path) -> int:
    stage = TRAIN_STAGES[ns.command]
    dataset = _load_corpus(config)
    vocab = _training_vocab(dataset, config)
    alignments = _load_or_build_alignments(dataset, "training", out_dir)
    items = stage.prepare(dataset.training, alignments, vocab)
    if not items:
        raise DataError(f"no {stage.name} training examples: no training report has a usable alignment")
    validation = stage.prepare(
        dataset.validation, _load_or_build_alignments(dataset, "validation", out_dir), vocab
    )
    model = stage.model(vocab.size, config.embedding_dim, config.hidden_dim, _rng(config, stage.streams[0]))
    out_dir.mkdir(parents=True, exist_ok=True)
    epochs = getattr(config, stage.epochs)
    train_log = fit(
        model.params,
        stage.loss(model),
        items,
        config,
        epochs=epochs,
        rng=_rng(config, stage.streams[1]),
        validation=validation,
        periodic_save=lambda: model.save(out_dir / f"{stage.name}_periodic.ckpt", vocab.to_list()),
    )
    model.save(out_dir / f"{stage.name}.ckpt", vocab.to_list())
    print(f"{stage.name}: {epochs} epochs, final loss {train_log.epoch_losses[-1]:.4f}")
    return 0


def cmd_train_rl(ns, config: RunConfig, out_dir: Path) -> int:
    dataset = _load_corpus(config)
    extractor, abstractor, vocab = _load_models(
        out_dir / "extractor.ckpt", out_dir / "abstractor.ckpt", config, hasattr(ns, "config")
    )
    alignments = _load_or_build_alignments(dataset, "training", out_dir)
    critic = Critic(extractor.hidden_dim, _rng(config, 4))
    rows = train_rl(
        dataset.training,
        alignments,
        extractor,
        abstractor,
        critic,
        vocab,
        config,
        rng=_rng(config, 5),
        csv_path=out_dir / "rl_rewards.csv",
    )
    extractor.save(out_dir / "extractor_rl.ckpt", vocab.to_list())
    critic.save(out_dir / "critic.ckpt")
    final = rows[-1].mean_reward if rows else float("nan")
    print(f"rl: {len(rows)} episodes, final mean greedy reward {final:.4f}")
    return 0


def _write_summaries(reports, summarize: Callable, target_dir: Path, label: str) -> int:
    """`summarize(report)` -> (extraction, text) written as `<id>.txt` per
    report and `extractions.jsonl` under `target_dir`, in report-id order."""
    target_dir.mkdir(parents=True, exist_ok=True)
    extractions = []
    for report in sorted(reports, key=lambda r: r.id):
        extraction, text = summarize(report)
        (target_dir / f"{report.id}.txt").write_text(text + "\n", encoding="utf-8")
        extractions.append(extraction)
    save_extractions(extractions, target_dir / "extractions.jsonl")
    print(f"{label}: {len(extractions)} reports -> {target_dir}")
    return 0


def cmd_summarize(ns, config: RunConfig, out_dir: Path) -> int:
    reports = _load_corpus(config).split(ns.split)
    extractor_path = Path(getattr(ns, "extractor", out_dir / "extractor.ckpt"))
    abstractor_path = Path(getattr(ns, "abstractor", out_dir / "abstractor.ckpt"))
    extractor, abstractor, vocab = _load_models(
        extractor_path, abstractor_path, config, hasattr(ns, "config")
    )
    return _write_summaries(
        reports, lambda doc: summarize_document(doc, extractor, abstractor, vocab, config),
        out_dir / "summaries", "summarize",
    )


# `--method` name -> the baseline's sentence indices for (document, config).
BASELINES: dict[str, Callable[[Document, RunConfig], list[int]]] = {
    "textrank": textrank,
    "lexrank": lexrank,
    "lead": lead_n,
}


def cmd_baseline(ns, config: RunConfig, out_dir: Path) -> int:
    def summarize(doc: Document) -> tuple[Extraction, str]:
        indices = BASELINES[ns.method](doc, config)
        sentences = [doc.sentences[i] for i in indices]
        return Extraction(doc.id, indices, []), detokenize(truncate_sentences(sentences, config.word_limit))

    reports = _load_corpus(config).split(ns.split)
    return _write_summaries(reports, summarize, out_dir / f"baseline_{ns.method}", f"baseline {ns.method}")


def cmd_evaluate(ns, config: RunConfig, out_dir: Path) -> int:
    pred_dirs = [Path(p) for p in getattr(ns, "pred", [out_dir / "summaries"])]
    # A system is named after its resolved directory (`--pred .` after the
    # working directory), and the name heads the system's report column.
    names = [pred_dir.resolve().name for pred_dir in pred_dirs]
    named: dict[str, Path] = {}
    for pred_dir, name in zip(pred_dirs, names):
        if not name:
            raise UsageError(f"--pred {pred_dir} has no directory name to head its report column")
        if name in named:
            raise UsageError(f"--pred {named[name]} and {pred_dir} share the name {name!r}")
        named[name] = pred_dir
    dataset = _load_corpus(config)
    references = {report.id: report.summaries for report in dataset.split(ns.split)}
    systems = []
    for pred_dir, name in zip(pred_dirs, names):
        if not pred_dir.is_dir():
            raise DataError(f"prediction directory not found: {pred_dir}")
        predictions = {path.stem: read_text(path) for path in sorted(pred_dir.glob("*.txt"))}
        absent = [rid for rid in sorted(references) if references[rid] and rid not in predictions]
        if absent:
            raise DataError(f"--pred {pred_dir} has no summary for {len(absent)} {ns.split} report(s) "
                            f"with gold summaries, the first {absent[0]}.txt")
        systems.append(evaluate_system(predictions, references, config, system=name))
    report = EvaluationReport(ns.split, config.reference_aggregation, systems)
    write_report(report, out_dir)
    print((out_dir / "report.txt").read_text(encoding="utf-8"), end="")
    return 0


def cmd_synthgen(ns, config: RunConfig, out_dir: Path) -> int:
    root = _require_data_root(config)
    _require_creatable_dir("--data-root", root)
    try:
        spec = SynthSpec.from_json(getattr(ns, "spec")) if hasattr(ns, "spec") else SynthSpec()
        if hasattr(ns, "seed"):
            spec = dataclasses.replace(spec, seed=ns.seed)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad synthesis spec: {exc}") from exc
    truth = generate(spec, root)
    for split in SPLITS:
        print(f"{split}: {len(truth[split])} reports -> {root}")
    return 0


class Command(NamedTuple):
    help: str
    handler: Callable[..., int]  # (namespace, config, out_dir) -> exit status
    arguments: tuple = ()  # (flags, `add_argument` keywords) pairs, after the global flags


COMMANDS = {
    "ingest": Command("load the corpus and write manifest.json", cmd_ingest),
    "oracle": Command("write proxy alignment files per split", cmd_oracle),
    "train-extractor": Command("teacher-forced pointer training", cmd_train),
    "train-abstractor": Command("teacher-forced paraphraser training", cmd_train),
    "train-rl": Command("actor-critic fine-tuning of the pointer", cmd_train_rl),
    "summarize": Command("write one summary file per report", cmd_summarize, (
        (("--split",), dict(default="testing", choices=SPLITS)),
        (("--extractor",), dict(default=argparse.SUPPRESS, help="extractor checkpoint path")),
        (("--abstractor",), dict(default=argparse.SUPPRESS, help="abstractor checkpoint path")),
    )),
    "baseline": Command("run an unsupervised baseline over a split", cmd_baseline, (
        (("--method",), dict(required=True, choices=list(BASELINES))),
        (("--split",), dict(default="testing", choices=SPLITS)),
    )),
    "evaluate": Command("score prediction directories against references", cmd_evaluate, (
        (("--pred",), dict(action="extend", nargs="+", default=argparse.SUPPRESS,
                           help="prediction directories (default: <out>/summaries)")),
        (("--split",), dict(default="testing", choices=SPLITS)),
    )),
    "synthgen": Command("generate the deterministic synthetic corpus", cmd_synthgen, (
        (("--spec",), dict(default=argparse.SUPPRESS, help="synthesis spec JSON")),
    )),
}


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process: every `cli` call parses with
    it, so callers must not modify it. Its `commands` maps each command name
    to that command's parser."""
    parser = _Parser(prog="narrsum", description=__doc__.splitlines()[0])
    _add_global_flags(parser)
    sub = parser.add_subparsers(dest="command")
    for name, spec in COMMANDS.items():
        command = sub.add_parser(name, help=spec.help)
        _add_global_flags(command)
        for flags, options in spec.arguments:
            command.add_argument(*flags, **options)
    parser.commands = sub.choices
    return parser


def _print_usage_error(usage: str, message: object) -> int:
    print(usage, file=sys.stderr, end="")
    print(f"error: {message}", file=sys.stderr)
    return 1


def cli(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand; 0 = success, 1 = usage error, 2 = data error."""
    parser = build_parser()
    try:
        ns, extras = parser.parse_known_args(argv)
        if extras:  # refused by the parser of the command they were given to
            refuser = parser.commands[ns.command] if ns.command else parser
            refuser.error(f"unrecognized arguments: {' '.join(extras)}")
    except UsageError as exc:
        return _print_usage_error(exc.usage, exc)
    except SystemExit as exc:  # --help paths
        return int(exc.code or 0)
    if not ns.command:
        return _print_usage_error(parser.format_usage(), "a subcommand is required")
    try:
        out_dir = Path(getattr(ns, "out", "out"))
        if ns.command != "synthgen":
            _require_creatable_dir("--out", out_dir)
        config = _resolve_config(ns)
        return COMMANDS[ns.command].handler(ns, config, out_dir)
    except UsageError as exc:
        return _print_usage_error(exc.usage or parser.commands[ns.command].format_usage(), exc)
    except (DataError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteGradError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(cli())


if __name__ == "__main__":
    main()
