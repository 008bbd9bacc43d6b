"""One benchmark run of one workload, in a process of its own.

Started by run.py, which pins BLAS to one thread first. Set-up writes the
workload's synthetic corpus through the CLI's `synthgen`; then the CLI stages
run one after the other on that corpus, in a closed loop: the next stage
starts when the previous one has returned, and a new set-up and pass over all
stages start while the measuring time allows. Outputs are checked after every
stage. With --trace 1, passes with the per-layer wrappers of spans.py
alternate with plain passes.

Only this process is measured: no whole-machine tracing, no cache dropping
and no kernel counters.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import gc
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from narrsum.corpus import SPLITS
from narrsum.harness import cli

from spans import Tracer, install
from workloads import MIN_SUMMARIES_F1, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = Path(__file__).resolve().parent / ".work"

# Times are process CPU seconds: the benchmark is single-threaded, and on a
# shared virtual machine wall time also counts time the host gives to other
# guests (on a 2-core virtual machine a fixed loop took 0.24 to 0.51 s of wall
# time while its CPU time stayed 0.23 to 0.26 s). Wall times are printed and
# saved too.
# `cpu_s` sums each stage's fastest pass: the host's load still slows the CPU
# in phases of seconds to minutes (a fixed loop's CPU time swung 0.07 to 0.14 s
# within a minute), and such phases only ever add time, so the fastest pass of
# a stage is the steadiest estimate of its cost.
END_TO_END = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Layers that run on every workload report time as well as calls; the
# neural layers do nothing on report_extractive, so they report counts only
# (their times are printed and kept in the result file).
TIMED_LAYERS = (
    "corpus.load_dataset", "rouge.lcs_length", "rouge.lcs_match_positions",
    "rouge.rouge_l_summary", "oracle.align_summary", "oracle.build_oracle",
    "baselines.textrank_graph", "baselines.lexrank_graph", "baselines.power_iteration",
    "harness.evaluate_system", "synthgen.generate",
)
COUNTED_LAYERS = (
    "autodiff.backward", "autodiff.lstm_cell", "autodiff.Adam.step",
    "autodiff.save_checkpoint", "autodiff.load_checkpoint",
    "extractor.ExtractorModel.encode", "extractor.ExtractorModel.decode",
    "extractor.ExtractorModel.teacher_forced_loss",
    "abstractor.AbstractorModel.encode", "abstractor.AbstractorModel.teacher_forced_loss",
    "abstractor.AbstractorModel.paraphrase",
    "rl.rollout.sample", "rl.rollout.greedy", "rl.A2CTrainer.update", "rl.compute_reward",
    "harness.summarize_document",
)
COUNTERS = {
    "autodiff.topo_order.nodes": "count",
    "autodiff.save_checkpoint.bytes": "bytes",
    "abstractor.output_tokens": "count",
    "rl.nonstop_steps": "count",
}
SHARED_STAGES = ("oracle", "baseline-textrank", "baseline-lexrank", "baseline-lead", "evaluate")


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in TIMED_LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.s": "s", f"{layer}.self_s": "s"})
    units.update({f"{layer}.calls": "count" for layer in COUNTED_LAYERS})
    units.update(COUNTERS)
    units["rl.paraphrase_cache_hit_ratio"] = "ratio"
    units.update({f"harness.{stage}.cpu_s": "s" for stage in SHARED_STAGES})
    units.update({"harness.stages.cpu_s": "s", "harness.stages.cpu_per_wall": "ratio",
                  "trace.wall_s": "s", "trace.overhead_s": "s"})
    return units


PER_LAYER = per_layer_units()


# ---------------------------------------------------------------- bookkeeping


class Book:
    """Operations attempted (stage invocations and checks) and those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


@dataclass
class Case:
    """One generated corpus and the run's config and output paths."""

    root: Path
    config_path: Path
    data_root: Path
    out_dir: Path


@dataclass
class Pass:
    """One pass over all stages."""

    wall: dict[str, float] = field(default_factory=dict)
    cpu: dict[str, float] = field(default_factory=dict)
    facts: dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.wall.values())

    @property
    def cpu_s(self) -> float:
        return sum(self.cpu.values())


def best_cpu_s(passes: list[Pass]) -> float:
    """Sum over stages of the stage's least CPU time in any pass."""
    stages = {stage for p in passes for stage in p.cpu}
    return sum(min(p.cpu[stage] for p in passes if stage in p.cpu) for stage in stages)


def _quiet_cli(argv: list[str]) -> tuple[int | str, str]:
    """Run one CLI command with its stdout captured; exceptions become failures."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli(argv)
    except Exception:  # a stage that crashes is a failed operation, not a crashed benchmark
        traceback.print_exc()
        code = "exception"
    return code, buf.getvalue()


def set_up(wl: Workload, seed: int, root: Path, book: Book,
           tracer: Tracer | None = None) -> tuple[Case, float, float]:
    """Write the spec, the config and the corpus; returns the case, wall and CPU seconds."""
    shutil.rmtree(root, ignore_errors=True)
    gc.collect()  # outside the timed section, as in run_pass
    start, cpu_start = time.perf_counter(), time.process_time()
    root.mkdir(parents=True)
    case = Case(root, root / "config.json", root / "data", root / "out")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps({**wl.spec, "seed": seed}, indent=2) + "\n")
    case.config_path.write_text(
        json.dumps({**wl.config, "seed": seed, "data_root": str(case.data_root)}, indent=2) + "\n")
    argv = ["synthgen", "--spec", str(spec_path), "--config", str(case.config_path), "--out", str(case.out_dir)]
    with tracer.span("setup", stage=True) if tracer else contextlib.nullcontext():
        code, _ = _quiet_cli(argv)
    book.check(code == 0, f"set-up: synthgen exited {code}")
    return case, time.perf_counter() - start, time.process_time() - cpu_start


# ---------------------------------------------------------------- checks


def _final_value(pattern: str, stdout: str) -> float:
    match = re.search(pattern + r" (\S+)", stdout)
    return float(match.group(1)) if match else math.nan


def _rouge_l_f1(out_dir: Path) -> dict[str, float]:
    """ROUGE-L F1 per evaluated system, from the evaluate stage's report."""
    with (out_dir / "report.csv").open(encoding="utf-8", newline="") as fh:
        rows = {row[0]: row[1:] for row in csv.reader(fh)}
    return dict(zip(rows["metric"], map(float, rows["f1(rouge-l)"])))


def check_alignments(case: Case, book: Book) -> None:
    """The oracle must recover the alignments synthgen planted, byte for byte."""
    for split in SPLITS:
        produced = case.out_dir / f"alignments_{split}.jsonl"
        truth = case.data_root / f"truth_alignments_{split}.jsonl"
        book.check(produced.is_file() and produced.read_bytes() == truth.read_bytes(),
                   f"oracle: {produced.name} differs from {truth.name}")


def check_stage(wl: Workload, stage: str, stdout: str, case: Case, book: Book, done: Pass) -> None:
    if stage == "oracle":
        check_alignments(case, book)
    elif stage in ("train-extractor", "train-abstractor"):
        loss = _final_value("final loss", stdout)
        done.facts[f"{stage}.final_loss"] = loss
        book.check(math.isfinite(loss), f"{stage}: final loss {loss} is not finite")
    elif stage == "train-rl":
        reward = _final_value("final mean greedy reward", stdout)
        done.facts["train-rl.final_greedy_reward"] = reward
        book.check(math.isfinite(reward), f"train-rl: final greedy reward {reward} is not finite")
    elif stage == "evaluate" and wl.neural:
        f1 = _rouge_l_f1(case.out_dir)
        summaries = f1.pop("summaries")
        done.facts["summaries.rouge_l_f1"] = summaries
        book.check(summaries >= MIN_SUMMARIES_F1,
                   f"evaluate: summaries ROUGE-L F1 {summaries} is below {MIN_SUMMARIES_F1}")
        best = max(f1.values())
        book.check(summaries > best, f"evaluate: summaries ROUGE-L F1 {summaries} "
                                     f"does not beat the best baseline's {best}")


# ---------------------------------------------------------------- one pass


def run_pass(wl: Workload, case: Case, book: Book, tracer: Tracer | None = None,
             after_stage=None) -> Pass:
    """Every stage once, on a fresh output directory; stops at the first failed stage.

    `after_stage(stage, case)` runs between a stage and its checks (the
    self-test uses it to corrupt an output).
    """
    shutil.rmtree(case.out_dir, ignore_errors=True)
    flags = ["--config", str(case.config_path), "--out", str(case.out_dir)]
    done = Pass()
    for stage, argv in wl.stages():
        argv = [a.format(out=case.out_dir) for a in argv] + flags
        # Every autodiff Value sits in a reference cycle (its backward closure
        # holds it), so only the cyclic collector frees a stage's graphs; left
        # alone, that cost falls into whichever section runs next. Through the
        # CLI each stage is a process of its own and never pays it.
        gc.collect()
        start, cpu_start = time.perf_counter(), time.process_time()
        with tracer.span(f"harness.{stage}", stage=True) if tracer else contextlib.nullcontext():
            code, stdout = _quiet_cli(argv)
        done.wall[stage] = time.perf_counter() - start
        done.cpu[stage] = time.process_time() - cpu_start
        if not book.check(code == 0, f"{stage} exited {code}"):
            break
        if after_stage is not None:
            after_stage(stage, case)
        check_stage(wl, stage, stdout, case, book, done)
    return done


def closed_loop(step, seconds: float, minimum: int) -> list:
    """Call step(i) until `minimum` calls are done and another would overrun `seconds`."""
    results = []
    start = time.perf_counter()
    last = 0.0
    while len(results) < minimum or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        results.append(step(len(results)))
        last = time.perf_counter() - began
    return results


# ---------------------------------------------------------------- metrics


def stage_throughputs(wl: Workload, passes: list[Pass]) -> dict[str, float]:
    """Median work per second of stage wall time, per stage metric."""
    out = {}
    for metric, (stage, units) in wl.work().items():
        rates = []
        for p in passes:
            seconds = (sum(s for name, s in p.wall.items() if name.startswith("baseline-"))
                       if stage == "baseline" else p.wall.get(stage, 0.0))
            if seconds > 0:
                rates.append(units / seconds)
        if rates:
            out[metric] = statistics.median(rates)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure(wl: Workload, seed: int, seconds: float, root: Path, book: Book) -> dict:
    setups: list[tuple[float, float]] = []

    def step(i: int) -> Pass:
        case, wall, cpu = set_up(wl, seed, root, book)
        setups.append((wall, cpu))
        return run_pass(wl, case, book)

    passes = closed_loop(step, seconds, minimum=1)
    return {
        "metrics": {
            "setup_s": statistics.median(cpu for _, cpu in setups),
            "cpu_s": best_cpu_s(passes),
            "peak_rss_mb": peak_rss_mb(),
        },
        "wall_s": statistics.median(p.wall_s for p in passes),
        "stages": stage_throughputs(wl, passes),
        "passes": [vars(p) for p in passes],
        "setup_runs_wall_cpu_s": setups,
    }


def _counts(tracer: Tracer) -> dict[str, int]:
    counts = {name: t["calls"] for name, t in tracer.layers().items()}
    counts.update(tracer.counts)
    return counts


def measure_traced(wl: Workload, seed: int, seconds: float, root: Path, book: Book) -> dict:
    """Plain and traced passes, each after its own set-up, in the order plain, traced, traced."""

    def step(i: int):
        tracer = Tracer() if i % 3 else None
        uninstall = install(tracer) if tracer else None
        try:
            case, _, _ = set_up(wl, seed, root, book, tracer)
            done = run_pass(wl, case, book, tracer)
        finally:
            if uninstall:
                uninstall()
        return tracer, done

    reps = closed_loop(step, seconds, minimum=3)
    traced = [(t, p) for t, p in reps if t is not None]
    plain = [p for t, p in reps if t is None]
    first = _counts(traced[0][0])
    for tracer, _ in traced[1:]:
        again = _counts(tracer)
        differ = sorted(k for k in set(first) | set(again) if first.get(k) != again.get(k))
        book.check(not differ, f"trace: work counts differ between traced passes: {differ}")

    layer_runs = [t.layers() for t, _ in traced]
    layers = {}
    for name in sorted(set().union(*layer_runs)):
        runs = [lr.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0}) for lr in layer_runs]
        layers[name] = {"calls": runs[0]["calls"],
                        "s": statistics.median(r["s"] for r in runs),
                        "self_s": statistics.median(r["self_s"] for r in runs)}

    metrics = {}
    for name, unit in PER_LAYER.items():
        layer, _, stat = name.rpartition(".")
        if layer in layers and stat in ("calls", "s", "self_s"):
            metrics[name] = layers[layer][stat]
        elif name in COUNTERS:
            metrics[name] = first.get(name, 0)
    steps = first.get("rl.nonstop_steps", 0)
    metrics["rl.paraphrase_cache_hit_ratio"] = (
        1.0 - first.get("rl.paraphrase_calls", 0) / steps if steps else 0.0)
    traced_passes = [p for _, p in traced]
    for stage in SHARED_STAGES:
        metrics[f"harness.{stage}.cpu_s"] = statistics.median(p.cpu.get(stage, 0.0) for p in traced_passes)
    cpu = statistics.median(p.cpu_s for p in traced_passes)
    wall = statistics.median(p.wall_s for p in traced_passes)
    metrics.update({
        "harness.stages.cpu_s": cpu,
        "harness.stages.cpu_per_wall": cpu / wall,
        "trace.wall_s": wall,
        "trace.overhead_s": wall - statistics.median(p.wall_s for p in plain),
    })
    for name in PER_LAYER:
        metrics.setdefault(name, 0)
    return {
        "metrics": metrics,
        "stages": stage_throughputs(wl, plain),
        "wall_s": statistics.median(p.wall_s for p in plain),
        "layers": layers,
        "stage_cpu_s": {stage: statistics.median(p.cpu.get(stage, 0.0) for p in traced_passes)
                        for stage, _ in wl.stages()},
        "paraphrase_cache_base": {"nonstop_steps": steps,
                                  "paraphrase_calls": first.get("rl.paraphrase_calls", 0)},
        "passes": [vars(p) for p in plain + traced_passes],
        "spans": [t.nodes() for t, _ in traced],
    }


# ---------------------------------------------------------------- provenance


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def provenance() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "scope": "only this benchmark's own processes are measured: no whole-machine "
                 "tracing, no cache dropping, no kernel counters",
    }


# ---------------------------------------------------------------- main


def report(wl: Workload, seed: int, trace: bool, measured: dict, book: Book, prov: dict) -> dict:
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not book.failures,
        "attempted": book.attempted,
        "failed": len(book.failures),
        "metrics": {name: {"value": measured["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    print(f"workload {wl.name} seed {seed} trace {int(trace)}: "
          f"{len(measured['passes'])} passes, closed loop, 1 client")
    for p in measured["passes"]:
        stages = "  ".join(f"{k} {v:.3f}s" for k, v in p["wall"].items())
        facts = "  ".join(f"{k} {v:.4g}" for k, v in p["facts"].items())
        print(f"  pass: {stages}" + (f"\n    facts: {facts}" if facts else ""))
    for metric, value in measured["stages"].items():
        print(f"{metric} {value:.6g} 1/s")
    print(f"wall_s {measured['wall_s']:.6g} s")
    print(f"failed_ratio {len(book.failures) / book.attempted:.6g} ratio "
          f"({len(book.failures)} of {book.attempted} operations)")
    if trace:
        print(f"{'layer':45s} {'calls':>10s} {'s':>10s} {'self_s':>10s}")
        for name, t in measured["layers"].items():
            print(f"{name:45s} {t['calls']:10d} {t['s']:10.4f} {t['self_s']:10.4f}")
        for stage, cpu in measured["stage_cpu_s"].items():
            print(f"harness.{stage}.cpu_s {cpu:.4f} s")
        base = measured["paraphrase_cache_base"]
        print(f"rl.paraphrase_cache_hit_ratio = 1 - {base['paraphrase_calls']} paraphrase calls"
              f" / {base['nonstop_steps']} non-stop rollout steps in train-rl")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    book = Book()
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    root = WORK_DIR / f"{tag}-{os.getpid()}"
    try:
        run = measure_traced if args.trace else measure
        measured = run(wl, args.seed, args.seconds, root, book)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    prov = provenance()
    result = report(wl, args.seed, bool(args.trace), measured, book, prov)
    results_dir = WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "provenance": prov, "failures": book.failures, **measured, "result": result}
    (results_dir / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
