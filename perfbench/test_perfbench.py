"""Self-test of the benchmark on seconds-long versions of its workloads.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(workload: Workload) -> Workload:
    """A seconds-long version of a workload with the same stages and checks."""
    spec = dict(workload.spec, n_reports=2, n_validation_reports=min(1, workload.reports("validation")),
                n_testing_reports=1, sentences_per_report=min(8, workload.spec["sentences_per_report"]),
                summary_sentences=2)
    config = dict(workload.config)
    if workload.neural:
        config.update(extractor_epochs=40, abstractor_epochs=40, rl_episodes=4)
    return replace(workload, spec=spec, config=config)


def test_benchmark_json_matches_the_code():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path, capsys):
    wl = tiny(WORKLOADS[name])
    book = bench.Book()
    run = bench.measure_traced if trace else bench.measure
    measured = run(wl, 3, 0.0, tmp_path / "run", book)
    result = bench.report(wl, 3, bool(trace), measured, book, {})
    assert book.failures == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    out = capsys.readouterr().out
    for metric in listed:
        assert f"\n{metric['name']} " in out
    for metric in wl.work():
        assert f"\n{metric} " in out
    if trace and not wl.neural:
        assert all(result["metrics"][f"{layer}.calls"]["value"] == 0
                   for layer in bench.COUNTED_LAYERS if layer.startswith("autodiff."))


def test_corrupted_oracle_output_fails_the_checks(tmp_path):
    wl = tiny(WORKLOADS["report_extractive"])
    book = bench.Book()
    case, _, _ = bench.set_up(wl, 3, tmp_path / "run", book)
    bench.run_pass(wl, case, book)
    assert book.failures == []

    def corrupt(stage, case):
        if stage == "oracle":
            path = case.out_dir / "alignments_testing.jsonl"
            path.write_text(path.read_text().replace('"chosen_summary":0', '"chosen_summary":1', 1))

    bench.run_pass(wl, case, book, after_stage=corrupt)
    assert book.failures == ["oracle: alignments_testing.jsonl differs from truth_alignments_testing.jsonl"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "demo", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
