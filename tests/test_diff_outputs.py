"""`scripts/diff_outputs.py` on the `report_extractive` workload: equal trees
report nothing, and an altered baseline is reported file by file."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("diff_outputs", ROOT / "scripts" / "diff_outputs.py")
diff_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_outputs)

# The budget check of `baselines.select_by_score`, and a fill that stops one token short.
BUDGET_CHECK = "if used + lengths[idx] > word_limit:"
SHORT_FILL = "if used + lengths[idx] >= word_limit:"


def _copy_tree(dest: Path) -> Path:
    shutil.copytree(ROOT / "src" / "narrsum", dest / "src" / "narrsum",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_diff_outputs_reports_only_real_differences(tmp_path, capsys):
    first, second, altered = (_copy_tree(tmp_path / name) for name in ("first", "second", "altered"))
    baselines = altered / "src" / "narrsum" / "baselines.py"
    source = baselines.read_text()
    assert source.count(BUDGET_CHECK) == 1
    baselines.write_text(source.replace(BUDGET_CHECK, SHORT_FILL))

    assert diff_outputs.main([str(first), str(second), "--workload", "report_extractive", "--seed", "1001"]) == 0
    same = capsys.readouterr().out.splitlines()
    assert same[0] == "== report_extractive seed 1001"
    assert same[1].startswith("report_extractive seed 1001: no difference over 6 stages and ")
    assert len(same) == 2

    argv = [str(first), str(altered), "--workload", "report_extractive", "--seed", "1001", "4101"]
    assert diff_outputs.main(argv) == 1
    out = capsys.readouterr().out
    assert out.startswith("== report_extractive seed 1001\n")
    for seed, section in zip((1001, 4101), out.split("== report_extractive seed ")[1:]):
        lines = section.splitlines()
        assert lines[0] == str(seed)
        changed = {line.split()[1] for line in lines if line.startswith("file ") and line.endswith(": bytes differ")}
        for method in ("textrank", "lexrank", "lead"):
            assert any(name.startswith(f"out/baseline_{method}/") for name in changed), (seed, method)
        assert not any(name.startswith("data/") for name in changed)
        assert lines[-1].startswith(f"report_extractive seed {seed}: ") and "differences over 6 stages" in lines[-1]
