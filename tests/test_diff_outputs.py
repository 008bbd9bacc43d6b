"""`scripts/diff_outputs.py` on the `report_extractive` workload: equal trees
report nothing, an altered baseline is reported file by file, and an altered
help string case by case."""

import importlib.util
import shutil
from pathlib import Path

from narrsum.harness import COMMANDS

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("diff_outputs", ROOT / "scripts" / "diff_outputs.py")
diff_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_outputs)

# The budget check of `baselines.select_by_score`, and a fill that stops one token short.
BUDGET_CHECK = "if used + lengths[idx] > word_limit:"
SHORT_FILL = "if used + lengths[idx] >= word_limit:"
INGEST_HELP = '"load the corpus and write manifest.json"'
# No arguments, `-h`, an unknown command, then `<cmd> -h`, `-h <cmd>` and `<cmd> --bogus` per command.
CLI_CASES = 3 + 3 * len(COMMANDS)


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
    harness = altered / "src" / "narrsum" / "harness.py"
    source = harness.read_text()
    assert source.count(INGEST_HELP) == 1
    harness.write_text(source.replace(INGEST_HELP, '"load the corpus"'))

    assert diff_outputs.main([str(first), str(second), "--workload", "report_extractive", "--seed", "1001"]) == 0
    same = capsys.readouterr().out.splitlines()
    assert same[:2] == ["== cli texts", f"cli texts: no difference over {CLI_CASES} cases"]
    assert same[2] == "== report_extractive seed 1001"
    assert same[3].startswith("report_extractive seed 1001: no difference over 6 stages and ")
    assert len(same) == 4

    argv = [str(first), str(altered), "--workload", "report_extractive", "--seed", "1001", "4101"]
    assert diff_outputs.main(argv) == 1
    out = capsys.readouterr().out
    cli_section, *seed_sections = out.split("== report_extractive seed ")
    # The command list of the top-level help names the ingest help string.
    differing = [line for line in cli_section.splitlines() if line.startswith("cli narrsum")]
    assert differing == ["cli narrsum -h: stdout differs"] + [f"cli narrsum -h {name}: stdout differs" for name in COMMANDS]
    assert "--- PARENT\n" in cli_section and "ingest              load the corpus and write manifest.json\n" in cli_section
    assert "--- CHANGE\n" in cli_section and "ingest              load the corpus\n" in cli_section
    assert cli_section.splitlines()[-1] == f"cli texts: {len(differing)} differences over {CLI_CASES} cases"
    for seed, section in zip((1001, 4101), seed_sections, strict=True):
        lines = section.splitlines()
        assert lines[0] == str(seed)
        changed = {line.split()[1] for line in lines if line.startswith("file ") and line.endswith(": bytes differ")}
        for method in ("textrank", "lexrank", "lead"):
            assert any(name.startswith(f"out/baseline_{method}/") for name in changed), (seed, method)
        assert not any(name.startswith("data/") for name in changed)
        assert lines[-1].startswith(f"report_extractive seed {seed}: ") and "differences over 6 stages" in lines[-1]
