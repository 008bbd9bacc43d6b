"""`scripts/layer_times.py` at toy shapes: every block runs in both trees and
gets a row with both medians."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("layer_times", ROOT / "scripts" / "layer_times.py")
layer_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layer_times)


def test_layer_times_prints_every_block_for_both_trees(capsys):
    argv = [str(ROOT), str(ROOT), "--size", "tiny", "--processes", "1", "--repeats", "2"]
    assert layer_times.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "tiny blocks, median CPU ms over 1 processes x 2 repeats per tree"
    assert lines[1].split() == ["block", "PARENT", "CHANGE", "CHANGE/PARENT"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert list(rows) == ["bilstm_batch", "attention_decoder", "pointer_decoder", "Adam.step", "load", "synthgen",
                          "frontend"]
    for name, (parent, change, _ratio) in rows.items():
        assert float(parent) >= 0.0 and float(change) >= 0.0, name


def test_layer_times_refuses_a_tree_without_sources(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        layer_times.main([str(ROOT), str(tmp_path), "--size", "tiny"])
    assert exc.value.code == 2
    assert "no narrsum sources under" in capsys.readouterr().err
