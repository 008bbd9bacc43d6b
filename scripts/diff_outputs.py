#!/usr/bin/env python3
"""Check that two source trees write the same outputs on a benchmark workload.

    python3 scripts/diff_outputs.py PARENT CHANGE --workload demo --seed 1001 [1002 ...]

PARENT and CHANGE are source checkouts (each with `src/narrsum`). First,
under `== cli texts`, it runs a fixed set of argument lists through each
tree's `harness.cli`, in one process per tree and in sequence: no
arguments, `-h`, an unknown command, and `<cmd> -h`, `-h <cmd>` and
`<cmd> --bogus` for each command of that tree's `COMMANDS`. It lists every case
whose exit status, stdout or stderr differs, and every case only one side
has. Then, for each seed and each tree, in a run directory of its own,
this writes the workload's synthesis spec and config as `perfbench/run.py`
would, runs `synthgen` and then every CLI stage of the workload
(`perfbench/workloads.py`, imported from this checkout), each as a process
of its own with that tree's sources. Under a heading per seed it then
lists every file under the corpus root or `--out` whose bytes differ,
checkpoints included, every file only one side wrote, and every stage
whose exit status or stdout differs, with the run directory written as
`<run>`. A stage that fails on both sides is listed too. Each stage's
stderr is kept beside the corpus root as `<stage>.stderr`; pass
`--workdir` to keep the runs for reading, as
`<workdir>/seed<N>/{parent,change}`.

Exit status: 0 when no CLI text and nothing at any seed differs, 1 on any
difference, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, Workload  # noqa: E402

# As perfbench/run.py sets them, so that BLAS threading cannot change a bit.
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


# Run in a tree's process: print [case, exit status, stdout, stderr] per CLI case as JSON.
CLI_TEXTS = """
import contextlib, io, json, sys
from narrsum.harness import COMMANDS, cli
cases = [[], ["-h"], ["frobnicate"]]
for name in COMMANDS:
    cases += [[name, "-h"], ["-h", name], [name, "--bogus"]]
texts = []
for argv in cases:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli(argv)
    texts.append([" ".join(["narrsum", *argv]), code, stdout.getvalue(), stderr.getvalue()])
json.dump(texts, sys.stdout)
"""


def tree_env(tree: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    env.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    return env


def cli_texts(tree: Path, run_dir: Path) -> dict[str, tuple]:
    """Each CLI case's (exit status, stdout, stderr), by its command line; help wraps at 80 columns."""
    run_dir.mkdir(parents=True)
    done = subprocess.run([sys.executable, "-c", CLI_TEXTS], cwd=run_dir, env=dict(tree_env(tree), COLUMNS="80"),
                          stdout=subprocess.PIPE, text=True, check=True)
    return {case: (code, stdout, stderr) for case, code, stdout, stderr in json.loads(done.stdout)}


def stage_commands(wl: Workload, seed: int, run_dir: Path) -> list[tuple[str, list[str]]]:
    """Write the spec and config under `run_dir`; (stage, CLI argv) for synthgen and each stage."""
    data_root, out_dir = run_dir / "data", run_dir / "out"
    spec_path, config_path = run_dir / "spec.json", run_dir / "config.json"
    spec_path.write_text(json.dumps({**wl.spec, "seed": seed}, indent=2) + "\n")
    config_path.write_text(json.dumps({**wl.config, "seed": seed, "data_root": str(data_root)}, indent=2) + "\n")
    flags = ["--config", str(config_path), "--out", str(out_dir)]
    commands = [("synthgen", ["synthgen", "--spec", str(spec_path), *flags])]
    for stage, argv in wl.stages():
        commands.append((stage, [a.format(out=out_dir) for a in argv] + flags))
    return commands


def run_tree(tree: Path, wl: Workload, seed: int, run_dir: Path) -> tuple[dict[str, tuple], dict[str, str]]:
    """Each stage's (exit status, stdout) and each output file's digest, by run-relative path."""
    run_dir.mkdir(parents=True)
    env = tree_env(tree)
    stages = {}
    for stage, argv in stage_commands(wl, seed, run_dir):
        with (run_dir / f"{stage}.stderr").open("w") as stderr:
            done = subprocess.run([sys.executable, "-m", "narrsum.harness", *argv], cwd=run_dir, env=env,
                                  stdout=subprocess.PIPE, stderr=stderr, text=True)
        stages[stage] = (done.returncode, done.stdout.replace(str(run_dir), "<run>"))
    files = {}
    for top in ("data", "out"):
        for path in sorted((run_dir / top).rglob("*")):
            if path.is_file():
                files[str(path.relative_to(run_dir))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return stages, files


def text_differs(what: str, parent: str, change: str) -> str:
    return f"{what} differs\n--- PARENT\n{parent}--- CHANGE\n{change}---"


def cli_text_differences(parent: dict[str, tuple], change: dict[str, tuple]) -> list[str]:
    lines = []
    for case in [*parent, *(case for case in change if case not in parent)]:
        if case not in change:
            lines.append(f"cli {case}: only in PARENT")
        elif case not in parent:
            lines.append(f"cli {case}: only in CHANGE")
        else:
            (code, stdout, stderr), (other_code, other_stdout, other_stderr) = parent[case], change[case]
            if code != other_code:
                lines.append(f"cli {case}: exit {code} in PARENT, {other_code} in CHANGE")
            for stream, text, other_text in (("stdout", stdout, other_stdout), ("stderr", stderr, other_stderr)):
                if text != other_text:
                    lines.append(text_differs(f"cli {case}: {stream}", text, other_text))
    return lines


def differences(parent: tuple[dict, dict], change: tuple[dict, dict]) -> list[str]:
    (parent_stages, parent_files), (change_stages, change_files) = parent, change
    lines = []
    for stage, (code, stdout) in parent_stages.items():
        other_code, other_stdout = change_stages[stage]
        if code != other_code:
            lines.append(f"stage {stage}: exit {code} in PARENT, {other_code} in CHANGE")
        elif code != 0:  # equal outputs of a failed stage show nothing
            lines.append(f"stage {stage}: exit {code} on both sides")
        if stdout != other_stdout:
            lines.append(text_differs(f"stage {stage}: stdout", stdout, other_stdout))
    for name in sorted(parent_files.keys() | change_files.keys()):
        if name not in change_files:
            lines.append(f"file {name}: only in PARENT")
        elif name not in parent_files:
            lines.append(f"file {name}: only in CHANGE")
        elif parent_files[name] != change_files[name]:
            lines.append(f"file {name}: bytes differ")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    parser.add_argument("--workdir", type=Path, default=None,
                        help="keep the runs under this new directory (default: a temporary one, removed)")
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "narrsum" / "__init__.py").is_file():
            parser.error(f"no narrsum sources under {tree}/src")
    if args.workdir is not None and args.workdir.exists():
        parser.error(f"--workdir {args.workdir} already exists")
    if len(set(args.seed)) != len(args.seed):
        parser.error(f"--seed repeats a seed: {args.seed}")
    wl = WORKLOADS[args.workload]
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="diff_outputs_"))
    differing = 0
    try:
        texts = [cli_texts(tree.resolve(), workdir.resolve() / "cli" / side)
                 for side, tree in (("parent", args.parent), ("change", args.change))]
        lines = cli_text_differences(*texts)
        print("== cli texts")
        for line in lines:
            print(line)
        verdict = f"{len(lines)} differences" if lines else "no difference"
        print(f"cli texts: {verdict} over {len(texts[0])} cases")
        differing += bool(lines)
        for seed in args.seed:
            runs = [run_tree(tree.resolve(), wl, seed, workdir.resolve() / f"seed{seed}" / side)
                    for side, tree in (("parent", args.parent), ("change", args.change))]
            lines = differences(*runs)
            print(f"== {args.workload} seed {seed}")
            for line in lines:
                print(line)
            stages, files = runs[0]
            verdict = f"{len(lines)} differences" if lines else "no difference"
            print(f"{args.workload} seed {seed}: {verdict} over {len(stages)} stages and {len(files)} files")
            differing += bool(lines)
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
