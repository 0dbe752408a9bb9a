"""The benchmark's generated inputs stay valid.

For each seed the benchmark runs, every file that ``perfbench/workloads.py``
generates goes through the CLI in process: each [oracle] file through
``oscbath oracle`` and each scenario config through ``oscbath validate``.  The
benchmark's own gate, ``perfbench/check.py``, must report nothing on either.
Both perfbench modules are loaded by file path and only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from oscbath.cli import cli_main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = range(11)


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # a dataclass looks its module up in sys.modules
    return module


workloads, check = _load("workloads"), _load("check")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generated_inputs_pass_the_benchmark_gate(name, tmp_path, capsys):
    problems = []
    for seed in SEEDS:
        workload = workloads.make_workload(name, seed)
        oracles = {op.config for op in workload.ops if op.kind == "oracle"}
        for file, text in workload.files.items():
            path = tmp_path / f"seed{seed}_{file}"
            path.write_text(text, encoding="utf-8")
            kind = "oracle" if file in oracles else "validate"
            code = cli_main([kind, str(path)])
            gate = check.check_oracle if kind == "oracle" else check.check_validate
            problems += [f"seed {seed} {file}: {p}"
                         for p in gate(code, capsys.readouterr().out)]
    assert problems == []
