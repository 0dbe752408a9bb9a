"""The benchmark's generated inputs stay valid, and its runs keep their reference rows.

For each seed the benchmark runs, every file that ``perfbench/workloads.py``
generates goes through the CLI in process: each [oracle] file through
``oscbath oracle`` and each scenario config through ``oscbath validate``.  The
benchmark's own gate, ``perfbench/check.py``, must report nothing on either.
Each ``run`` operation goes through ``oscbath run`` in process too, and the gate
compares its CSVs with the rows ``perfbench/reference.json`` stores, to 1e-10:
it may report only the rows known to be stale.  Both perfbench modules are
loaded by file path and only read.
"""

import importlib.util
import sys
import warnings
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


# the workloads with run operations, each checked on every seed but the factorization's,
# which takes about 0.6 s a seed and is checked on four
RUN_WORKLOADS = ("fullstate_kernels", "large_bath", "trajectories")
OP_SEEDS = {"factorization.cfg": range(4)}
# large_bath seed -> (bath size, value written, value stored) of the one row the gate
# reports: each is a recurrence_map D_B at t = 0, where the exact value is 0 and both
# sides hold 0 or rounding noise.  Re-recording reference.json empties this table.
STALE_ROWS = {1: ("1600", "0.0", "2.9802322387695312e-08"),
              2: ("400", "2.1073424255447017e-08", "2.9802322387695312e-08"),
              3: ("1600", "0.0", "2.9802322387695312e-08"),
              4: ("400", "0.0", "2.9802322387695312e-08"),
              6: ("400", "0.0", "2.1073424255447017e-08"),
              7: ("800", "0.0", "2.9802322387695312e-08"),
              8: ("1600", "0.0", "2.9802322387695312e-08"),
              9: ("400", "0.0", "2.1073424255447017e-08"),
              10: ("400", "2.1073424255447017e-08", "0.0")}


def stale_row(modes: str, written: str, stored: str) -> str:
    return (f"recurrence_map: row ('modes', '{modes}', 0.0, 'bures_db', {written}) deviates "
            f"from reference ('modes', '{modes}', 0.0, 'bures_db', {stored})")


@pytest.mark.parametrize("name", RUN_WORKLOADS)
def test_runs_match_the_benchmark_reference_rows(name, tmp_path):
    reported = {}
    for seed in SEEDS:
        workload = workloads.make_workload(name, seed)
        reference = check.load_reference(name, seed)
        assert reference is not None
        for op in workload.ops:
            if op.kind != "run" or seed not in OP_SEEDS.get(op.config, SEEDS):
                continue
            path = tmp_path / f"seed{seed}_{op.config}"
            path.write_text(workload.files[op.config], encoding="utf-8")
            out = path.with_suffix("")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # the validity warnings
                code = cli_main(["run", str(path), "--out", str(out)])
            problems = check.check_run(code, out, op.rows, reference)
            if problems:
                reported[seed] = reported.get(seed, []) + problems
    stale = STALE_ROWS if name == "large_bath" else {}
    assert reported == {seed: [stale_row(*row)] for seed, row in stale.items()}
