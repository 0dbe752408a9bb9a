"""Output gate: decides whether one CLI operation of the benchmark succeeded.

An operation fails on a non-zero exit, a missing or malformed CSV, a row
count other than the config implies, a non-finite value, or a fidelity or
D_B outside [0, 1].  For the seeds stored in ``reference.json`` every CSV row
must also match the stored row to ``REFERENCE_TOL`` absolute.  An oracle
operation fails when the Fock referee and the moment flow disagree by more
than ``ORACLE_TOL`` or the evolved trace is off by more than ``TRACE_TOL``.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

CSV_HEADER = "sweep_param,sweep_value,t,quantity,value"
REFERENCE_TOL = 1e-10   # ROADMAP golden-output tolerance on fidelities and variances
ORACLE_TOL = 1e-5       # acceptance criterion 1 (flow vs Fock referee)
TRACE_TOL = 1e-10
REFERENCE_PATH = Path(__file__).with_name("reference.json")

_ORACLE_LINES = {
    "mean": re.compile(r"max \|mean_fock - mean_flow\| = (\S+)"),
    "cov": re.compile(r"max \|cov_fock\s+- cov_flow\|\s+= (\S+)"),
    "trace": re.compile(r"trace\(rho_t\) = (\S+)"),
}


def parse_rows(text: str) -> list:
    """CSV data rows as (sweep_param, sweep_value, t, quantity, value)."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing CSV header")
    rows = []
    for line in lines[1:]:
        param, label, t, quantity, value = line.split(",")
        rows.append((param, label, float(t), quantity, float(value)))
    return rows


def check_rows(rows: list, expected_count: int, reference: list | None) -> list:
    """Problems found in one experiment's rows (empty when they pass)."""
    problems = []
    if len(rows) != expected_count:
        problems.append(f"{len(rows)} rows, expected {expected_count}")
    for param, label, t, quantity, value in rows:
        if not (math.isfinite(t) and math.isfinite(value)):
            problems.append(f"non-finite row {param}={label} t={t} {quantity}={value}")
        elif ("fidelity" in quantity or quantity == "bures_db") and not 0.0 <= value <= 1.0:
            problems.append(f"{quantity}={value!r} outside [0, 1] at t={t}")
    if reference is not None:
        if len(reference) != len(rows):
            problems.append(f"{len(rows)} rows, reference has {len(reference)}")
        for row, ref in zip(rows, reference):
            if row[:2] + row[3:4] != tuple(ref[:2]) + tuple(ref[3:4]):
                problems.append(f"row {row[:2] + row[3:4]} where the reference has {ref}")
                break
            if abs(row[2] - ref[2]) > REFERENCE_TOL or abs(row[4] - ref[4]) > REFERENCE_TOL:
                problems.append(f"row {row} deviates from reference {ref}")
                break
    return problems


def check_run(exit_code: int, out_dir: Path, expected: dict, reference: dict | None) -> list:
    """Problems of one ``oscbath run``: ``expected`` maps experiment -> row count."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    problems = []
    for name, count in expected.items():
        try:
            rows = parse_rows((out_dir / f"{name}.csv").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems.append(f"{name}.csv unreadable: {exc}")
            continue
        ref = None if reference is None else reference.get(name, [])
        problems += [f"{name}: {p}" for p in check_rows(rows, count, ref)]
    return problems


def check_oracle(exit_code: int, stdout: str) -> list:
    """Problems of one ``oscbath oracle`` spot check."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    values = {}
    for key, pattern in _ORACLE_LINES.items():
        match = pattern.search(stdout)
        if match is None:
            return [f"oracle output lacks its {key} line"]
        values[key] = float(match.group(1))
    problems = [f"{k} = {v} is not finite" for k, v in values.items()
                if not math.isfinite(v)]
    for key in ("mean", "cov"):
        if values[key] > ORACLE_TOL:
            problems.append(f"{key} mismatch {values[key]:.3e} > {ORACLE_TOL:g}")
    if abs(values["trace"] - 1.0) > TRACE_TOL:
        problems.append(f"trace {values['trace']!r} off by more than {TRACE_TOL:g}")
    return problems


def check_validate(exit_code: int, stdout: str) -> list:
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    return [] if stdout.rstrip().endswith(": ok") else ["validate printed no ': ok'"]


def pack_rows(rows: list) -> dict:
    """Stored form of one experiment's rows: label runs plus t and value columns."""
    runs = []
    for param, label, _, quantity, _ in rows:
        if runs and runs[-1][:3] == [param, label, quantity]:
            runs[-1][3] += 1
        else:
            runs.append([param, label, quantity, 1])
    return {"runs": runs, "t": [r[2] for r in rows], "value": [r[4] for r in rows]}


def unpack_rows(packed: dict) -> list:
    labels = [(p, l, q) for p, l, q, n in packed["runs"] for _ in range(n)]
    return [(p, l, t, q, v) for (p, l, q), t, v in zip(labels, packed["t"], packed["value"])]


def load_reference(workload: str, seed: int) -> dict | None:
    """Stored rows per experiment for this workload and seed, or None if not shipped."""
    if not REFERENCE_PATH.exists():
        return None
    table = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    packed = table.get(workload, {}).get(str(seed))
    return None if packed is None else {k: unpack_rows(v) for k, v in packed.items()}


_SELF_CHECK_CSV = f"""# oscbath 0.1.0
{CSV_HEADER}
temperature,0.5,0,fidelity,1
temperature,0.5,2.5,fidelity,0.98765432101234
"""
_SELF_CHECK_ORACLE = """family=single t=4.0 cutoff=18
max |mean_fock - mean_flow| = 1.234e-12
max |cov_fock  - cov_flow|  = 5.678e-11
trace(rho_t) = 1.000000000000
"""


def self_check():
    """Show that the gate rejects bad outputs; raise AssertionError if it does not.

    A clean CSV and oracle report must pass; a value moved by 1e-9 from the
    reference, a fidelity above 1, a NaN, a lost row, an oracle mismatch above
    the tolerance, a bad trace and a missing oracle line must each fail.
    """
    rows = parse_rows(_SELF_CHECK_CSV)
    ref = unpack_rows(pack_rows(rows))
    cases = {"clean": (rows, [])}
    nudged = list(rows)
    nudged[1] = rows[1][:4] + (rows[1][4] + 1e-9,)
    cases["perturbed value"] = (nudged, ["deviates"])
    cases["fidelity above 1"] = ([rows[0][:4] + (1.0 + 1e-12,)] + rows[1:], ["outside"])
    cases["nan"] = (rows[:1] + [rows[1][:4] + (float("nan"),)], ["non-finite"])
    cases["lost row"] = (rows[:1], ["rows, expected"])
    for case, (case_rows, expect) in cases.items():
        found = check_rows(case_rows, len(rows), ref)
        ok = (not found) if not expect else any(e in p for p in found for e in expect)
        if not ok:
            raise AssertionError(f"gate self-check failed on {case}: {found}")
    if check_oracle(0, _SELF_CHECK_ORACLE):
        raise AssertionError("gate self-check: clean oracle report rejected")
    bad_reports = {
        "mean mismatch": _SELF_CHECK_ORACLE.replace("1.234e-12", "2.000e-05"),
        "cov nan": _SELF_CHECK_ORACLE.replace("5.678e-11", "nan"),
        "trace": _SELF_CHECK_ORACLE.replace("1.000000000000", "0.999999999000"),
        "missing line": _SELF_CHECK_ORACLE.split("trace")[0],
    }
    for case, report in bad_reports.items():
        if not check_oracle(0, report):
            raise AssertionError(f"gate self-check: oracle {case} not rejected")
    if not check_oracle(1, _SELF_CHECK_ORACLE):
        raise AssertionError("gate self-check: non-zero oracle exit not rejected")
