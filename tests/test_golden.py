"""Golden rows: shrunken bundled configs must reproduce their recorded outputs.

``golden_rows.json`` holds every row of the cases below.  Labels must match
exactly and times and values within 1e-10 absolute.  Regenerate the file only
for a deliberate change of results, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oscbath.config import parse_path
from oscbath.experiments import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_rows.json"
ATOL = 1e-10

# case -> (bundled config, experiment, fields replaced to shrink the run)
CASES = {
    "fig2_variance": ("fig2_variance.cfg", "variance_trajectory",
                      dict(bath_modes=30, samples=12)),
    "fig3_recurrence": ("fig3_recurrence.cfg", "recurrence_map",
                        dict(samples=10, sweep_values=(10, 20))),
    "fig4_correlation": ("fig4_correlation.cfg", "correlation_study",
                         dict(samples=12, sweep_values=(1.0,))),
    "fig5_fidelity_temperature": ("fig5_fidelity_temperature.cfg", "fidelity_vs_time",
                                  dict(bath_modes=40, samples=10, sweep_values=(0.0, 1.0))),
    "fig5p0_factorization": ("fig5p0_factorization.cfg", "factorization_distance",
                             dict(bath_modes=10, samples=8, sweep_values=(0.002, 0.008))),
    "fig6_8_two_oscillators": ("fig6_8_two_oscillators.cfg", "two_oscillator_suite",
                               dict(bath_modes=30, samples=8, sweep_values=(0.01, 0.1))),
    "fig6_8_fidelity_vs_time": ("fig6_8_two_oscillators.cfg", "fidelity_vs_time",
                                dict(bath_modes=30, samples=8, sweep_parameter="none",
                                     sweep_values=())),
    "fig9_11_driven": ("fig9_11_driven.cfg", "driven_suite",
                       dict(bath_modes=30, samples=8, sweep_parameter="detuning",
                            sweep_values=(-0.1, 0.2))),
    "fig9_11_fidelity_vs_time": ("fig9_11_driven.cfg", "fidelity_vs_time",
                                 dict(bath_modes=30, samples=8, sweep_parameter="variant",
                                      sweep_values=("plain", "no_secular"))),
}


def run_case(case: str) -> list:
    filename, experiment, overrides = CASES[case]
    config = replace(parse_path(ROOT / "configs" / filename), **overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run(replace(config, experiments=(experiment,)))[0]
    return [[str(sp), str(sv), float(t), str(q), float(v)]
            for sp, sv, t, q, v in result.rows]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_rows_match_golden(case, golden):
    got, want = run_case(case), golden[case]
    assert [(r[0], r[1], r[3]) for r in got] == [(r[0], r[1], r[3]) for r in want]
    np.testing.assert_allclose([(r[2], r[4]) for r in got],
                               [(r[2], r[4]) for r in want], rtol=0, atol=ATOL)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps({case: run_case(case) for case in CASES}, indent=1)
                           + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
