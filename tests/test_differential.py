"""Differential referee: ``validate`` decides what ``run`` does.

``validate`` and ``run`` must refuse a config with one message and exit 2, or
``run`` must take it to exit 0 with no warning but the two validity warnings.
The draws are runnable configs of every scenario and experiment, with their
sizes capped, and set each field whose rules ``validate`` takes from the code
that ``run`` calls, not from rules of its own, in or out of range at random: the
bath's size, window mode and floor (``bath.discretize``, ``bath.omega_range``),
alpha and omega_c (``bath.OhmicSpectrum``) and beta (the pair's master equation
and exact side).  Coherent amplitudes, squeezings and a second bath's
temperature range over all finite floats, squeezings also near the squeeze
rule's limits, and a floor window's lower edge reaches down to 1e-6, far below
T.  A second test draws ``correlation_study``'s t_max, omega_c, alpha and T over
all finite floats.
"""

import contextlib
import io
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_config_cli import CONFIG_DIR, FINITE, runnable_configs

from oscbath.cli import EXIT_CONFIG, EXIT_OK, cli_main
from oscbath.config import INITIAL_STATES, ScenarioConfig, config_text, parse_path
from oscbath.exact import RwaValidityWarning
from oscbath.flows import SecularValidityWarning


NEGATIVE = st.floats(max_value=0.0, allow_infinity=False)
ABOVE_10 = st.floats(min_value=10.0, allow_infinity=False)  # above every drawn Omega, omega_c
# field -> (its values in range, its values out of range)
RANGES = {
    "bath_modes": (st.sampled_from([0, 2, 3, 20]), st.integers(-3, 1)),
    "range_mode": (st.sampled_from(["equal_tails", "floor"]), st.just("bogus")),
    "range_floor": (st.floats(1e-6, 0.99), NEGATIVE | ABOVE_10),
    "alpha": (st.floats(1e-4, 0.1), NEGATIVE),
    "omega_c": (st.floats(1.0, 10.0), NEGATIVE),
    "beta": (st.floats(0.0, 0.99), st.floats(max_value=-5e-324) | ABOVE_10),
}


@st.composite
def configs_off_their_ranges(draw):
    """Runnable configs of at most 6 samples and 40 swept bath modes, with the fields
    of ``RANGES`` redrawn, up to two of them out of range."""
    config = draw(runnable_configs())
    modes = config.sweep_parameter == "modes"
    config = replace(config, samples=min(config.samples, 6),
                     sweep_values=tuple(min(v, 40) for v in config.sweep_values) if modes
                     else config.sweep_values)
    off = draw(st.sets(st.sampled_from(sorted(RANGES)), max_size=2))
    return replace(
        config, **{name: draw(ranges[name in off]) for name, ranges in RANGES.items()},
        initial=draw(st.sampled_from(INITIAL_STATES)),
        initial_squeeze=draw(st.floats(-7.0, 7.0) | FINITE),
        initial_coherent_re=draw(FINITE), initial_coherent_im=draw(FINITE),
        temperature2=draw(st.just(-1.0) | st.floats(0.0, allow_infinity=False)))


def cli(*argv):
    """The exit code of ``oscbath argv`` and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(list(argv))
    return code, err.getvalue()


def assert_refused_or_runs(config, *ignored):
    """``validate`` and ``run`` refuse ``config`` alike, exit 2 with one message, or
    ``run`` takes it to exit 0 with no warning outside the ``ignored`` categories."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(config_text(config))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for category in ignored:
                warnings.simplefilter("ignore", category)
            validated, refusal = cli("validate", str(path))
            ran, message = cli("run", str(path), "--out", str(Path(tmp) / "o"))
    assert validated in (EXIT_OK, EXIT_CONFIG), refusal
    if validated == EXIT_CONFIG:
        assert (ran, message) == (EXIT_CONFIG, refusal)
    else:
        assert ran == EXIT_OK, message


# fig9_11 driven on a normal mode of its W, at 1.1163263542544686: the exact side
# once refused this eigenvalue of W - omega_L after validate had accepted it
RESONANT_FIG9_11 = replace(parse_path(CONFIG_DIR / "fig9_11_driven.cfg"),
                           omega_l=1.1163263542544686, experiments=("fidelity_vs_time",))


@settings(max_examples=100, deadline=None)
@given(configs_off_their_ranges())
@example(RESONANT_FIG9_11)
def test_validate_refuses_or_run_succeeds(config):
    assert_refused_or_runs(config, SecularValidityWarning, RwaValidityWarning)


@settings(max_examples=300, deadline=None)
@given(FINITE, FINITE, FINITE, FINITE)
@example(t_max=1e150, omega_c=3.0, alpha=0.01, temperature=1.0)  # fwhh searched all of t_max
@example(t_max=8.0, omega_c=1e300, alpha=0.01, temperature=1.0)  # omega_c^2 overflowed
@example(t_max=1.0, omega_c=0.0, alpha=0.0, temperature=1.0)  # the reach needs omega_c > 0
def test_correlation_study_runs_or_is_refused(t_max, omega_c, alpha, temperature):
    assert_refused_or_runs(ScenarioConfig(alpha=alpha, omega_c=omega_c, temperature=temperature,
                                          t_max=t_max, samples=3,
                                          experiments=("correlation_study",)))
