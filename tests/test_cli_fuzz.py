"""Hypothesis fuzz of the cheap CLI subcommands' numeric flags.

Whatever integer or float a flag receives — zero and negatives
included — ``main`` must return 0 or 1, or let argparse exit with
status 2.  Any other exception escaping is a bug: the user would see a
deep traceback instead of one ``error:`` line.
"""

import contextlib
import io
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import APPS, main

FUZZ = settings(max_examples=25, deadline=None)


def ints(low, high):
    return st.integers(min_value=low, max_value=high)


def floats(low, high):
    return st.floats(min_value=low, max_value=high,
                     allow_nan=False, allow_infinity=False)


def run(argv):
    """``main(argv)``'s exit code, with output swallowed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return 2
    assert code in (0, 1), argv
    text = err.getvalue()
    if text:  # ``plan`` reports an infeasible plan on stdout instead
        assert text.startswith("error: ") and text.count("\n") == 1, text
    return code


def flags(**values):
    """``--name=value`` tokens: ``=`` keeps negative numbers values."""
    return [f"--{name.replace('_', '-')}={value}"
            for name, value in values.items()]


@FUZZ
@given(entries=ints(-2, 64), intents=ints(-2, 64), queries=ints(-2, 80),
       alpha=floats(-1.0, 2.0), threshold=floats(-0.5, 1.5),
       scan_ms=floats(-5.0, 50.0),
       distribution=st.sampled_from(["uniform", "zipf"]))
def test_cache_flags_never_traceback(**values):
    run(["cache"] + flags(**values))


@FUZZ
@given(gigabytes=floats(-1.0, 2.0), app=st.sampled_from(APPS))
def test_speedup_flags_never_traceback(**values):
    run(["speedup"] + flags(**values))


@FUZZ
@given(features=ints(-10, 10**8), qps=floats(-1.0, 100.0),
       app=st.sampled_from(APPS))
def test_plan_flags_never_traceback(**values):
    run(["plan"] + flags(**values))


@pytest.mark.parametrize("command", ["trace", "profile"])
@FUZZ
@given(features=ints(-5, 3000), max_pages=ints(-2, 8), top=ints(-2, 10))
def test_obs_flags_never_traceback(command, **values):
    extra = ["--out", os.devnull] if command == "trace" else []
    run([command] + extra + flags(**values))
