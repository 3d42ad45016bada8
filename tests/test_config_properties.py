"""Properties of the strict config parser: the integer keys store any
integral number as that int and reject everything else; the number keys and
``constants.*`` take any int or float and reject everything else, booleans
included.  Both hold from a config file or a --set override, and through
``main`` a rejected value exits 2 with a one-line message before any output
directory exists."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypam.cli import ConfigError, load_config, main

INT_KEYS = ("model.n", "moment.p", "mc.n_paths", "mc.seed", "mc.workers")

keys = st.sampled_from(INT_KEYS)
integral = st.one_of(
    st.integers(-4000, 4000),
    st.integers(-4000, 4000).map(float),
    st.integers(-(2**52), 2**52).map(float),
)
rejected = st.one_of(
    st.floats(-4000.0, 4000.0).filter(lambda v: not v.is_integer()),
    st.booleans(),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.text(max_size=8),
    st.integers(-4000, 4000).map(str),
)


def from_file(tmp_path, key, value):
    section, name = key.split(".")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({section: {name: value}}))  # NaN and inf as JSON extensions
    return load_config(str(path), [])


def from_override(key, value):
    return load_config(None, [f"{key}={json.dumps(value)}"])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(key=keys, value=integral)
def test_integral_numbers_are_stored_as_ints(tmp_path_factory, key, value):
    section, name = key.split(".")
    tmp_path = tmp_path_factory.mktemp("cfg")
    for config in (from_file(tmp_path, key, value), from_override(key, value)):
        stored = config[section][name]
        assert type(stored) is int and stored == value


@settings(max_examples=60, deadline=None, derandomize=True)
@given(key=keys, value=rejected)
def test_other_values_are_rejected(tmp_path_factory, key, value):
    tmp_path = tmp_path_factory.mktemp("cfg")
    with pytest.raises(ConfigError, match=f"{key} must be an integer"):
        from_file(tmp_path, key, value)
    with pytest.raises(ConfigError, match=f"{key} must be an integer"):
        from_override(key, value)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(key=keys, value=rejected)
def test_main_exits_2_before_writing(tmp_path_factory, key, value):
    out = tmp_path_factory.mktemp("run") / "out"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["bm-sample", "--out", str(out), "--set", f"{key}={json.dumps(value)}"])
    assert code == 2
    err = stderr.getvalue()
    assert err.startswith(f"error: {key} must be an integer, got ")
    assert err.endswith("\n") and err.count("\n") == 1
    assert not out.exists()


# every key read as a number, and one ledger constant standing for constants.*
NUMBER_KEYS = (
    "model.K", "noise.alpha", "noise.beta", "mc.t_end", "mc.dt",
    "u0.epsilon", "u0.R", "kernel.delta_floor", "constants.gbar_C",
)

number_keys = st.sampled_from(NUMBER_KEYS)
numbers = st.one_of(
    st.integers(-4000, 4000),
    st.floats(-1e6, 1e6, allow_nan=False),
)
not_numbers = st.one_of(
    st.booleans(),
    st.text(max_size=8),
    st.floats(-10.0, 10.0).map(str),
    st.lists(st.integers(0, 3), max_size=2),
)


def with_null(key):
    """The rejected values for key: the non-numbers, and null but for the one
    key that may be null."""
    if key == "kernel.delta_floor":
        return not_numbers
    return st.one_of(not_numbers, st.none())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(key=number_keys, value=numbers)
def test_numbers_are_stored_unchanged(tmp_path_factory, key, value):
    section, name = key.split(".")
    tmp_path = tmp_path_factory.mktemp("cfg")
    for config in (from_file(tmp_path, key, value), from_override(key, value)):
        stored = config[section][name]
        if section == "constants":  # the ledger reads every constant as a float
            assert type(stored) is float and stored == float(value)
        else:
            assert type(stored) is type(value) and stored == value


def test_delta_floor_may_be_null(tmp_path):
    for config in (from_file(tmp_path, "kernel.delta_floor", None),
                   from_override("kernel.delta_floor", None)):
        assert config["kernel"]["delta_floor"] is None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), key=number_keys)
def test_non_numbers_are_rejected(tmp_path_factory, data, key):
    value = data.draw(with_null(key))
    tmp_path = tmp_path_factory.mktemp("cfg")
    message = f"{key} must be a number, got {value!r}"
    with pytest.raises(ConfigError) as exc:
        from_file(tmp_path, key, value)
    assert str(exc.value) == message
    with pytest.raises(ConfigError) as exc:
        from_override(key, value)
    assert str(exc.value) == message


@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data(), key=number_keys)
def test_main_exits_2_on_a_non_number_before_writing(tmp_path_factory, data, key):
    value = data.draw(with_null(key))
    out = tmp_path_factory.mktemp("run") / "out"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["bm-sample", "--out", str(out), "--set", f"{key}={json.dumps(value)}"])
    assert code == 2
    message = " ".join(f"{key} must be a number, got {value!r}".split())  # as main prints it
    assert stderr.getvalue() == f"error: {message}\n"
    assert not out.exists()
