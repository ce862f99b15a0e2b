"""The CLI's JSON emitter against ``json.dumps`` as the oracle.

Every report is ``json.dumps(payload, sort_keys=True, indent=2,
allow_nan=False)``'s text; the CLI writes it with its own emitter, so these
tests hold the two to the same bytes and the same errors.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratio_convexity import cli
from ratio_convexity.probe import PropertyKind


def oracle(payload):
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-09, 1e16, 1e22,
                                0.1, 1.7976931348623157e308])
_floats = st.one_of(_finite, _edge_floats)
_scalars = st.one_of(
    st.text(),                         # non-ASCII, quotes, controls
    # and, beyond st.text()'s alphabet, a lone surrogate
    st.sampled_from(['"', "\\", "\n\t\x00", "é", " ", "\ud800", "😀"]),
    st.booleans(),
    st.none(),
    st.integers(min_value=-10 ** 40, max_value=10 ** 40),
    _floats,
    _floats.map(np.float64),
)
_payloads = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.lists(_floats, max_size=6),
        st.dictionaries(st.text(max_size=8), children, max_size=6)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_payloads)
def test_emitter_is_json_dumps(payload):
    assert cli._json_text(payload) == oracle(payload)


@pytest.mark.parametrize("payload", [
    # one memo serves the whole report: zeros, and values that compare equal
    # across types, must each keep their own text
    {"a": [0.0, -0.0, 0.0], "b": -0.0, "c": [[-0.0], [0.0]], "d": 0.0},
    {"a": [-0.0, 0.0], "b": [np.float64(-0.0), 0.0], "c": (0.0, -0.0)},
    [1.0, 1, True, 0, 0.0, False, -0.0, np.float64(1.0), [1.0, 1], [1, 1.0]],
    {"tiny": [5e-324, 1e-09, 5e-324], "big": [1e16, 10 ** 16, 1e22, 2 ** 70]},
    {"": [], "empty": {}, "t": (), "nested": [[], {}, [[]]]},
    "a bare string é\n",
    -0.0,
])
def test_emitter_edge_payloads(payload):
    assert cli._json_text(payload) == oracle(payload)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan"),
                                 np.float64("-inf")])
@pytest.mark.parametrize("where", ["bare", "float list", "mixed list", "dict"])
def test_emitter_refuses_out_of_range_floats(bad, where):
    payload = {"bare": bad, "float list": [1.5, bad], "mixed list": [1, bad],
               "dict": {"value": bad, "zero": 0.0}}[where]
    with pytest.raises(ValueError) as expected:
        oracle(payload)
    with pytest.raises(ValueError) as got:
        cli._json_text(payload)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("bad", [object(), {1, 2}, b"bytes", 1j, np.int64(3),
                                 np.array([1.0]), np.bool_(True)])
def test_emitter_refuses_unsupported_objects(bad):
    for payload in (bad, [1.0, bad], {"key": bad}):
        with pytest.raises(TypeError) as expected:
            oracle(payload)
        with pytest.raises(TypeError) as got:
            cli._json_text(payload)
        assert str(got.value) == str(expected.value)


def test_emitter_takes_str_keys_alone():
    # the CLI's reports key every object by str; json.dumps would also
    # convert int, float, bool and None keys, which the emitter refuses
    with pytest.raises(TypeError):
        cli._json_text({1: "one"})


_ALL_PROPERTIES = ",".join(kind.value for kind in PropertyKind)


@pytest.mark.parametrize("argv", [
    ["probe", "--model", "laplace", "--property", _ALL_PROPERTIES],
    ["probe", "--model", "quartic", "--property", _ALL_PROPERTIES],
    ["probe", "--model", "gaussian", "--mu=-0,0.5", "--sigma=1,0.3,0.3,2"],
    ["probe", "--model", "gaussian", "--mu=0.3,-1,2", "--tol", "0",
     "--sigma=1,0.5,0,0.5,2,0,0,0,3", "--property", _ALL_PROPERTIES],
    ["probe", "--input", "normal_200.csv"],
    ["fit", "--model", "gaussian", "--mu=1,-0", "--sigma=2"],
    ["fit", "--model", "laplace"],
    ["fit", "--input", "normal_200.csv"],
    ["test", "--input", "laplace_500.csv", "--reps", "99"],
    ["counterexample", "laplace", "--y-set=-0,0.5,-1"],
    ["counterexample", "quartic"],
])
def test_reports_are_the_oracles_text(run_cli, data_dir, argv):
    argv = [str(data_dir / a) if a.endswith(".csv") else a for a in argv]
    code, text = run_cli(argv)
    assert code == 0
    assert oracle(json.loads(text)) + "\n" == text
