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
from ratio_convexity.probe import PropertyKind, Witness

from _oracles import witness_dict


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


@st.composite
def _witnesses(draw, values=_floats):
    """A :class:`Witness` of 1-4 coordinates: its points, values, margin
    and step from ``_floats`` (np.float64 among them), int positions."""
    n = draw(st.integers(1, 4))
    scalar = st.one_of(_floats, _floats.map(np.float64))

    def point():
        return np.array(draw(st.lists(_floats, min_size=n, max_size=n)))

    return Witness(
        kind=draw(st.sampled_from(PropertyKind)), y=point(), x=point(),
        direction=point(), step=draw(scalar),
        triple=(point(), point(), point()),
        values=tuple(draw(st.lists(values, min_size=3, max_size=3))),
        margin=draw(scalar), tolerance_used=draw(scalar),
        position=tuple(draw(st.lists(st.integers(0, 10 ** 6), min_size=4,
                                     max_size=4))))


def _nested(value, depth, wrappers):
    """``value`` inside ``depth`` lists and dicts, ``wrappers`` choosing
    which: the nesting sets the indent the witness starts on."""
    for wrap in wrappers[:depth]:
        value = {"key": value, "a": 0.5} if wrap else [1.5, value]
    return value


@settings(max_examples=300, deadline=None)
@given(st.one_of(_witnesses(), st.lists(_witnesses(), max_size=3)),
       st.integers(0, 5), st.lists(st.booleans(), min_size=5, max_size=5))
def test_witnesses_render_as_their_dicts(witnesses, depth, wrappers):
    # each witness is written from its shape's template; the oracle is
    # json.dumps of its dict, at every indent a report may put it on
    dicts = (witness_dict(witnesses) if isinstance(witnesses, Witness)
             else [witness_dict(w) for w in witnesses])
    got = cli._json_text(_nested(witnesses, depth, wrappers))
    assert got == oracle(_nested(dicts, depth, wrappers))


@settings(max_examples=100, deadline=None)
@given(_witnesses(values=st.sampled_from(
    [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf"),
     1.5, -0.0])), st.integers(0, 5),
    st.lists(st.booleans(), min_size=5, max_size=5))
def test_witness_values_out_of_range_are_refused(witness, depth, wrappers):
    payload = _nested([witness], depth, wrappers)
    try:
        expected = oracle(_nested([witness_dict(witness)], depth, wrappers))
    except ValueError as error:
        with pytest.raises(ValueError) as got:
            cli._json_text(payload)
        assert str(got.value) == str(error)
    else:
        assert cli._json_text(payload) == expected


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
    # witnesses of each shape: a 1-D KDE's, a 2-D KDE's and n = 4 ones
    ["probe", "--input", "laplace_500.csv", "--property", _ALL_PROPERTIES],
    ["probe", "--input", "normal_2d", "--property", _ALL_PROPERTIES],
    ["probe", "--model", "gaussian", "--mu=0,0.5,-1,2", "--tol", "0",
     "--property", _ALL_PROPERTIES],
])
def test_reports_are_the_oracles_text(run_cli, data_dir, tmp_path, argv):
    argv = [str(data_dir / a) if a.endswith(".csv") else a for a in argv]
    if "normal_2d" in argv:
        path = tmp_path / "normal_2d.csv"
        np.savetxt(path, np.random.default_rng(1).standard_normal((60, 2)),
                   delimiter=",")
        argv[argv.index("normal_2d")] = str(path)
    code, text = run_cli(argv)
    assert code == 0
    assert oracle(json.loads(text)) + "\n" == text
