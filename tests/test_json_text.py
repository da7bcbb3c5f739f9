"""The report writer cli.json_text against its reference,
json.dumps(obj, indent=2, sort_keys=True): the same text for every plain
report value, and the same exception, with the same message, wherever json
rejects a value."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cartperm.cli import json_text


def outcome(encode, obj):
    try:
        return encode(obj)
    except Exception as e:  # the exception, compared by type and message
        return type(e), str(e)


def reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def nested(depth, leaf):
    for i in range(depth):
        leaf = [leaf] if i % 2 else {"level": leaf, "i": i}
    return leaf


scalars = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=-10 ** 60, max_value=10 ** 60)
           | st.floats(allow_nan=True, allow_infinity=True) | st.text())
keys = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
values = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(keys, children, max_size=4)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=30)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(values)
@example({9: "nine", 10: "ten", 1: "one"})
@example({1.5: 0, -0.0: 1, float("nan"): 2, float("inf"): 3, float("-inf"): 4})
@example({True: 0, 2: 2, 0.5: 1})
@example({False: [], 0.25: (), -3: {None: None}})
@example([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, 5e-324])
@example([10 ** 40, -10 ** 40, -1, 0, 2 ** 63, -(2 ** 64)])
@example({"é": "∂x 😀", "naïve": ["ÿ", "Ā", "\U0001f600"]})
@example(["\x00\x01\x1f\x7f", "\n\r\t\b\f", "say \"hi\"", "back\\slash", "/"])
@example({"": "", " ": [" "], "\"": {"\\": None}})
@example((1, (2, (3,)), [], {}, ()))
@example({"a": {}, "b": [], "c": [{}], "d": {"e": []}})
@example(nested(20, 7))
@example(nested(20, []))
@example({"x": np.float64(0.1), "y": [np.float64("nan")]})
def test_writer_matches_json(obj):
    assert outcome(json_text, obj) == outcome(reference, obj)


@pytest.mark.parametrize("obj", [
    {1, 2}, b"bytes", np.int64(3), [np.int64(3)], {"a": np.int64(3)},
    {"a": 1, 1: "a"}, {"a": [{2: 0, "b": 1}]}, {(1, 2): 0}, {"a": {b"k": 0}},
    np.bool_(True), {"a": [1, 2, {3, 4}]}, object(), [1.5, complex(1, 2)],
])
def test_writer_rejects_what_json_rejects(obj):
    got = outcome(json_text, obj)
    assert got == outcome(reference, obj)
    assert got[0] is TypeError


def test_int_keys_sort_before_they_become_strings():
    assert json_text({10: 0, 9: 1}) == '{\n  "9": 1,\n  "10": 0\n}'
