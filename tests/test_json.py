"""The shared JSON loader, and every reader behind it, on malformed input.

Random JSON-shaped values and mutations of valid documents go to the three
``from_json`` readers: each must load or raise its own ``Invalid*`` error.
Through the CLI, ``poset-mu`` and ``semigroup`` must exit 0 or 2 and raise
nothing.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mucat import (
    CategorySlice,
    FinitePoset,
    InverseSemigroup,
    InvalidPoset,
    InvalidSemigroup,
    InvalidSlice,
    chain,
    poset_as_category,
)
from mucat._json import load_object, rows, strings
from mucat.cli import main

from helpers import B2, brandt_five, divisor_poset, meet_semilattice, poset_json, semigroup_json, slice_json

SLICE = poset_as_category(chain([0, 1]))

# (reader, its error class, valid documents to mutate)
READERS = {
    "poset": (
        FinitePoset.from_json,
        InvalidPoset,
        [
            json.loads(poset_json(divisor_poset(12))),
            {"elements": ["a", "b"], "leq": [["a", "a"], ["b", "b"], ["a", "b"]]},
        ],
    ),
    "slice": (CategorySlice.from_json, InvalidSlice, [json.loads(slice_json(SLICE))]),
    "semigroup": (
        InverseSemigroup.from_json,
        InvalidSemigroup,
        [json.loads(semigroup_json(brandt_five())), json.loads(semigroup_json(meet_semilattice(B2)))],
    ),
}

NAMES = st.sampled_from(["a", "b", "e11", "z", "1", "12", "(0, 0)", "(0, 1)"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | NAMES | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(NAMES | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def mutations(draw, doc):
    """doc with one node replaced by a random value, or one item dropped or added."""
    if isinstance(doc, (list, dict)) and doc and draw(st.booleans()):
        key = draw(st.sampled_from(list(range(len(doc)) if isinstance(doc, list) else doc)))
        out = list(doc) if isinstance(doc, list) else dict(doc)
        out[key] = draw(mutations(doc[key]))
        return out
    action = draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "drop" and isinstance(doc, list) and doc:
        k = draw(st.integers(0, len(doc) - 1))
        return doc[:k] + doc[k + 1:]
    if action == "drop" and isinstance(doc, dict) and doc:
        gone = draw(st.sampled_from(list(doc)))
        return {k: v for k, v in doc.items() if k != gone}
    if action == "add" and isinstance(doc, list):
        return doc + [draw(JSON_VALUES)]
    if action == "add" and isinstance(doc, dict):
        return {**doc, draw(NAMES | st.text(max_size=3)): draw(JSON_VALUES)}
    return draw(JSON_VALUES)


def inputs(name):
    docs = READERS[name][2]
    value = JSON_VALUES | st.sampled_from(docs).flatmap(mutations)
    # each reader takes a parsed value or its text; also feed text that may not parse
    return value | value.map(json.dumps) | st.text(max_size=20)


def load_or_own_error(name, data):
    reader, error, _ = READERS[name]
    try:
        reader(data)
    except error:
        pass


@pytest.mark.parametrize("name", sorted(READERS))
def test_valid_documents_load(name):
    reader, _, docs = READERS[name]
    for doc in docs:
        reader(doc)
        reader(json.dumps(doc))


@pytest.mark.parametrize("name", sorted(READERS))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_readers_load_or_raise_their_own_error(name, data):
    load_or_own_error(name, data.draw(inputs(name)))


@pytest.mark.parametrize("name", sorted(READERS))
def test_readers_reject_deep_nesting(name):
    reader, error, _ = READERS[name]
    with pytest.raises(error, match="does not parse"):
        reader("[" * 100_000 + "]" * 100_000)


@pytest.mark.parametrize(
    "command, spec", [("poset-mu", ["1", "12"]), ("semigroup", ["e11,z"])]
)
@given(data=st.data())
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_cli_exits_zero_or_two(command, spec, data, tmp_path, capsys):
    docs = READERS["poset" if command == "poset-mu" else "semigroup"][2]
    doc = data.draw(JSON_VALUES | st.sampled_from(docs).flatmap(mutations))
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([command, str(path), *spec])
    out, err = capsys.readouterr()
    assert code in (0, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


# -- the loader itself ---------------------------------------------------------

class Bad(Exception):
    pass


FIELDS = {
    "names": (strings, "an array of strings"),
    "pairs": (lambda v: v is None or rows(v, 2), "an array of string pairs"),
}


def test_load_object_reads_text_and_values():
    doc = {"names": ["a"], "pairs": [["a", "a"]]}
    assert load_object(json.dumps(doc), Bad, "test", FIELDS) == doc
    assert load_object(doc, Bad, "test", FIELDS) is doc
    assert load_object('{"names": []}', Bad, "test", FIELDS) == {"names": []}


@pytest.mark.parametrize(
    "data, message",
    [
        ("{", "test JSON does not parse"),
        (b"\xff", "test JSON does not parse"),
        ("[]", "test JSON must be an object"),
        ({"names": [], "other": 1}, r"unknown keys in test JSON: \['other'\]"),
        ({"pairs": []}, "test JSON 'names' must be an array of strings"),
        ({"names": ["a", 1]}, "test JSON 'names' must be an array of strings"),
        ({"names": [], "pairs": [["a"]]}, "test JSON 'pairs' must be an array of string pairs"),
        ({"names": [], "pairs": [[["a"], "a"]]}, "'pairs' must be"),
    ],
)
def test_load_object_errors_name_the_key(data, message):
    with pytest.raises(Bad, match=message):
        load_object(data, Bad, "test", FIELDS)


def test_shape_tests():
    assert strings([]) and strings(["a", "b"]) and strings(["a", "b"], 2)
    assert not strings(["a"], 2) and not strings("ab") and not strings([None])
    assert rows([]) and rows([["a"], []]) and rows([["a", "b"]], 2)
    assert not rows([["a"]], 2) and not rows([("a", "b")]) and not rows(None)
