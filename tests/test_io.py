import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import graph_from_payload, ideal_to_payload, setup_to_payload
from tropchow import io
from tropchow.fans import fan_from_max_cones
from tropchow.ideals import MonomialIdeal
from tropchow.piecewise import courant_function
from tropchow.tropical import WeightedDualGraph
from tropchow.weights import MinkowskiWeight, mw_of_pp


def _p2():
    return fan_from_max_cones(2, [
        [(1, 0), (0, 1)], [(1, 0), (-1, -1)], [(0, 1), (-1, -1)]])


def test_rational_format_and_parse():
    assert io.format_rational(Fraction(3)) == "3"
    assert io.format_rational(Fraction(-1, 2)) == "-1/2"
    assert io.format_rational(Fraction(4, 6)) == "2/3"
    assert io.parse_rational(5) == 5
    assert io.parse_rational("-4/6") == Fraction(-2, 3)
    assert io.parse_rational("7") == 7
    for bad in ("3/0", "x", "1/2/3", "", True, 1.5):
        with pytest.raises(io.DocumentError):
            io.parse_rational(bad)


def test_parse_document_errors():
    with pytest.raises(io.DocumentError, match="line 1 column"):
        io.parse_document("{nope")
    with pytest.raises(io.DocumentError, match="unknown document kind"):
        io.parse_document('{"kind": "blob", "version": 1, "payload": {}}')
    with pytest.raises(io.DocumentError, match="version"):
        io.parse_document('{"kind": "fan", "version": 2, "payload": {}}')
    with pytest.raises(io.DocumentError, match="unknown field"):
        io.parse_document(
            '{"kind": "fan", "version": 1, "payload": {}, "extra": 0}')
    with pytest.raises(io.DocumentError, match="missing field"):
        io.parse_document('{"kind": "fan", "version": 1}')


def test_fan_roundtrip_canonicalizes():
    fan = _p2()
    payload = io.fan_to_payload(fan)
    assert payload == {"rank": 2, "max_cones": [
        [[-1, -1], [0, 1]], [[-1, -1], [1, 0]], [[0, 1], [1, 0]]]}
    assert io.fan_from_payload(payload) == fan
    # scrambled ray order parses to the same fan
    scrambled = {"rank": 2, "max_cones": [
        [[1, 0], [0, 1]], [[-1, -1], [1, 0]], [[0, 1], [-1, -1]]]}
    assert io.fan_to_payload(io.fan_from_payload(scrambled)) == payload
    text = io.print_document(io.Document("fan", payload))
    doc = io.parse_document(text)
    assert doc.kind == "fan" and doc.payload == payload
    assert io.print_document(doc) == text


def test_fan_payload_rejections():
    with pytest.raises(io.DocumentError, match="unknown field"):
        io.fan_from_payload({"rank": 2, "max_cones": [], "name": "x"})
    with pytest.raises(io.DocumentError, match="integers"):
        io.fan_from_payload({"rank": 2, "max_cones": [[[1, "a"]]]})
    with pytest.raises(io.DocumentError, match="invalid fan"):
        io.fan_from_payload({"rank": 2, "max_cones": [
            [[1, 0], [0, 1]], [[1, 1], [1, -1]]]})


def test_weight_roundtrip():
    fan = _p2()
    w = mw_of_pp(courant_function(fan, 2), 1)
    payload = io.weight_to_payload(w)
    assert payload["codim"] == 1
    assert io.weight_from_payload(payload) == w
    with pytest.raises(io.DocumentError, match="invalid weight"):
        io.weight_from_payload({
            "fan": io.fan_to_payload(fan), "codim": 1,
            "values": [{"cone": [[1, 0], [0, 1]], "value": "1"}]})
    with pytest.raises(io.DocumentError, match="not in the fan"):
        io.weight_from_payload({
            "fan": io.fan_to_payload(fan), "codim": 1,
            "values": [{"cone": [[2, 1]], "value": "1"}]})
    with pytest.raises(io.DocumentError, match="zero denominator"):
        io.weight_from_payload({
            "fan": io.fan_to_payload(fan), "codim": 1,
            "values": [{"cone": [[1, 0]], "value": "3/0"}]})


def test_weight_zero_values_dropped():
    fan = _p2()
    w = MinkowskiWeight(fan, 2, {(): Fraction(0)})
    assert io.weight_to_payload(w)["values"] == []


def test_pp_roundtrip():
    fan = _p2()
    f = courant_function(fan, 0)
    payload = io.pp_to_payload(f)
    assert io.pp_from_payload(payload) == f
    assert len(payload["pieces"]) == 3
    with pytest.raises(io.DocumentError, match="unknown field"):
        io.pp_from_payload({"fan": io.fan_to_payload(fan),
                            "pieces": [], "junk": 1})


def test_ideal_roundtrip():
    fan = _p2()
    ideal = MonomialIdeal(fan, ((0, 0, 1), (0, 1, 0)))
    payload = ideal_to_payload(ideal)
    assert io.ideal_from_payload(payload) == ideal


def test_graph_roundtrip():
    g = WeightedDualGraph((0, 0), ((0, 1), (0, 1)), (0, 1))
    payload = io.graph_to_payload(g)
    assert payload == {"genus": [0, 0], "edges": [[0, 1], [0, 1]],
                       "legs": [0, 1]}
    assert graph_from_payload(payload) == g
    with pytest.raises(io.DocumentError, match="invalid graph"):
        graph_from_payload({"genus": [0], "edges": [], "legs": []})


def test_setup_roundtrip():
    fan = _p2()
    payload = {"base": io.fan_to_payload(fan),
               "center": [[0, 1], [1, 0]],
               "modification": None,
               "cycle": {"codim": 1,
                         "coefficients": [{"cone": [[1, 0]], "value": 1}]}}
    setup, cycle = io.setup_from_payload(payload)
    assert setup.base == fan and setup.modification == fan
    assert setup.center == (1, 2)
    assert cycle.codim == 1 and cycle.coefficients == {(2,): 1}
    emitted = setup_to_payload(setup, cycle)
    setup2, cycle2 = io.setup_from_payload(emitted)
    assert setup2.center == setup.center and cycle2 == cycle


_TEXT = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600')
                | st.characters(), max_size=8)
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(-2 ** 200, 2 ** 200) | _TEXT)
_PAYLOADS = st.recursive(
    _SCALARS, lambda inner: (st.lists(inner, max_size=4)
                             | st.lists(inner, max_size=4).map(tuple)
                             | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=24)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_PAYLOADS)
def test_printed_documents_equal_json_dumps(payload):
    body = {"kind": "report", "version": io.DOCUMENT_VERSION,
            "payload": payload}
    assert io.print_document(io.Document("report", payload)) == json.dumps(
        body, indent=2, sort_keys=True) + "\n"


def test_other_values_print_as_json_dumps_does():
    payload = {"a": [1.5, {2: "x", 1: None}], "b": ({}, [], ())}
    body = {"kind": "report", "version": 1, "payload": payload}
    assert io.print_document(io.Document("report", payload)) == json.dumps(
        body, indent=2, sort_keys=True) + "\n"
    for bad in (Fraction(1, 2), {(1,): 0}, {1: 0, "x": 0}):
        with pytest.raises(TypeError) as expected:
            json.dumps({"payload": bad}, indent=2, sort_keys=True)
        message = re.escape(str(expected.value)[:24])
        with pytest.raises(TypeError, match=message):
            io.print_document(io.Document("report", bad))
