"""The one JSON writer: byte for byte what ``json.dumps(payload, indent=2)``
writes for the package's documents, radical trees included.

The references in ``_oracles`` build each document as nested dicts, every
shared radical subtree written out and spelled out, and hand it to
``json.dumps``.
"""

import contextlib
import importlib
import io
import json
from fractions import Fraction

import pytest

from countertwist import HalfInt, InternalConsistencyError, spectrum
from countertwist import cli
from countertwist.cli import main
from countertwist.spectrum import (
    Add,
    Rational,
    Sqrt,
    _json_document,
    spectrum_from_json,
    spectrum_to_json,
)
from _oracles import json_charpoly, json_classify, json_spectrum

spectrum_module = importlib.import_module("countertwist.spectrum")

TWICE_SPINS = range(1, 61)


@pytest.mark.parametrize("precision", [15, 34, 50])
def test_spectrum_documents_match_json_dumps(precision):
    for twoj in TWICE_SPINS:
        report = spectrum(HalfInt(twoj), precision)
        text = spectrum_to_json(report)
        assert text == json_spectrum(report), twoj
        assert spectrum_from_json(text) == report, twoj


def _stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("twoj", TWICE_SPINS)
def test_charpoly_and_classify_documents_match_json_dumps(twoj):
    j = HalfInt(twoj)
    assert _stdout("charpoly", "--j", str(j), "--format", "json") == json_charpoly(j)
    assert _stdout("classify", "--j", str(j), "--format", "json") == json_classify(
        j, cli._CATEGORY_NOTES
    )


def test_plain_values_match_json_dumps():
    payload = {
        "empty list": [],
        "empty object": {},
        "text": "café \"quoted\" \\ tab\t line\n  ",
        "nested": [[1, [-2, True]], {"a": False, "b": [{}], "c": 10**40}],
        "zero": 0,
    }
    assert _json_document(payload) == json.dumps(payload, indent=2) + "\n"


def test_a_shared_subtree_is_formatted_once_per_depth(monkeypatch):
    shared = Sqrt(Rational(Fraction(3)))
    payload = {"forms": [Add(shared, shared), Add(shared, Rational(Fraction(1, 2)))]}
    expected = json.dumps(
        {"forms": [
            {"kind": "add", "left": node, "right": other}
            for node, other in [
                ({"kind": "sqrt", "operand": {"kind": "rational", "value": "3"}},) * 2,
                (
                    {"kind": "sqrt", "operand": {"kind": "rational", "value": "3"}},
                    {"kind": "rational", "value": "1/2"},
                ),
            ]
        ]},
        indent=2,
    ) + "\n"
    calls = []
    write = spectrum_module._radical_json

    def counted(node, newline, memo):
        calls.append(node)
        return write(node, newline, memo)

    monkeypatch.setattr(spectrum_module, "_radical_json", counted)
    assert _json_document(payload) == expected
    # Two sums, the shared root and its leaf, and the leaf 1/2: five nodes.
    assert len(calls) == 5


@pytest.mark.parametrize(
    "value", [1.5, None, (1, 2), Fraction(1, 2), {1: "integer key"}, Rational(3)]
)
def test_other_values_are_refused(value):
    with pytest.raises(InternalConsistencyError):
        _json_document({"value": value})


def test_a_shared_subtree_is_spelled_once_per_document(monkeypatch):
    report = spectrum(HalfInt(14), 34)
    spelled = []
    for node_type in {type(node) for node in _nodes(report)}:
        real = node_type._spell

        def counting(node, memo, real=real):
            spelled.append(id(node))
            return real(node, memo)

        monkeypatch.setattr(node_type, "_spell", counting)
    text = spectrum_to_json(report)
    assert text == json_spectrum(report)
    # Each node at most once (a -1 factor is spelled as a sign), against
    # one spelling per reference before.
    references = list(_nodes(report))
    assert len(spelled) == len(set(spelled)) <= len({id(node) for node in references})
    assert 4 * len(spelled) < len(references)


def _nodes(report):
    """Every node of the report's radical trees, shared ones repeated."""
    pending = [e.radical_form for e in report.eigenvalues if e.radical_form is not None]
    while pending:
        node = pending.pop()
        yield node
        pending.extend(
            child for child in vars(node).values() if isinstance(child, spectrum_module.RadicalExpr)
        )
