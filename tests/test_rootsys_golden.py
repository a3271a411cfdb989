"""Frozen root data: sorted roots, Gram matrix and its inverse, per spec.

The fixture ``rootsys_golden.json`` next to this file pins 42 specs: every
simple algebra through rank 8 (A1-A8, B1-B8, C1-C8, D2-D8, G2, F4, E6-E8) and
the products A1xA1, A1^3, B2xG2, A2^3, E6xE6 and F4xF4.  Each entry holds the
positive roots as digit strings in the simple-root basis (every coordinate of
a positive root lies in 0..6), the Gram matrix rows and the exact inverse rows
as strings.  The built system must match bit for bit: the same sorted root
tuple, so also the Bourbaki node numbering that painted indices depend on,
the same integer Gram matrix and the same ``Fraction`` inverse.

Regenerate the fixture, only after a deliberate change of the root data, with

    PYTHONPATH=src python tests/test_rootsys_golden.py
"""

import json
import os
from fractions import Fraction

import pytest

from flagke.rootsys import LieAlgebraSpec, Root, build_root_system

FIXTURE = os.path.join(os.path.dirname(__file__), "rootsys_golden.json")

SPECS = (
    ["A%d" % r for r in range(1, 9)]
    + ["B%d" % r for r in range(1, 9)]
    + ["C%d" % r for r in range(1, 9)]
    + ["D%d" % r for r in range(2, 9)]
    + ["G2", "F4", "E6", "E7", "E8"]
    + ["A1xA1", "A1xA1xA1", "B2xG2", "A2xA2xA2", "E6xE6", "F4xF4"]
)


def encode(rs):
    return {
        "positive": " ".join("".join(str(c) for c in r.coords) for r in rs.roots if r.is_positive),
        "gram": [" ".join(str(x) for x in row) for row in rs.gram],
        "gram_inverse": [" ".join(str(x) for x in row) for row in rs.gram_inverse],
    }


def decode(entry):
    pos = [tuple(int(ch) for ch in word) for word in entry["positive"].split()]
    roots = tuple(sorted([Root(c) for c in pos] + [Root(tuple(-x for x in c)) for c in pos]))
    gram = tuple(tuple(int(x) for x in row.split()) for row in entry["gram"])
    inverse = tuple(tuple(Fraction(x) for x in row.split()) for row in entry["gram_inverse"])
    return roots, gram, inverse


def _load():
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_fixture_covers_every_spec():
    assert sorted(_load()) == sorted(SPECS)


@pytest.mark.parametrize("text", SPECS)
def test_root_data_matches_golden(text):
    roots, gram, inverse = decode(_load()[text])
    rs = build_root_system(LieAlgebraSpec.parse(text))
    assert rs.roots == roots
    assert rs.gram == gram
    assert rs.gram_inverse == inverse
    assert all(type(x) is int for row in rs.gram for x in row)
    assert all(type(x) is Fraction for row in rs.gram_inverse for x in row)


if __name__ == "__main__":
    with open(FIXTURE, "w") as fh:
        json.dump({text: encode(build_root_system(LieAlgebraSpec.parse(text))) for text in SPECS}, fh, indent=1, sort_keys=True)
        fh.write("\n")
