"""Semidirect legality against the exhaustive oracle.

``SemidirectProduct.legality`` decides additivity on E's position tables
and a generating set.  ``exhaustive_legality`` in ``oracles.py`` checks
every axiom on every element tuple of the ``Element`` formulas instead;
both must return the same (ok, reason).
"""

import pytest
from hypothesis import given, settings

from mlex.cocycle import SemidirectProduct
from mlex.cohomology import enumerate_cocycles

from fixture_lib import f1_datum, nonabelian_kernel
from oracles import exhaustive_legality
from strategies import cocycles


def assert_same_legality(T):
    assert SemidirectProduct(T).legality() == exhaustive_legality(T)


@settings(max_examples=300, deadline=None)
@given(cocycles())
def test_legality_matches_exhaustive_oracle(T):
    assert_same_legality(T)


@pytest.mark.parametrize("kernel", ["zero", "nonabelian"])
def test_legality_matches_oracle_on_enumerated_cocycles(kernel):
    Q, I = f1_datum()
    if kernel == "nonabelian":
        I = nonabelian_kernel()
    enumerated = enumerate_cocycles(Q, I, action=None)
    assert len(enumerated) == 16
    for T in enumerated:
        assert_same_legality(T)
