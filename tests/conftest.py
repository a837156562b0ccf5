import weakref
from itertools import combinations_with_replacement

import numpy as np
import pytest

from contracta import enumerate_family, regular_elements, subsemigroup
from contracta.semigroups import FiniteSemigroup

_families: dict = {}
_regs: dict = {}
_tables = weakref.WeakKeyDictionary()


@pytest.fixture(scope="session")
def family():
    """Cached family enumeration shared across the whole run."""

    def get(fam, n):
        key = (fam, n)
        if key not in _families:
            _families[key] = enumerate_family(fam, n)
        return _families[key]

    return get


@pytest.fixture(scope="session")
def regular_base(family):
    """Cached Reg(family_n) wrapped as a semigroup."""

    def get(fam, n):
        key = (fam, n)
        if key not in _regs:
            s = family(fam, n)
            _regs[key] = subsemigroup(s, regular_elements(s))
        return _regs[key]

    return get


@pytest.fixture(scope="session")
def table_of():
    """A carrier's full product table, the reference the tests compare
    against, read once per live carrier as every row a*x of its products."""

    def get(s):
        if s not in _tables:
            _tables[s] = s.product_rows(np.arange(s.size), "r")
        return _tables[s]

    return get


@pytest.fixture(scope="session")
def pair_loop():
    """``checks._scan_pairs`` by its definition: every pair (i, j) of
    ``combinations_with_replacement`` order where the oracle ``labels`` and
    the characterized ``related(i, j)`` disagree, counted, and the first as
    a witness."""

    def scan(s, labels, related):
        disagreements, witness = 0, None
        for i, j in combinations_with_replacement(range(len(labels)), 2):
            o, c = bool(labels[i] == labels[j]), bool(related(i, j))
            if o != c:
                disagreements += 1
                if witness is None:
                    witness = {"maps": [str(s.elements[i]), str(s.elements[j])], "oracle": o, "characterized": c}
        return disagreements, witness

    return scan


@pytest.fixture
def no_semigroup_table(monkeypatch):
    """Make ``FiniteSemigroup.table`` raise for the rest of the test."""

    def unreachable(s):
        raise AssertionError("a semigroup product table was built")

    monkeypatch.setattr(FiniteSemigroup, "table", unreachable)
