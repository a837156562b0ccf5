"""Family enumeration, closure, and the algebraic predicates."""

import re
import tracemalloc
from itertools import product
from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from contracta import (
    FamilyTag,
    FiniteSemigroup,
    compose,
    enumerate_family,
    generated_subsemigroup,
    height_ideal,
    idempotents,
    idempotents_commute,
    identity_map,
    is_inverse,
    is_orthodox,
    is_subsemigroup,
    kernel,
    make_map,
    rees_quotient,
    regular_char_ct,
    regular_elements,
    subsemigroup,
    verify_inverse,
)
import contracta.checks as checks
import contracta.semigroups as semigroups
from contracta.semigroups import ClosureError, is_regular_in

# Computed once by the brute-force filters below and pinned.
CT_SIZES = {1: 1, 2: 4, 3: 17, 4: 68, 5: 259, 6: 950, 7: 3387}
OCT_SIZES = {1: 1, 2: 3, 3: 8, 4: 20, 5: 48, 6: 112, 7: 256}
ORCT_SIZES = {1: 1, 2: 4, 3: 13, 4: 36, 5: 91, 6: 218, 7: 505}
CT_IDEMPOTENT_COUNTS = {2: 3, 3: 8, 4: 21, 5: 56, 6: 149, 7: 395}
CT_IDEMPOTENT_GENERATED_SIZES = {2: 3, 3: 10, 4: 51, 5: 152, 6: 523, 7: 2372}
CT_REGULAR_COUNTS = {2: 4, 3: 17, 4: 64, 5: 221, 6: 730, 7: 2335}


@pytest.fixture(scope="module")
def all_pairs_members():
    """Per family, the words of all n^n that FamilyTag's all-pairs test admits."""
    _all_pairs = {}

    def get(n):
        if n not in _all_pairs:
            found = {"ct": [], "oct": [], "orct": []}
            for word in product(range(1, n + 1), repeat=n):
                # oct and orct members are contractions, so only those are tested.
                if FamilyTag.CT._word_member(word):
                    for fam, words in found.items():
                        if FamilyTag(fam)._word_member(word):
                            words.append(word)
            _all_pairs[n] = {fam: tuple(words) for fam, words in found.items()}
        return _all_pairs[n]

    return get


class TestEnumerate:
    def test_ct2_equals_t2(self, family):
        assert [m.images for m in family("ct", 2)] == [m.images for m in family("t", 2)]
        assert family("ct", 2).size == 4

    def test_oct2_elements(self, family):
        assert [m.images for m in family("oct", 2)] == [(1, 1), (1, 2), (2, 2)]

    def test_sizes(self, family):
        for n, want in CT_SIZES.items():
            assert family("ct", n).size == want
        for n, want in OCT_SIZES.items():
            assert family("oct", n).size == want
        for n, want in ORCT_SIZES.items():
            assert family("orct", n).size == want
        assert family("t", 3).size == 27

    def test_ct4_against_independent_filter(self, family):
        direct = {
            w
            for w in product(range(1, 5), repeat=4)
            if all(abs(w[i] - w[j]) <= j - i for i in range(4) for j in range(i + 1, 4))
        }
        assert {m.images for m in family("ct", 4)} == direct

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("fam", ["ct", "oct", "orct"])
    def test_walks_match_all_pairs_filter(self, all_pairs_members, fam, n):
        # The walk generator relies on the adjacent-step form of the
        # contraction condition; the oracle filters all n^n words by the
        # all-pairs test.
        assert tuple(map(tuple, semigroups.family_words(fam, n).tolist())) == all_pairs_members(n)[fam]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_t_words_match_product(self, n):
        words = semigroups.family_words("t", n)
        assert list(map(tuple, words.tolist())) == list(product(range(1, n + 1), repeat=n))

    @pytest.mark.parametrize("fam", ["t", "ct", "oct", "orct"])
    def test_words_are_one_int8_array(self, fam):
        for n in range(1, 6):
            words = semigroups.family_words(fam, n)
            assert words.dtype == np.int8 and words.flags.c_contiguous
            assert words.shape[1] == n

    def test_t_budget_before_building_maps(self):
        # enumerate_family builds no table, yet checks the table budget
        # before coding the words, and T_6's size^2 is over it.
        with pytest.raises(ValueError, match="46,656 elements"):
            enumerate_family("t", 6)

    def test_element_order_is_lexicographic(self, family):
        words = [m.images for m in family("ct", 4)]
        assert words == sorted(words)

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            enumerate_family("ct", 8)
        with pytest.raises(ValueError, match="positive"):
            enumerate_family("ct", 0)

    def test_env_guard_lowers_only(self, monkeypatch):
        monkeypatch.setenv("CONTRACTA_MAX_N", "3")
        with pytest.raises(ValueError, match="guard"):
            enumerate_family("ct", 4)
        monkeypatch.setenv("CONTRACTA_MAX_N", "99")
        with pytest.raises(ValueError, match="guard"):
            enumerate_family("ct", 8)  # hard ceiling still applies

    @pytest.mark.parametrize("config,n,message", [
        ("max_n_ct = 2\n", 3, "guard"),
        # A mistyped key is refused, not ignored with the guard left at 7.
        ("max_n_CT = 3\n", 5, "unknown key 'max_n_CT' in contracta.toml; accepted keys: "
         "max_n_t, max_n_ct, max_n_oct, max_n_orct"),
    ], ids=["lowered", "typo"])
    def test_config_guard(self, monkeypatch, tmp_path, config, n, message):
        (tmp_path / "contracta.toml").write_text(config)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match=message):
            enumerate_family("ct", n)

    def test_config_guard_leaves_other_families(self, monkeypatch, tmp_path):
        (tmp_path / "contracta.toml").write_text("max_n_ct = 2\n")
        monkeypatch.chdir(tmp_path)
        assert enumerate_family("oct", 3).size == 8


# A few maps of ct4 or ct5, as generators of a subsemigroup.
CT45_GENERATORS = st.sampled_from([4, 5]).flatmap(
    lambda n: st.lists(st.sampled_from(semigroups.family_words("ct", n).tolist()), min_size=1, max_size=3).map(
        lambda words: [make_map(n, w) for w in words]
    )
)

# Non-closed sets whose widest map has an in-set row, so a later generator
# row trips the closure check, with the ClosureError each raises.
NOT_CLOSED = {
    # The second generator, [1,2,1], trips; row by row, its own row holds
    # the first escape, in column [2,3,3].
    "identity-first": (
        [[1, 2, 3], [1, 2, 1], [2, 3, 3]],
        "product [1,2,1] * [2,3,3] = [2,3,2] escapes the element set",
    ),
    # The identity and the reversal have in-set rows; the third generator
    # trips, on the only escaping product.
    "third-generator": (
        [[1, 2, 3], [3, 2, 1], [1, 2, 1]],
        "product [1,2,1] * [3,2,1] = [3,2,3] escapes the element set",
    ),
}


def _record_direct_rows(monkeypatch):
    """Wrap the direct-product helper; returns the list of (rows, escaped,
    width) per call, where width is the size of the carrier coded against."""
    calls = []
    direct = semigroups._direct_rows

    def recorded(spread, right, codes, rows):
        idx, bad = direct(spread, right, codes, rows)
        calls.append((len(rows), bool(bad.any()), len(codes)))
        return idx, bad

    monkeypatch.setattr(semigroups, "_direct_rows", recorded)
    return calls


def _left_closure(table, gens):
    """Mask of every index reached from the generators by multiplying on the
    left by generators, through the product table."""
    reached = np.zeros(len(table), dtype=bool)
    reached[gens] = True
    frontier = gens
    while frontier.size:
        step = np.zeros(len(table), dtype=bool)
        step[table[np.ix_(gens, frontier)]] = True
        frontier = np.flatnonzero(step & ~reached)
        reached |= step
    return reached


# A few maps of ct4, ct5 or orct5, with their chain size.
FAMILY_GENERATORS = st.sampled_from([("ct", 4), ("ct", 5), ("orct", 5)]).flatmap(
    lambda fam_n: st.lists(st.sampled_from(semigroups.family_words(*fam_n).tolist()), min_size=1, max_size=4).map(
        lambda words: (fam_n, [make_map(fam_n[1], w) for w in words])
    )
)


def _compose_closure(gens):
    """Every product of the maps, grown by compose until nothing new appears."""
    closed, fresh = set(gens), set(gens)
    while fresh:
        products = {compose(a, b) for a in closed for b in fresh}
        products |= {compose(b, a) for a in closed for b in fresh}
        fresh = products - closed
        closed |= fresh
    return closed


@st.composite
def subsets(draw):
    """A sorted subset of ct4 or orct5 maps with its family and chain size: a
    few maps as drawn, their closure under compose, or that closure less the
    first map."""
    fam, n = draw(st.sampled_from([("ct", 4), ("orct", 5)]))
    words = draw(st.lists(st.sampled_from(semigroups.family_words(fam, n).tolist()), min_size=1, max_size=4))
    maps = [make_map(n, w) for w in words]
    shape = draw(st.sampled_from(["drawn", "closed", "closed-less-one"]))
    subset = set(maps) if shape == "drawn" else _compose_closure(maps)
    if shape == "closed-less-one":
        subset.discard(maps[0])
    assume(subset)
    return (fam, n), sorted(subset)


GENERATOR_FAMILIES = [(fam, n) for fam in ("ct", "oct", "orct") for n in range(1, 7)] + [
    ("t", n) for n in range(1, 6)
]


def _compose_table(s):
    """The product table of s, one compose call per entry."""
    return [[s.index_of(compose(a, b)) for b in s.elements] for a in s.elements]


class TestClosure:
    def test_non_closed_set_rejected(self):
        # A bare non-idempotent cannot be closed under composition.
        with pytest.raises(ClosureError):
            FiniteSemigroup(3, "custom", [[2, 3, 3]])

    def test_product_table_matches_composition(self, family):
        s = family("ct", 4)
        for i, a in enumerate(s.elements):
            for j, b in enumerate(s.elements):
                assert s.elements[s.product(i, j)] == compose(a, b)

    @pytest.mark.parametrize("fam,n", [("ct", 5), ("orct", 5), ("t", 3), ("t", 4)])
    def test_table_matches_compose(self, family, fam, n):
        assert family(fam, n).table().tolist() == _compose_table(family(fam, n))

    def test_table_matches_compose_on_regular_ct5(self, regular_base):
        s = regular_base("ct", 5)
        assert s.family == "custom"
        assert s.table().tolist() == _compose_table(s)

    @pytest.mark.parametrize("block_entries", [None, 1], ids=["default-blocks", "one-row-blocks"])
    def test_closure_error_names_first_escape_row_by_row(self, monkeypatch, block_entries):
        # Three products escape: [1,2,1]*[2,3,3], [2,3,3]*[1,2,1] and
        # [2,3,3]*[2,3,3].  The error names the first row by row, (0, 1),
        # also when the two rows are coded in separate blocks.
        if block_entries is not None:
            monkeypatch.setattr(semigroups, "_BLOCK_ENTRIES", block_entries)
        a, b = make_map(3, [1, 2, 1]), make_map(3, [2, 3, 3])
        with pytest.raises(
            ClosureError, match=re.escape("product [1,2,1] * [2,3,3] = [2,3,2] escapes the element set")
        ) as exc:
            FiniteSemigroup(3, "custom", [a.images, b.images])
        assert exc.value.pair == (a, b)

    @pytest.mark.parametrize("case", sorted(NOT_CLOSED))
    def test_closure_error_from_later_generator_row(self, monkeypatch, case):
        words, message = NOT_CLOSED[case]
        calls = _record_direct_rows(monkeypatch)
        with pytest.raises(ClosureError, match=re.escape(message)):
            FiniteSemigroup(3, "custom", words)
        assert not calls[0][1]  # the first generator row stays inside

    def test_closure_error_after_cayley_fill(self, monkeypatch, regular_base):
        # Reg(ct4) is closed; with one non-regular map added, the identity's
        # row is inside and its Cayley fill runs before the reversal's row
        # trips on the new map.  The error names the first escape row by row.
        calls = _record_direct_rows(monkeypatch)
        elements = [*regular_base("ct", 4).elements, make_map(4, [1, 2, 2, 3])]
        with pytest.raises(
            ClosureError, match=re.escape("product [1,2,2,3] * [2,3,4,3] = [2,3,3,4] escapes the element set")
        ):
            FiniteSemigroup(4, "custom", [m.images for m in elements])
        assert not calls[0][1]

    @settings(max_examples=40, deadline=None)
    @given(subsets())
    def test_closure_check_matches_compose(self, family, case):
        # The escapes a*b found with compose, row by row in sorted order.
        (fam, n), subset = case
        inside = set(subset)
        escapes = [(a, b) for a in subset for b in subset if compose(a, b) not in inside]
        s = family(fam, n)
        assert is_subsemigroup(s, subset) == (not escapes)
        if escapes:
            with pytest.raises(ClosureError) as exc:
                subsemigroup(s, subset)
            assert exc.value.pair == escapes[0]

    @pytest.mark.parametrize("carrier", ["height2-ct5", "idgen-ct5"])
    def test_cayley_fill_matches_compose(self, family, carrier):
        # Carriers that need many generator rows (30 and 14 of 125 and 152);
        # the height-2 ideal has no identity.
        ct5 = family("ct", 5)
        elements = {
            "height2-ct5": lambda: height_ideal(ct5, 2).elements,
            "idgen-ct5": lambda: generated_subsemigroup(ct5, idempotents(ct5)).elements,
        }[carrier]()
        s = FiniteSemigroup(5, "custom", [m.images for m in elements])
        assert s.table().tolist() == _compose_table(s)

    @settings(max_examples=30, deadline=None)
    @given(CT45_GENERATORS)
    def test_generated_table_matches_compose(self, family, gens):
        n = gens[0].n
        s = FiniteSemigroup(n, "custom", generated_subsemigroup(family("ct", n), gens).words)
        assert s.table().tolist() == _compose_table(s)

    def test_ct7_codes_few_rows(self, monkeypatch):
        # Only generator rows are coded and looked up; the rest are gathers.
        calls = _record_direct_rows(monkeypatch)
        s = enumerate_family("ct", 7)
        assert sum(rows for rows, *_ in calls) * s.size < 0.01 * s.size**2

    @pytest.mark.parametrize("fam,n", GENERATOR_FAMILIES)
    def test_generators_generate(self, family, table_of, fam, n):
        s = family(fam, n)
        assert _left_closure(table_of(s), s.generators()).all()

    def test_generators_of_unchecked_subsemigroup(self, family):
        # The height-2 ideal of ct5 needs 30 generator rows.
        s = FiniteSemigroup(5, "custom", [m.images for m in height_ideal(family("ct", 5), 2).elements])
        gens = s.generators()
        assert len(gens) == 30
        assert _left_closure(s.table(), gens).all()

    def test_chain_too_long_for_word_codes(self):
        # Base-16 codes of 16-letter words overflow int64; the build stops
        # before coding them instead of reporting a spurious escape.
        constants = [[c] * 16 for c in range(1, 17)]
        with pytest.raises(ValueError, match=r"n <= 15, got n=16") as exc:
            FiniteSemigroup(16, "custom", constants)
        assert not isinstance(exc.value, ClosureError)

    def test_fifteen_constant_maps_build(self):
        constants = [[c] * 15 for c in range(1, 16)]
        s = FiniteSemigroup(15, "custom", constants)
        assert s.table().tolist() == [list(range(15))] * 15

    def test_table_over_budget_raises(self, family, monkeypatch):
        # Construction checks closure by the left walk alone; the budget
        # applies whenever the table is read.
        s = family("ct", 3)
        monkeypatch.setattr(semigroups, "DEFAULT_TABLE_BUDGET", 100)
        checked = FiniteSemigroup(3, "ct", s.words)
        with pytest.raises(ValueError, match=r"17 elements needs 289 entries \(578 bytes\)"):
            checked.table()

    @pytest.mark.parametrize("carrier", ["ct4", "reg-orct4-p2"])
    @pytest.mark.parametrize("side", ["l", "r"])
    def test_product_rows_take_lists(self, family, regular_base, carrier, side):
        # A semigroup codes its rows and a quotient reads its table; both
        # take a list, as idempotent_indices returns, and an empty one.
        s = family("ct", 4) if carrier == "ct4" else rees_quotient(regular_base("orct", 4), 2)
        for rows in ([3, 0, 3, s.size - 1], []):
            got = s.product_rows(rows, side)
            assert got.shape == (len(rows), s.size)
            assert np.array_equal(got, s.product_rows(np.array(rows, dtype=np.intp), side))

    def test_ct7_table_is_int16(self, family, table_of):
        table = table_of(family("ct", 7))
        assert table.dtype == np.int16 and table.nbytes == 2 * 3387**2

    def test_budget_fits_int16(self):
        # Every table the budget admits indexes its elements in int16.
        assert isqrt(semigroups.DEFAULT_TABLE_BUDGET) <= np.iinfo(np.int16).max

    def test_subsemigroup_rejects_non_closed(self, family):
        s = family("ct", 3)
        with pytest.raises(ValueError, match="not closed"):
            subsemigroup(s, [make_map(3, [2, 3, 3])])

    def test_products_read_the_stored_words(self, family, table_of, monkeypatch):
        # Products are coded from the arrays kept at construction, so none of
        # them walks the element maps.
        class Unwalkable(tuple):
            def __iter__(self):
                raise AssertionError("a product walked the element maps")

        s = family("ct", 4)
        table, rows = table_of(s), [3, 0, 3, s.size - 1]
        monkeypatch.setattr(s, "elements", Unwalkable(s.elements))
        assert np.array_equal(s.product_rows(rows, "r"), table[rows])
        assert np.array_equal(s.product_rows(rows, "l"), table[:, rows].T)
        assert np.array_equal(s.squares(), table.diagonal())
        assert np.array_equal(s.cayley("r"), table[:, s.generators()])
        assert s.product(5, 7) == table[5, 7]


def _product_carrier(family, regular_base, carrier):
    return family("ct", 4) if carrier == "ct4" else rees_quotient(regular_base("orct", 4), 2)


def _compose_inverse_counts(s):
    """Per element a, the number of b with aba = a and bab = b, by compose."""
    return [
        sum(compose(compose(a, b), a) == a and compose(compose(b, a), b) == b for b in s.elements)
        for a in s.elements
    ]


class TestProducts:
    """``products(x, y)``, each carrier's one product primitive, against the
    reference table read with the same index arrays."""

    CASES = {
        "column-row": lambda a, b, n: (a[:, None], b[None, :]),
        "row-column": lambda a, b, n: (b[None, :], a[:, None]),
        "pairs": lambda a, b, n: (a, b[: len(a)]),
        "one-broadcast": lambda a, b, n: (a[:1], b),
        "empty-pairs": lambda a, b, n: (a[:0], b[:0]),
        "empty-block": lambda a, b, n: (a[:0, None], b[None, :]),
        "full-blocks": lambda a, b, n: (np.add.outer(a, b[:3]) % n, np.add.outer(b[:4], a[:3]) % n),
        "three-axes": lambda a, b, n: (a[:2, None, None], b[:6].reshape(1, 2, 3)),
        "every-row": lambda a, b, n: (a[:, None], np.arange(n)[None, :]),
        "reversed-by-every": lambda a, b, n: (np.arange(n)[::-1, None], np.arange(n)[None, :]),
    }

    @pytest.mark.parametrize("carrier", ["ct4", "reg-orct4-p2"])
    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("block_entries", [None, 5], ids=["default-blocks", "small-blocks"])
    def test_match_the_table(self, family, regular_base, table_of, monkeypatch, carrier, case, block_entries):
        s = _product_carrier(family, regular_base, carrier)
        table = table_of(s)
        if block_entries is not None:
            monkeypatch.setattr(semigroups, "_BLOCK_ENTRIES", block_entries)
        a, b = np.array([3, 0, 3, s.size - 1]), np.arange(s.size - 1, -1, -2)
        x, y = self.CASES[case](a, b, s.size)
        got, want = s.products(x, y), table[x, y]
        assert got.shape == want.shape and np.array_equal(got, want)
        if x.size and y.size:  # an empty nested list loses its shape
            assert np.array_equal(s.products(x.tolist(), y.tolist()), want)

    @pytest.mark.parametrize("carrier", ["ct4", "reg-orct4-p2"])
    @pytest.mark.parametrize(
        "x,y", [([[1], [2]], [1, 2]), ([1, 2], [[1], [2]]), (1, 2), (1, [2]), ([1], 2)],
        ids=["2d-1d", "1d-2d", "scalars", "scalar-1d", "1d-scalar"],
    )
    def test_ndim_mismatch_raises(self, family, regular_base, carrier, x, y):
        # Broadcasting a column against a 1-D array would pair the wrong axes.
        s = _product_carrier(family, regular_base, carrier)
        with pytest.raises(ValueError, match="index arrays of one ndim"):
            s.products(x, y)

    @pytest.mark.parametrize("carrier", ["reg-orct4", "ct3-identity"])
    def test_verify_inverse_reads_no_table(self, family, regular_base, no_semigroup_table, carrier):
        if carrier == "reg-orct4":
            s = regular_base("orct", 4)
        else:
            s = subsemigroup(family("ct", 3), [identity_map(3)])
        counts = semigroups._unique_inverse_counts(s)
        assert counts.tolist() == _compose_inverse_counts(s)
        report = verify_inverse(s)
        assert report.consistent and report.inverse == (carrier == "ct3-identity")
        assert report.unique_inverses == (counts == 1).all()


class TestWordInput:
    """``FiniteSemigroup`` takes image words and validates them before coding."""

    @pytest.mark.parametrize(
        "n,words,message",
        [
            # reshape(-1, 4) would read these as the one word [1, 2, 3, 4].
            (4, [[1, 2], [3, 4]], "words of length 4"),
            (3, [1, 2, 3], "words of length 3"),
            (3, [[1.0, 2.0, 3.0]], "integer words"),
            # Both words code to 2, so deduplication would drop one.
            (2, [[2, 1], [1, 3]], r"outside 1\.\.2"),
            (3, [[0, 1, 2]], r"outside 1\.\.3"),
            (3, [], "nonempty"),
            (3, np.empty((0, 3), dtype=np.int8), "nonempty"),
        ],
        ids=["short-words", "flat", "float", "above-n", "zero", "no-words", "empty-array"],
    )
    def test_rejected_before_coding(self, monkeypatch, n, words, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("words were coded before they were validated")

        monkeypatch.setattr(np, "unique", unreachable)
        with pytest.raises(ValueError, match=message) as exc:
            FiniteSemigroup(n, "custom", words)
        assert not isinstance(exc.value, ClosureError)

    def test_repeated_words_collapse(self):
        s = FiniteSemigroup(3, "custom", [[2, 2, 2], [1, 2, 3], [2, 2, 2], [1, 2, 3]])
        assert s.words.tolist() == [[1, 2, 3], [2, 2, 2]]
        assert s.elements == (identity_map(3), make_map(3, [2, 2, 2]))

    def test_elements_spelled_on_demand(self, family):
        s = family("ct", 4)
        maps = [make_map(4, word) for word in s.words.tolist()]
        assert len(s.elements) == len(s) == s.size == len(maps)
        assert all(s.elements[i] == maps[i] for i in range(s.size))
        assert s.elements[np.int64(3)] == maps[3] and s.elements[-1] == maps[-1]
        assert list(s.elements) == list(s) == maps
        assert s.elements[2:9:3] == tuple(maps[2:9:3]) and s.elements[::-1] == tuple(maps[::-1])
        assert s.elements == tuple(maps) and s.elements != tuple(maps[:-1])
        assert s.elements == FiniteSemigroup(4, "ct", s.words).elements
        with pytest.raises(IndexError):
            s.elements[s.size]
        with pytest.raises(TypeError):
            s.elements[1.0]

    def test_membership_by_code(self, family):
        s = family("ct", 4)
        for i, m in enumerate(s.elements):
            assert m in s and s.index_of(m) == i
        # Two non-contractions, maps on other chains whose base-n codes are
        # those of ct4 members, and objects that are no maps.
        outside = [make_map(4, [1, 3, 3, 3]), make_map(4, [1, 1, 1, 3]), make_map(3, [1, 2, 3])]
        outside += [make_map(5, [1] * 5), (1, 2, 3, 4), "[1,2,3,4]", None]
        # A code past the last element's.
        constant = FiniteSemigroup(3, "custom", [[1, 1, 1]])
        for c, m in [(s, m) for m in outside] + [(constant, make_map(3, [3, 3, 3]))]:
            assert m not in c and m not in c.elements
            with pytest.raises(ValueError, match="not an element of this carrier"):
                c.index_of(m)

    def test_words_are_read_only(self):
        words = semigroups.family_words("ct", 3)
        s = FiniteSemigroup(3, "ct", words)
        assert s.words.dtype == np.int8 and words.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            s.words[0, 0] = 2

    @pytest.mark.parametrize("fam", ["t", "ct", "oct", "orct"])
    def test_enumerated_words_are_the_family_words(self, family, fam):
        for n in range(1, 6):
            assert np.array_equal(family(fam, n).words, semigroups.family_words(fam, n))


class TestIdempotents:
    def test_remark_maps_present(self, family):
        e = set(idempotents(family("ct", 4)))
        assert make_map(4, [1, 2, 2, 2]) in e
        assert make_map(4, [3, 2, 3, 2]) in e

    def test_identity_idempotent_in_t(self, family):
        assert identity_map(3) in set(idempotents(family("t", 3)))

    def test_oct2_all_idempotent(self, family):
        assert len(idempotents(family("oct", 2))) == 3

    def test_counts(self, family):
        for n, want in CT_IDEMPOTENT_COUNTS.items():
            assert len(idempotents(family("ct", n))) == want


class TestRegularElements:
    def test_alpha_not_regular_in_ct6(self, family):
        assert make_map(6, [1, 2, 2, 3, 4, 3]) not in set(regular_elements(family("ct", 6)))

    def test_idempotents_regular(self, family):
        s = family("ct", 4)
        reg = set(regular_elements(s))
        assert set(idempotents(s)) <= reg

    def test_counts_and_independent_scan(self, family):
        for n, want in CT_REGULAR_COUNTS.items():
            assert len(regular_elements(family("ct", n))) == want
        # Independent nested-loop scan on CT_4.
        s = family("ct", 4)
        direct = {
            a
            for a in s.elements
            if any(compose(compose(a, b), a) == a for b in s.elements)
        }
        assert set(regular_elements(s)) == direct

    def test_ct8_count_past_the_guard(self):
        # The family guard stops CT_REGULAR_COUNTS at n = 7; the words of ct8
        # build a carrier directly, and its R-classes need no product table.
        s = FiniteSemigroup(8, "ct", semigroups.family_words("ct", 8))
        mask = semigroups._regular_mask(s)
        assert (s.size, int(mask.sum())) == (11814, 7316)
        assert mask.tolist() == [regular_char_ct(a) for a in s.elements]

    @pytest.mark.parametrize("fam,n", [("ct", 5), ("orct", 5), ("t", 4)])
    def test_single_element_scan_agrees(self, family, fam, n):
        # is_regular_in scans image words without a table; regular_elements
        # reads the product table.
        s, words = family(fam, n), semigroups.family_words(fam, n)
        reg = set(regular_elements(s))
        assert [is_regular_in(words, m) for m in s.elements] == [m in reg for m in s.elements]

    def test_single_element_scan_rejects_non_member(self):
        with pytest.raises(ValueError, match="not one of the words"):
            is_regular_in(semigroups.family_words("ct", 3), make_map(3, [3, 1, 3]))

    def test_single_element_scan_rejects_other_chain_size(self):
        with pytest.raises(ValueError, match="chain of size 4, the words on one of size 3"):
            is_regular_in(semigroups.family_words("ct", 3), make_map(4, [1, 2, 3, 4]))

    def test_regular_within_subset(self, family):
        s = family("ct", 4)
        # Within the two-element subsemigroup {identity, reversal} everything
        # is regular; the reversal squares to the identity.
        rev = make_map(4, [4, 3, 2, 1])
        sub = [identity_map(4), rev]
        assert set(regular_elements(subsemigroup(s, sub))) == set(sub)


class TestGenerated:
    def test_closure_is_idempotent_operation(self, family):
        s = family("ct", 4)
        gen = generated_subsemigroup(s, idempotents(s))
        again = generated_subsemigroup(gen, gen.elements)
        assert gen.elements == again.elements
        assert set(idempotents(s)) <= set(gen.elements)
        assert gen.size == 51

    def test_identity_alone(self, family):
        s = family("ct", 3)
        gen = generated_subsemigroup(s, [identity_map(3)])
        assert gen.elements == (identity_map(3),)

    @pytest.mark.parametrize("fam,n", [("ct", 4), ("ct", 5), ("orct", 5)])
    def test_idempotent_closure_matches_compose(self, family, fam, n):
        s = family(fam, n)
        ids = idempotents(s)
        assert set(generated_subsemigroup(s, ids).elements) == _compose_closure(ids)

    @settings(max_examples=40, deadline=None)
    @given(FAMILY_GENERATORS)
    def test_closure_matches_compose(self, family, drawn):
        (fam, n), gens = drawn
        assert set(generated_subsemigroup(family(fam, n), gens).elements) == _compose_closure(gens)

    def test_idempotent_generated_sizes(self, family):
        for n, want in CT_IDEMPOTENT_GENERATED_SIZES.items():
            s = family("ct", n)
            assert generated_subsemigroup(s, idempotents(s)).size == want

    def test_ct8_idempotent_products_witnesses(self, monkeypatch):
        # Past the n <= 7 guard: the check runs on ct8 built directly.
        monkeypatch.setattr(
            checks, "enumerate_family", lambda fam, n: FiniteSemigroup(n, fam, semigroups.family_words(fam, n))
        )
        pair, generated = checks.check_idempotent_products("ct", 8)
        assert pair.counterexample == {
            "maps": ["[1,2,3,4,3,2,1,1]", "[6,5,5,4,5,6,5,4]"],
            "product": "[6,5,5,4,5,5,6,6]",
        }
        assert generated.detail["generated_size"] == 7704
        assert generated.counterexample["map"] == "[1,1,1,1,1,2,2,3]"

    def test_ct8_closure_codes_generator_rows_only(self, monkeypatch):
        # The closure codes the rows of the generators it takes, each
        # against s, and no product through s.products; the construction of
        # the result codes its own generators' rows.
        s = FiniteSemigroup(8, "ct", semigroups.family_words("ct", 8))
        ids = idempotents(s)
        calls = _record_direct_rows(monkeypatch)

        def uncoded(x, y):
            raise AssertionError("the closure coded products through s.products")

        monkeypatch.setattr(s, "products", uncoded)
        gen = generated_subsemigroup(s, ids)
        coded = sum(rows for rows, _, width in calls if width == s.size)
        assert coded * s.size <= 2 * gen.size * len(gen.generators())

    def test_ct8_closure_memory(self):
        s = FiniteSemigroup(8, "ct", semigroups.family_words("ct", 8))
        ids = idempotents(s)
        tracemalloc.start()
        try:
            generated_subsemigroup(s, ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_no_generators_rejected(self, family):
        with pytest.raises(ValueError, match="at least one generator"):
            generated_subsemigroup(family("ct", 3), [])

    def test_orct_idempotents_already_closed(self, family):
        s = family("orct", 4)
        e = idempotents(s)
        gen = generated_subsemigroup(s, e)
        assert set(gen.elements) == set(e)


class TestPredicates:
    def test_reg_orct4_orthodox(self, family, regular_base):
        s = family("orct", 4)
        reg = regular_elements(s)
        assert is_orthodox(subsemigroup(s, reg))

    def test_reg_ct4_regular_subsemigroup(self, family):
        s = family("ct", 4)
        reg = regular_elements(s)
        assert is_subsemigroup(s, reg)
        assert set(regular_elements(subsemigroup(s, reg))) == set(reg)

    def test_reg_ct4_not_orthodox(self, family):
        # [1,2,2,2] * [3,2,3,2] = [3,2,2,2] is not idempotent.
        s = family("ct", 4)
        assert not is_orthodox(subsemigroup(s, regular_elements(s)))

    def test_trivial_group_inverse(self, family):
        s = subsemigroup(family("ct", 3), [identity_map(3)])
        assert is_inverse(s)
        report = verify_inverse(s)
        assert report.inverse and report.consistent

    def test_reg_orct4_not_inverse(self, family):
        # Constant maps are idempotents that do not commute.
        s = family("orct", 4)
        reg = subsemigroup(s, regular_elements(s))
        assert not idempotents_commute(reg)
        assert not is_inverse(reg)
        report = verify_inverse(reg)
        assert not report.r_unipotent
        assert not report.inverse and report.consistent

    def test_closure_required(self, family):
        # [2,3,3] squares to [3,3,3]: the escaping pair is the map with itself.
        s, a = family("ct", 3), make_map(3, [2, 3, 3])
        with pytest.raises(ClosureError, match="not closed under composition") as exc:
            subsemigroup(s, [a])
        assert exc.value.pair == (a, a)
        assert not is_subsemigroup(s, [a])

    def test_empty_subset_rejected(self, family):
        with pytest.raises(ValueError, match="nonempty"):
            is_subsemigroup(family("ct", 3), [])

    def test_ct8_past_the_table_budget(self, no_semigroup_table):
        # ct8 has 11,814 elements: a table would need 139.6M entries, and
        # enumerate_family refuses it.  Built directly, the idempotent-pair
        # search of the idempotent-products check reads rows coded from the
        # words.
        words = semigroups.family_words("ct", 8)
        s = FiniteSemigroup(8, "ct", words)
        ids = idempotents(s)
        assert len(ids) == 1042
        e, f, ef = semigroups._first_idempotent_pair(s, ~semigroups._regular_mask(s))
        assert (e.images, f.images) == ((1, 2, 3, 4, 3, 2, 1, 1), (6, 5, 5, 4, 5, 6, 5, 4))
        assert ef == compose(e, f) == make_map(8, [6, 5, 5, 4, 5, 5, 6, 6])
        assert not is_regular_in(words, ef)


@pytest.fixture(scope="module")
def ct8_direct():
    """ct8 built directly from its words, past the table budget."""
    return FiniteSemigroup(8, "ct", semigroups.family_words("ct", 8))


@pytest.fixture(scope="module")
def ct9_direct():
    """ct9 built directly from its words, 40,503 elements."""
    return FiniteSemigroup(9, "ct", semigroups.family_words("ct", 9))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestIdempotentPairsPastTheGuards:
    """The idempotent-pair readers code only the |E| x |E| products they
    read: at ct8, 1,042 idempotents, 1.1M products against 12.3M in the
    idempotents' whole rows (26.8 MB of tracemalloc peak when coded)."""

    def test_ct8_first_pair_peak(self, ct8_direct):
        pair, peak = _traced_peak(semigroups._first_idempotent_pair, ct8_direct)
        assert [m.images for m in pair] == [
            (1, 2, 1, 1, 1, 1, 1, 1), (3, 4, 3, 4, 3, 3, 3, 3), (3, 4, 3, 3, 3, 3, 3, 3),
        ]
        assert peak < 10e6

    def test_ct8_commute_peak(self, ct8_direct):
        commute, peak = _traced_peak(idempotents_commute, ct8_direct)
        assert not commute
        assert peak < 10e6

    def test_ct9_first_irregular_product(self, ct9_direct, no_semigroup_table):
        # The pinned pair of the idempotent-products check one size past
        # ct8, read without a table or whole rows.
        s = ct9_direct
        e, f, ef = semigroups._first_idempotent_pair(s, ~semigroups._regular_mask(s))
        assert (e.images, f.images) == ((1, 2, 3, 4, 3, 2, 1, 1, 1), (6, 5, 5, 4, 5, 6, 5, 4, 4))
        assert ef == compose(e, f) == make_map(9, [6, 5, 5, 4, 5, 5, 6, 6, 6])
        assert not is_regular_in(s.words, ef)

    def test_ct9_first_pair_peak(self, ct9_direct):
        # 2,741 idempotents: coding all 7.5M of their products held 67.6 MB
        # of tracemalloc peak.  The search codes a block of rows at a time
        # and stops at the first block with a hit.
        pair, peak = _traced_peak(semigroups._first_idempotent_pair, ct9_direct)
        assert [m.images for m in pair] == [
            (1, 2, 1, 1, 1, 1, 1, 1, 1), (3, 4, 3, 4, 3, 3, 3, 3, 3), (3, 4, 3, 3, 3, 3, 3, 3, 3),
        ]
        assert peak < 10e6

    def test_ct9_commute_peak(self, ct9_direct):
        # Coding all 7.5M products of the 2,741 idempotents and comparing the
        # matrix with its transpose held 37.6 MB of tracemalloc peak; the
        # first block of rows already has a pair that does not commute.
        commute, peak = _traced_peak(idempotents_commute, ct9_direct)
        assert not commute
        assert peak < 10e6


def _commute_reference(s, table):
    ids = semigroups.idempotent_indices(s)
    ef = table[np.ix_(ids, ids)]
    return bool((ef == ef.T).all())


class TestIdempotentsCommute:
    """The block-by-block scan gives the verdict of the whole |E| x |E|
    matrix compared with its transpose."""

    @pytest.mark.parametrize("block_entries", [None, 40], ids=["default-blocks", "small-blocks"])
    @pytest.mark.parametrize("fam,n", [(f, n) for f in ("ct", "oct", "orct") for n in range(1, 6)])
    def test_matches_the_whole_matrix(self, family, table_of, monkeypatch, fam, n, block_entries):
        s = family(fam, n)
        want = _commute_reference(s, table_of(s))
        if block_entries is not None:
            monkeypatch.setattr(semigroups, "_BLOCK_ENTRIES", block_entries)
        assert idempotents_commute(s) == want

    def test_rees_quotient_scans_every_block(self, regular_base, table_of, monkeypatch):
        # The height-2 Rees factor of Reg(ORCT_5) is inverse, with 5
        # idempotents: no block differs, so the scan codes e*f and f*e for
        # every row of idempotents, two rows per block.
        q = rees_quotient(regular_base("orct", 5), 2)
        assert _commute_reference(q, table_of(q))
        ids = semigroups.idempotent_indices(q)
        monkeypatch.setattr(semigroups, "_BLOCK_ENTRIES", 2 * len(ids))
        calls, products = [], q.products
        monkeypatch.setattr(q, "products", lambda x, y: calls.append((x, y)) or products(x, y))
        assert idempotents_commute(q)
        pairs = [(x, y) for x, y in calls if np.ndim(x) == 2]
        assert len(pairs) == 2 * -(-len(ids) // 2)
        assert np.concatenate([x.ravel() for x, _ in pairs[0::2]]).tolist() == ids.tolist()
        assert np.concatenate([y.ravel() for _, y in pairs[1::2]]).tolist() == ids.tolist()


class TestHallEquivalence:
    """Three conditions that hold or fail together in any semigroup:
    products of idempotents all regular; the regular elements forming a
    regular subsemigroup; the idempotent-generated subsemigroup regular."""

    @pytest.mark.parametrize(
        "fam,n",
        [(f, n) for f in ("ct", "oct", "orct") for n in (2, 3, 4, 5)]
        + [("t", n) for n in (2, 3, 4)],
    )
    def test_three_way_agreement(self, family, fam, n):
        s = family(fam, n)
        ids = idempotents(s)
        reg = set(regular_elements(s))
        cond_products = all(compose(e, f) in reg for e in ids for f in ids)
        cond_reg_subsemigroup = is_subsemigroup(s, reg) and set(
            regular_elements(subsemigroup(s, reg))
        ) == reg
        gen = generated_subsemigroup(s, ids)
        cond_generated = len(regular_elements(gen)) == gen.size
        assert cond_products == cond_reg_subsemigroup == cond_generated


class TestRegularOrctIdempotentShape:
    def test_canonical_form(self, family):
        """Non-constant idempotents among the regular order-compatible
        contractions: initial interval ending at its image, singleton interior
        blocks, final interval starting at its image, all stationary."""
        for n in range(2, 7):
            s = family("orct", n)
            reg = set(regular_elements(s))
            for e in idempotents(s):
                if e not in reg:
                    continue
                k = kernel(e)
                blocks, imgs = k.blocks, k.block_images
                p = len(blocks)
                for b, x in zip(blocks, imgs):
                    assert x in b  # stationary
                if p == 1:
                    continue
                first, last = blocks[0], blocks[-1]
                assert first == tuple(range(1, max(first) + 1))
                assert imgs[0] == max(first)
                assert last == tuple(range(min(last), n + 1))
                assert imgs[-1] == min(last)
                for i in range(1, p - 1):
                    assert blocks[i] == (imgs[i],)


def _least_mutually_reachable(size, edges):
    """Per node, the least node it reaches and is reached from: Warshall's
    transitive closure over a boolean matrix."""
    reach = np.eye(size, dtype=bool)
    for a, b in edges:
        reach[a, b] = True
    for k in range(size):
        reach |= reach[:, k:k + 1] & reach[k:k + 1, :]
    return (reach & reach.T).argmax(axis=1)


@st.composite
def digraphs(draw):
    """(size, edges, renumbering) with 1-40 nodes and up to 3 edges a node."""
    size = draw(st.integers(1, 40))
    node = st.integers(0, size - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * size))
    return size, edges, np.array(draw(st.permutations(range(size))), dtype=np.int32)


def _edge_arrays(edges):
    ends = np.array(edges, dtype=np.int32).reshape(-1, 2)
    return ends[:, 0], ends[:, 1]


class TestStrongComponents:
    @settings(max_examples=200, deadline=None)
    @given(digraphs())
    def test_matches_transitive_closure(self, graph):
        size, edges, perm = graph
        src, dst = _edge_arrays(edges)
        comp = semigroups._strong_components(src, dst, size)
        assert comp.tolist() == _least_mutually_reachable(size, edges).tolist()
        # Renumbered, the graph has the same partition, labelled by least node.
        renumbered = semigroups._strong_components(perm[src], perm[dst], size)
        assert renumbered.tolist() == _least_mutually_reachable(size, [(perm[a], perm[b]) for a, b in edges]).tolist()
        pairs = set(zip(comp.tolist(), renumbered[perm].tolist()))
        assert len(pairs) == len(set(comp.tolist())) == len(set(renumbered.tolist()))

    @pytest.mark.parametrize("step", [1, -1])
    def test_long_cycle(self, step):
        # 3,387 nodes, as many as ct7 has elements, in either direction.
        nodes = np.arange(3387, dtype=np.int32)
        comp = semigroups._strong_components(nodes, np.roll(nodes, -step), len(nodes))
        assert comp.tolist() == [0] * len(nodes)

    def test_long_chain(self, monkeypatch):
        # Along a chain v -> v+1 the least node reaching v is 0, found by
        # pointer jumps in a few steps rather than one step a node; along
        # v+1 -> v it is v, and no two nodes are joined.
        nodes = np.arange(3387, dtype=np.int32)
        up, down = nodes[:-1], nodes[1:]
        steps, array_equal = [], np.array_equal
        monkeypatch.setattr(np, "array_equal", lambda a, b: steps.append(1) or array_equal(a, b))
        assert semigroups._least_reaching(up, down, len(nodes)).tolist() == [0] * len(nodes)
        assert len(steps) <= 32
        monkeypatch.undo()
        assert semigroups._least_reaching(down, up, len(nodes)).tolist() == nodes.tolist()
        assert semigroups._strong_components(down, up, len(nodes)).tolist() == nodes.tolist()

    def test_no_edges(self):
        none = np.empty(0, dtype=np.int32)
        assert semigroups._strong_components(none, none, 5).tolist() == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("quotient", [False, True])
    def test_rank_never_rises_along_a_product(self, family, regular_base, table_of, quotient):
        # cayley_components searches only the edges within one rank, which
        # leaves every strong component whole only if rank never rises.
        s = rees_quotient(regular_base("ct", 5), 3) if quotient else family("ct", 5)
        table = table_of(s)
        assert (s.rank[table] <= np.minimum.outer(s.rank, s.rank)).all()
        if not quotient:
            assert s.rank.tolist() == [len(set(m.images)) for m in s.elements]


def _rank_numbered_components(s, sides):
    """Strong components over every Cayley edge, rank-lowering ones too, with
    the nodes numbered in rank order and each component labelled by its
    least member; the reference for ``cayley_components``."""
    successors = np.hstack([s.cayley(side) for side in sides])
    order = np.argsort(s.rank, kind="stable")
    node = np.empty(s.size, dtype=np.int32)
    node[order] = np.arange(s.size, dtype=np.int32)
    src, dst = np.repeat(node, successors.shape[1]), node[successors].ravel()
    moved = src != dst
    return order[semigroups._strong_components(src[moved], dst[moved], s.size)[node]]


CAYLEY_REFERENCE_CARRIERS = (
    [(fam, n) for fam in ("ct", "oct", "orct") for n in range(1, 7)] + [("reg-ct", 5), ("rees-orct", 5)]
)


class TestCayleyComponents:
    @pytest.mark.parametrize(
        "fam,n", CAYLEY_REFERENCE_CARRIERS, ids=[f"{f}{n}" for f, n in CAYLEY_REFERENCE_CARRIERS]
    )
    def test_match_every_edge_reference(self, family, regular_base, fam, n):
        if fam == "reg-ct":
            s = regular_base("ct", n)
        elif fam == "rees-orct":
            s = rees_quotient(regular_base("orct", n), 3)
        else:
            s = family(fam, n)
        for sides in ("l", "r", "lr"):
            got = semigroups.cayley_components(s, sides)
            assert np.array_equal(got, _rank_numbered_components(s, sides)), sides
