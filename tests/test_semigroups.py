"""Family enumeration, closure, and the algebraic predicates."""

import re
from itertools import product

import pytest

from contracta import (
    FamilyTag,
    FiniteSemigroup,
    compose,
    enumerate_family,
    generated_subsemigroup,
    idempotents,
    idempotents_commute,
    identity_map,
    is_inverse,
    is_orthodox,
    is_subsemigroup,
    kernel,
    make_map,
    regular_elements,
    subsemigroup,
)
import contracta.semigroups as semigroups
from contracta.semigroups import ClosureError, is_regular_in

# Computed once by the brute-force filters below and pinned.
CT_SIZES = {1: 1, 2: 4, 3: 17, 4: 68, 5: 259, 6: 950, 7: 3387}
OCT_SIZES = {1: 1, 2: 3, 3: 8, 4: 20, 5: 48, 6: 112, 7: 256}
ORCT_SIZES = {1: 1, 2: 4, 3: 13, 4: 36, 5: 91, 6: 218, 7: 505}
CT_IDEMPOTENT_COUNTS = {2: 3, 3: 8, 4: 21, 5: 56}
CT_REGULAR_COUNTS = {2: 4, 3: 17, 4: 64, 5: 221}


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
        assert tuple(semigroups.family_words(fam, n)) == all_pairs_members(n)[fam]

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

    def test_config_guard(self, monkeypatch, tmp_path):
        (tmp_path / "contracta.toml").write_text("max_n_ct = 2\n")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="guard"):
            enumerate_family("ct", 3)
        assert enumerate_family("oct", 3).size == 8  # other families untouched


def _compose_table(s):
    """The product table of s, one compose call per entry."""
    return [[s.index_of(compose(a, b)) for b in s.elements] for a in s.elements]


class TestClosure:
    def test_non_closed_set_rejected(self):
        # A bare non-idempotent cannot be closed under composition.
        with pytest.raises(ClosureError):
            FiniteSemigroup(3, "custom", [make_map(3, [2, 3, 3])])

    def test_product_table_matches_composition(self, family):
        s = family("ct", 4)
        for i, a in enumerate(s.elements):
            for j, b in enumerate(s.elements):
                assert s.elements[s.product(i, j)] == compose(a, b)

    @pytest.mark.parametrize("fam,n", [("ct", 5), ("orct", 5), ("t", 3)])
    def test_table_matches_compose(self, family, fam, n):
        assert family(fam, n).table().tolist() == _compose_table(family(fam, n))

    def test_table_matches_compose_on_regular_ct5(self, regular_base):
        s = regular_base("ct", 5)
        assert s.family == "custom"
        assert s.table().tolist() == _compose_table(s)

    @pytest.mark.parametrize("block_entries", [None, 1], ids=["default-blocks", "one-row-blocks"])
    def test_closure_error_names_first_escape_by_column(self, monkeypatch, block_entries):
        # Three products escape: [1,2,1]*[2,3,3], [2,3,3]*[1,2,1] and
        # [2,3,3]*[2,3,3].  Row by row the first is (0, 1); the error names
        # the first escape of the lowest column, (1, 0), also when the two
        # rows are built in separate blocks.
        if block_entries is not None:
            monkeypatch.setattr(semigroups, "_TABLE_BLOCK_ENTRIES", block_entries)
        with pytest.raises(
            ClosureError, match=re.escape("product [2,3,3] * [1,2,1] = [2,1,1] escapes the element set")
        ):
            FiniteSemigroup(3, "custom", [make_map(3, [1, 2, 1]), make_map(3, [2, 3, 3])])

    def test_table_over_budget_raises(self, family, monkeypatch):
        s = family("ct", 3)
        monkeypatch.setattr(semigroups, "DEFAULT_TABLE_BUDGET", 100)
        with pytest.raises(ValueError, match=r"17 elements needs 289 entries \(1,156 bytes\)"):
            FiniteSemigroup(3, "ct", s.elements)
        fresh = FiniteSemigroup(3, "ct", s.elements, check_closed=False)
        with pytest.raises(ValueError, match="over the budget of 100 entries"):
            fresh.table()

    def test_subsemigroup_rejects_non_closed(self, family):
        s = family("ct", 3)
        with pytest.raises(ValueError, match="not closed"):
            subsemigroup(s, [make_map(3, [2, 3, 3])])


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

    @pytest.mark.parametrize("fam,n", [("ct", 5), ("orct", 5), ("t", 4)])
    def test_single_element_scan_agrees(self, family, fam, n):
        # is_regular_in scans image words without a table; regular_elements
        # reads the product table.
        s = family(fam, n)
        reg = set(regular_elements(s))
        assert [is_regular_in(s, m) for m in s.elements] == [m in reg for m in s.elements]

    def test_regular_within_subset(self, family):
        s = family("ct", 4)
        # Within the two-element subsemigroup {identity, reversal} everything
        # is regular; the reversal squares to the identity.
        rev = make_map(4, [4, 3, 2, 1])
        sub = [identity_map(4), rev]
        assert set(regular_elements(s, subset=sub)) == set(sub)


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

    def test_orct_idempotents_already_closed(self, family):
        s = family("orct", 4)
        e = idempotents(s)
        gen = generated_subsemigroup(s, e)
        assert set(gen.elements) == set(e)


class TestPredicates:
    def test_reg_orct4_orthodox(self, family, regular_base):
        s = family("orct", 4)
        reg = regular_elements(s)
        assert is_orthodox(s, reg)

    def test_reg_ct4_regular_subsemigroup(self, family):
        s = family("ct", 4)
        reg = regular_elements(s)
        assert is_subsemigroup(s, reg)
        assert set(regular_elements(s, subset=reg)) == set(reg)

    def test_reg_ct4_not_orthodox(self, family):
        # [1,2,2,2] * [3,2,3,2] = [3,2,2,2] is not idempotent.
        s = family("ct", 4)
        assert not is_orthodox(s, regular_elements(s))

    def test_trivial_group_inverse(self, family):
        s = family("ct", 3)
        assert is_inverse(s, [identity_map(3)])

    def test_reg_orct4_not_inverse(self, family):
        # Constant maps are idempotents that do not commute.
        s = family("orct", 4)
        reg = regular_elements(s)
        assert not idempotents_commute(s, reg)
        assert not is_inverse(s, reg)

    def test_closure_required(self, family):
        s = family("ct", 3)
        with pytest.raises(ValueError, match="not closed"):
            is_orthodox(s, [make_map(3, [2, 3, 3])])

    def test_empty_subset_rejected(self, family):
        with pytest.raises(ValueError, match="nonempty"):
            is_subsemigroup(family("ct", 3), [])


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
            regular_elements(s, subset=reg)
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
