"""Height ideals, the collapsing quotient, and its inverse-semigroup report."""

import numpy as np
import pytest

import contracta.rees as rees
import contracta.semigroups as semigroups
from contracta import (
    ReesQuotient,
    compose,
    height,
    height_ideal,
    idempotents,
    identity_map,
    is_idempotent,
    is_inverse,
    kernel,
    make_map,
    rees_quotient,
    regular_elements,
    subsemigroup,
    unipotence_witness,
    verify_inverse,
)
from contracta.semigroups import FiniteSemigroup, idempotent_indices


class TestHeightIdeal:
    def test_k41_is_the_constants(self, regular_base):
        base = regular_base("orct", 4)
        ideal = height_ideal(base, 1)
        assert set(ideal.elements) == {make_map(4, [x] * 4) for x in range(1, 5)}

    def test_knn_is_everything(self, regular_base):
        base = regular_base("orct", 4)
        assert set(height_ideal(base, 4).elements) == set(base.elements)

    def test_k42_size(self, regular_base):
        assert len(height_ideal(regular_base("orct", 4), 2).elements) == 22

    def test_out_of_range(self, regular_base):
        base = regular_base("orct", 4)
        with pytest.raises(ValueError, match="out of range"):
            height_ideal(base, 0)
        with pytest.raises(ValueError, match="out of range"):
            height_ideal(base, 5)

    @pytest.mark.parametrize("side", ["l", "r"])
    def test_product_leaving_the_slice_rejected(self, regular_base, monkeypatch, side):
        # One corrupted product, a*x (side "r") or x*a (side "l") for the
        # first map a of the slice and the first x of the base, lands on the
        # identity, above the slice.
        base = regular_base("orct", 4)
        coded, top = FiniteSemigroup.product_rows, base.index_of(identity_map(4))

        def corrupted(s, rows, row_side):
            out = coded(s, rows, row_side)
            if row_side == side:
                out[0, 0] = top
            return out

        monkeypatch.setattr(FiniteSemigroup, "product_rows", corrupted)
        with pytest.raises(RuntimeError, match="not a two-sided ideal"):
            height_ideal(base, 2)

    def test_two_sided_ideal_property(self, regular_base):
        for fam in ("orct", "oct"):
            for n in (2, 3, 4, 5, 6):
                base = regular_base(fam, n)
                for p in range(1, n + 1):
                    chosen = set(height_ideal(base, p).elements)
                    for a in chosen:
                        for s in base.elements:
                            assert compose(a, s) in chosen
                            assert compose(s, a) in chosen


class TestQuotientConstruction:
    def test_carrier_is_exact_height_layer_plus_zero(self, regular_base):
        base = regular_base("orct", 4)
        q = rees_quotient(base, 2)
        assert q.label(0) == "0" and q.elements[0] is None
        maps = q.elements[1:]
        assert all(height(m) == 2 for m in maps)
        assert len(maps) == sum(1 for m in base.elements if height(m) == 2)

    def test_zero_absorbs(self, regular_base):
        q = rees_quotient(regular_base("orct", 4), 2)
        for i in range(q.size):
            assert q.product(0, i) == 0
            assert q.product(i, 0) == 0

    def test_products_collapse_exactly_when_height_drops(self, regular_base):
        q = rees_quotient(regular_base("orct", 4), 2)
        for i in range(1, q.size):
            for j in range(1, q.size):
                ab = compose(q.elements[i], q.elements[j])
                if height(ab) == 2:
                    assert q.elements[q.product(i, j)] == ab
                else:
                    assert q.product(i, j) == 0

    def test_top_layer_contains_identity_kernel_elements(self, regular_base):
        q = rees_quotient(regular_base("orct", 4), 4)
        ident = identity_map(4)
        assert q.elements[q.index_of(ident)] == ident
        # full-height products never drop for the identity
        for i in range(1, q.size):
            m = q.elements[i]
            assert q.elements[q.product(q.index_of(ident), i)] == m

    def test_p_out_of_range(self, regular_base):
        base = regular_base("orct", 4)
        with pytest.raises(ValueError, match="out of range"):
            rees_quotient(base, 1)
        with pytest.raises(ValueError, match="out of range"):
            rees_quotient(base, 5)

    def test_layer_over_budget_fails_before_any_product(self, regular_base, monkeypatch):
        # The height-3 layer of Reg(ORCT_5) has 18 maps: with the zero, its
        # table needs 19^2 = 361 entries, one over this budget.
        base = regular_base("orct", 5)
        monkeypatch.setattr(semigroups, "DEFAULT_TABLE_BUDGET", 360)

        def uncoded(x, y):
            raise AssertionError("a product was coded")

        monkeypatch.setattr(base, "products", uncoded)
        with pytest.raises(ValueError, match=r"19 elements needs 361 entries \(722 bytes\)"):
            rees_quotient(base, 3)

    def test_irregular_base_rejected_without_flag(self, family):
        s = family("ct", 4)
        whole = subsemigroup(s, s.elements)  # CT_4 has non-regular elements
        with pytest.raises(ValueError, match="non-regular"):
            rees_quotient(whole, 2)

    def test_corrupted_table_fails_associativity(self, regular_base, monkeypatch):
        base = regular_base("orct", 4)
        build = ReesQuotient._build_table

        def corrupted(q):
            t = build(q)
            t[1, 1] = 2 if t[1, 1] != 2 else 3
            return t

        monkeypatch.setattr(ReesQuotient, "_build_table", corrupted)
        with pytest.raises(RuntimeError, match="not associative"):
            rees_quotient(base, 2)

    def test_table_matches_products(self, regular_base):
        q = rees_quotient(regular_base("orct", 4), 3)
        t = q.table()
        assert t.shape == (q.size, q.size)
        assert [[q.product(i, j) for j in range(q.size)] for i in range(q.size)] == t.tolist()

    def test_associativity_holds(self, regular_base):
        # construction asserts associativity internally; reaching here means
        # the exhaustive triple scan passed
        q = rees_quotient(regular_base("orct", 5), 3)
        assert q.size == 19


class TestInverseVerification:
    @pytest.mark.parametrize("fam", ["orct", "oct"])
    def test_inverse_for_all_layers_up_to_n5(self, regular_base, fam):
        for n in range(2, 6):
            base = regular_base(fam, n)
            for p in range(2, n + 1):
                report = verify_inverse(rees_quotient(base, p))
                assert report.inverse, (fam, n, p)
                assert report.consistent, (fam, n, p)

    def test_single_map_plus_zero(self, regular_base):
        # The top layer over the order-preserving base is just the identity.
        q = rees_quotient(regular_base("oct", 3), 3)
        assert q.size == 2
        report = verify_inverse(q)
        assert report.inverse and report.consistent

    def test_report_fields_for_a_known_inverse_quotient(self, regular_base):
        report = verify_inverse(rees_quotient(regular_base("orct", 4), 2))
        assert report.all_regular
        assert report.idempotents_commute
        assert report.unique_inverses
        assert report.orthodox
        assert report.l_unipotent and report.r_unipotent
        assert report.as_dict()["inverse"] is True


    def test_disagreeing_criteria_raise(self, regular_base, monkeypatch):
        # Two inverses apiece: the unique-inverse route turns against the others.
        monkeypatch.setattr(rees, "_unique_inverse_counts", lambda table: np.full(len(table), 2))
        q = rees_quotient(regular_base("orct", 4), 2)
        report = verify_inverse(q)
        assert report.inverse and not report.unique_inverses
        assert not report.consistent
        with pytest.raises(RuntimeError, match="criteria disagree"):
            is_inverse(q)


class TestQuotientIdempotents:
    def test_idempotents_are_zero_plus_height_p_base_idempotents(self, regular_base):
        base = regular_base("orct", 5)
        for p in range(2, 6):
            q = rees_quotient(base, p)
            got = {q.label(i) for i in idempotent_indices(q)}
            expected = {"0"} | {
                str(m) for m in base.elements if is_idempotent(m) and height(m) == p
            }
            assert got == expected

    def test_criteria_read_the_quotient(self, regular_base):
        # The zero, None, is an element like any other: every element is
        # regular, the idempotents are the table's diagonal, and each L- and
        # R-class holds one idempotent.
        base = regular_base("orct", 5)
        for p in range(2, 6):
            q = rees_quotient(base, p)
            assert regular_elements(q) == q.elements
            diagonal = q.table().diagonal()
            assert idempotents(q) == tuple(m for i, m in enumerate(q.elements) if diagonal[i] == i)
            assert unipotence_witness(q, "l") is None and unipotence_witness(q, "r") is None

    def test_canonical_shape_and_unique_in_r_class(self, regular_base):
        from contracta import green_oracle

        base = regular_base("orct", 5)
        q = rees_quotient(base, 3)
        ids = set(idempotent_indices(q))
        r_classes = green_oracle(q, "r").classes
        for c in r_classes:
            if q.zero_index in c:
                continue
            hits = ids.intersection(c)
            assert len(hits) == 1
            e = q.elements[next(iter(hits))]
            k = kernel(e)
            first = k.blocks[0]
            assert first == tuple(range(1, max(first) + 1))
            assert k.block_images[0] == max(first)
            # the idempotent's kernel matches every class member's kernel
            for i in c:
                assert kernel(q.elements[i]).blocks == k.blocks
