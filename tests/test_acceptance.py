"""Acceptance suite.

One test per criterion; each prints a single ``PASS criterion-N`` line with
its runtime (run with ``pytest tests/test_acceptance.py -v -s``).  Witness
values are pinned; comparisons are exact, tolerances are the stated runtime
budgets.
"""

import time
from itertools import combinations_with_replacement

from contracta import (
    abundance_witness,
    compose,
    generated_subsemigroup,
    green_oracle,
    has_convex_transversal,
    idempotents,
    image,
    is_idempotent,
    is_l_unipotent,
    is_left_abundant,
    is_orthodox,
    is_r_unipotent,
    is_right_abundant,
    kernel,
    l_char,
    make_map,
    r_char,
    rees_quotient,
    regular_char_ct,
    regular_char_oct,
    regular_char_orct,
    regular_elements,
    run_check,
    starred_char,
    starred_partition,
    subsemigroup,
    unipotence_witness,
    verify_inverse,
)

ALPHA = make_map(6, [1, 2, 2, 3, 4, 3])
BETA = make_map(6, [4, 3, 2, 2, 1, 2])
DELTA = make_map(6, [5, 4, 3, 2, 1, 2])

RIGHT_ABUNDANCE_WITNESS_N4 = {
    make_map(4, [1, 2, 2, 3]),
    make_map(4, [3, 2, 2, 1]),
    make_map(4, [2, 3, 3, 4]),
    make_map(4, [4, 3, 3, 2]),
}


class _Clock:
    def __init__(self, budget_s):
        self.budget = budget_s
        self.start = time.perf_counter()

    def done(self, label, detail):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, f"{label} exceeded its {self.budget}s budget ({elapsed:.1f}s)"
        print(f"PASS {label}: {detail} [{elapsed:.1f}s]")


def test_criterion_1_regularity_equivalence_ct(family):
    clock = _Clock(60)
    scanned = 0
    for n in range(2, 6):
        s = family("ct", n)
        oracle = set(regular_elements(s))
        for m in s.elements:
            assert regular_char_ct(m) == (m in oracle), m
            scanned += 1
    clock.done(
        "criterion-1 (regularity equivalence, full contractions)",
        f"oracle == convex-transversal characterization on {scanned} maps, n=2..5, 0 disagreements",
    )


def test_criterion_2_regularity_equivalence_orct_oct(family):
    clock = _Clock(60)
    scanned = 0
    for n in range(2, 7):
        s = family("orct", n)
        oracle = set(regular_elements(s))
        for m in s.elements:
            assert regular_char_orct(m) == (m in oracle), m
            scanned += 1
        s = family("oct", n)
        oracle = set(regular_elements(s))
        for m in s.elements:
            assert regular_char_oct(m) == (m in oracle), m
            scanned += 1
    clock.done(
        "criterion-2 (regularity equivalence, order-compatible contractions)",
        f"oracle == arithmetic form on {scanned} maps, n=2..6, 0 disagreements",
    )


def test_criterion_3_green_l_r_agreement(family):
    clock = _Clock(600)
    pairs = 0
    for n in range(2, 6):
        s = family("ct", n)
        l_part = green_oracle(s, "l")
        r_part = green_oracle(s, "r")
        for i, j in combinations_with_replacement(range(s.size), 2):
            a, b = s.elements[i], s.elements[j]
            assert l_char(a, b) == l_part.same_class(i, j), (a, b)
            assert r_char(a, b) == r_part.same_class(i, j), (a, b)
            pairs += 1
    # The motivating pair on the 6-chain, with its explicit witness.
    assert compose(DELTA, BETA) == ALPHA
    assert compose(DELTA, ALPHA) == BETA
    assert l_char(ALPHA, BETA)
    s6 = family("ct", 6)
    assert green_oracle(s6, "l").same_class(s6.index_of(ALPHA), s6.index_of(BETA))
    clock.done(
        "criterion-3 (Green's L/R characterizations)",
        f"characterized == ideal oracle on {pairs} pairs, n=2..5, plus the 6-chain witness pair",
    )


def test_criterion_4_regression_l_related_without_convex_transversals():
    # Regression guard: a characterization that requires the kernels
    # themselves to own a convex transversal would miss this L-related pair.
    clock = _Clock(60)
    assert not has_convex_transversal(kernel(ALPHA))
    assert not has_convex_transversal(kernel(BETA))
    assert l_char(ALPHA, BETA)
    assert compose(DELTA, BETA) == ALPHA and compose(DELTA, ALPHA) == BETA
    clock.done(
        "criterion-4 (regression: L-related pair without convex transversals)",
        "both kernels lack convex transversals yet the maps are L-related",
    )


def test_criterion_5_starred_relations(family):
    clock = _Clock(300)
    pairs = 0
    for fam in ("ct", "oct"):
        for n in (2, 3, 4):
            s = family(fam, n)
            parts = {k: starred_partition(s, k) for k in ("lstar", "rstar", "hstar", "dstar")}
            for i, j in combinations_with_replacement(range(s.size), 2):
                a, b = s.elements[i], s.elements[j]
                for kind, part in parts.items():
                    assert starred_char(a, b, kind) == part.same_class(i, j), (a, b, kind)
                pairs += 1
    clock.done(
        "criterion-5 (starred relations)",
        f"definitional oracles == characterizations on {pairs} pairs, both families, n=2..4",
    )


def test_criterion_6_abundance(family):
    clock = _Clock(120)
    for fam in ("ct", "oct", "orct"):
        for n in range(2, 6):
            assert is_left_abundant(family(fam, n)), (fam, n)
        for n in range(1, 4):
            assert is_right_abundant(family(fam, n)), (fam, n)
    witness = abundance_witness(family("ct", 4), "right")
    assert set(witness) == RIGHT_ABUNDANCE_WITNESS_N4
    assert not any(is_idempotent(m) for m in witness)
    assert not is_right_abundant(family("orct", 4))
    assert not is_right_abundant(family("oct", 4))
    clock.done(
        "criterion-6 (abundance)",
        "left abundance on all three families n=2..5; right abundance holds n<=3 and "
        "fails at n=4 on the pinned four-map class",
    )


def test_criterion_7_idempotent_structure(family):
    clock = _Clock(120)
    # idempotents of the order-compatible family are closed under product
    for n in range(2, 7):
        ids = idempotents(family("orct", n))
        for e in ids:
            for f in ids:
                assert is_idempotent(compose(e, f)), (e, f)
    # the regular part is orthodox, left-unipotent, and not right-unipotent
    for n in range(2, 7):
        s = family("orct", n)
        reg = subsemigroup(s, regular_elements(s))
        assert is_orthodox(reg), n
        assert is_l_unipotent(reg), n
        assert not is_r_unipotent(reg), n
        witness_class = unipotence_witness(reg, "r")
        constants = {make_map(n, [x] * n) for x in range(1, n + 1)}
        assert constants <= set(witness_class)
    # products of idempotents among full contractions are regular
    for n in range(2, 6):
        s = family("ct", n)
        reg = set(regular_elements(s))
        ids = idempotents(s)
        for e in ids:
            for f in ids:
                assert compose(e, f) in reg, (e, f)
        gen = generated_subsemigroup(s, ids)
        assert len(regular_elements(gen)) == gen.size, n
    # the pinned non-idempotent product of idempotents on the 4-chain
    a, b = make_map(4, [1, 2, 2, 2]), make_map(4, [3, 2, 3, 2])
    assert is_idempotent(a) and is_idempotent(b)
    product = compose(a, b)
    assert product == make_map(4, [3, 2, 2, 2])
    assert not is_idempotent(product)
    clock.done(
        "criterion-7 (idempotent structure)",
        "idempotent closure (order-compatible, n<=6), orthodoxy/unipotence of the regular part, "
        "regular idempotent products (full contractions, n<=5), pinned [3,2,2,2] witness",
    )


def test_criterion_7_boundary_at_ct6():
    # Both idempotent-product claims for full contractions stop holding at
    # chain size 6; the first witness is pinned so the boundary replays.
    clock = _Clock(60)
    reports = run_check("idempotent-products", 6, "ct")
    assert [r.verdict for r in reports] == ["fail", "fail"]
    assert reports[0].counterexample == {
        "maps": ["[1,2,3,4,3,2]", "[6,5,5,4,5,6]"],
        "product": "[6,5,5,4,5,5]",
    }
    assert reports[1].counterexample["map"] == "[1,2,2,3,2,2]"
    assert reports[1].detail["generated_size"] == 523
    e, f = make_map(6, [1, 2, 3, 4, 3, 2]), make_map(6, [6, 5, 5, 4, 5, 6])
    assert is_idempotent(e) and is_idempotent(f)
    assert not regular_char_ct(compose(e, f))
    clock.done(
        "criterion-7 boundary (ct6)",
        "products of idempotents and the idempotent-generated subsemigroup both lose regularity at n=6",
    )


def test_criterion_8_rees_quotients(regular_base):
    clock = _Clock(120)
    layers = 0
    for fam in ("orct", "oct"):
        for n in range(2, 7):
            base = regular_base(fam, n)
            for p in range(2, n + 1):
                report = verify_inverse(rees_quotient(base, p))
                assert report.inverse, (fam, n, p)
                assert report.consistent, (fam, n, p)
                layers += 1
    clock.done(
        "criterion-8 (Rees quotients)",
        f"inverse verdict true and three criteria consistent on {layers} quotients, "
        "both bases, 2<=p<=n<=6",
    )


def test_criterion_9_structural_sanity(family):
    clock = _Clock(600)
    # images of full contractions are contiguous
    for n in range(1, 7):
        for m in family("ct", n):
            img = image(m)
            assert img[-1] - img[0] + 1 == len(img), m
    # d equals j, and the refinement chain holds, in every enumerated family
    for fam in ("t", "ct", "oct", "orct"):
        for n in range(2, 6):
            s = family(fam, n)
            parts = {k: green_oracle(s, k) for k in ("l", "r", "h", "d", "j")}
            assert parts["h"].refines(parts["l"]), (fam, n)
            assert parts["h"].refines(parts["r"]), (fam, n)
            assert parts["l"].refines(parts["d"]), (fam, n)
            assert parts["r"].refines(parts["d"]), (fam, n)
            assert parts["d"].refines(parts["j"]), (fam, n)
            assert sorted(map(sorted, parts["d"].classes)) == sorted(
                map(sorted, parts["j"].classes)
            ), (fam, n)
    clock.done(
        "criterion-9 (structural sanity)",
        "image convexity (n<=6), d == j and relation refinement chains in all four families (n<=5)",
    )
