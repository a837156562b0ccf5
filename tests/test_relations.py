"""Green's relation oracles, characterized predicates, abundance, unipotence."""

import tracemalloc
from itertools import combinations_with_replacement
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import contracta.relations as rel
from contracta import (
    abundance_witness,
    convex_refinement_transversals,
    d_char,
    enumerate_family,
    generated_subsemigroup,
    green_oracle,
    height,
    height_ideal,
    identity_map,
    idempotents,
    image,
    is_idempotent,
    is_contraction,
    is_l_unipotent,
    is_left_abundant,
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
)
from contracta.checks import _scan_pairs
from contracta.partitions import convex_windows, kernel_word, refinement_windows
from contracta.relations import RelationPartition, char_partition
from contracta.semigroups import (
    FiniteSemigroup,
    _WordMaps,
    _regular_mask,
    family_words,
    regular_subsemigroup,
    row_blocks,
)

ALPHA = make_map(6, [1, 2, 2, 3, 4, 3])
BETA = make_map(6, [4, 3, 2, 2, 1, 2])

# The four-map class with a shared kernel {1},{2,3},{4} and no idempotent.
KERNEL_CLASS_N4 = [
    make_map(4, [1, 2, 2, 3]),
    make_map(4, [3, 2, 2, 1]),
    make_map(4, [2, 3, 3, 4]),
    make_map(4, [4, 3, 3, 2]),
]

# Pinned from the ideal-equality oracle on CT_4.
CT4_CLASS_COUNTS = {"l": 12, "r": 14, "h": 36, "d": 5, "j": 5}


# -- the principal-ideal route, as the reference for the Cayley-graph oracles --


def _product_rows(table, side, elements):
    """Row blocks of S^1 products: row k holds x*a (side "l") or a*x (side
    "r") for every x in S, then a itself, where a = elements[k]."""
    size = len(table)
    for block in row_blocks(elements, size + 1):
        rows = np.empty((len(block), size + 1), dtype=np.int32)
        rows[:, :size] = table.take(block, axis=1).T if side == "l" else table[block, :]
        rows[:, size] = block
        yield rows


def _members(rows, width):
    """[k, v] is set exactly when value v occurs in rows[k]."""
    member = np.zeros((len(rows), width), dtype=bool)
    member[np.arange(len(rows))[:, None], rows] = True
    return member


def _image_keys(table, side):
    """Each element's principal ideal S^1 a (side "l") or a S^1 as packed bits."""
    blocks = _product_rows(table, side, np.arange(len(table)))
    return np.concatenate([np.packbits(_members(rows, len(table)), axis=1) for rows in blocks])


def _ideal_labels(table, side):
    """L (side "l") or R labels: equal exactly when the principal ideals are."""
    return rel._labels(key.tobytes() for key in _image_keys(table, side))


def _matrix_product_j(table):
    """J labels from one boolean matrix product.

    S^1 a S^1 is the union of the right ideals b S^1 over b in S^1 a.  A
    right ideal is a union of R-classes and depends only on b's R-class, and
    S^1 a depends only on a's L-class.  So the two-sided ideal of each
    L-class, as a set of R-classes, is the R-classes that S^1 a meets times
    the R-classes inside each b S^1, read from the class representatives.
    """
    llab, rlab = _ideal_labels(table, "l"), _ideal_labels(table, "r")

    def meets(side, labels):
        # [c, k]: the products on ``side`` of class c's least member meet R-class k
        blocks = _product_rows(table, side, rel._least_members(labels))
        return np.concatenate([_members(rlab[rows], int(rlab.max()) + 1) for rows in blocks])

    ideals = meets("l", llab) @ meets("r", rlab)
    return rel._labels(row.tobytes() for row in ideals)[llab]


def _regular_mask_by_table(table):
    """Per element a, whether a*b*a = a for some b: a scan of the whole table."""
    mask = []
    for rows in row_blocks(np.arange(len(table)), len(table)):
        mask.append((table[table[rows], rows[:, None]] == rows[:, None]).any(axis=1))
    return np.concatenate(mask)


# ct, oct and orct at n = 1..7, t at n = 1..5, the regular bases of orct4..7
# and every one of their Rees quotients.
CAYLEY_CARRIERS = (
    [(fam, n, None) for fam in ("ct", "oct", "orct") for n in range(1, 8)]
    + [("t", n, None) for n in range(1, 6)]
    + [("reg-orct", n, None) for n in range(4, 8)]
    + [("reg-orct", n, p) for n in range(4, 8) for p in range(2, n + 1)]
)


class TestGreenOracle:
    def test_reflexive(self, family):
        s = family("ct", 3)
        part = green_oracle(s, "l")
        for i in range(s.size):
            assert part.same_class(i, i)

    def test_ct4_class_counts(self, family):
        s = family("ct", 4)
        for kind, want in CT4_CLASS_COUNTS.items():
            assert green_oracle(s, kind).class_count == want

    def test_example_pair_l_related_in_ct6(self, family):
        s = family("ct", 6)
        part = green_oracle(s, "l")
        assert part.same_class(s.index_of(ALPHA), s.index_of(BETA))

    @pytest.mark.parametrize("carrier", ["ct4", "t3", "orct4", "reg-ct5", "idgen-ct6"])
    def test_j_matches_two_sided_ideals(self, family, regular_base, table_of, carrier):
        s = {
            "ct4": lambda: family("ct", 4),
            "t3": lambda: family("t", 3),
            "orct4": lambda: family("orct", 4),
            "reg-ct5": lambda: regular_base("ct", 5),
            "idgen-ct6": lambda: generated_subsemigroup(family("ct", 6), idempotents(family("ct", 6))),
        }[carrier]()
        assert s.size == {"reg-ct5": 221, "idgen-ct6": 523}.get(carrier, s.size)
        # S^1 a S^1 straight from the table with an identity adjoined at index size.
        m = s.size
        table = np.empty((m + 1, m + 1), dtype=np.int64)
        table[:m, :m] = reference = table_of(s)
        table[m, :] = table[:, m] = np.arange(m + 1)
        ideals = []
        for a in range(m):
            member = np.zeros(m + 1, dtype=bool)
            member[table[table[:, a], :]] = True
            ideals.append(member.tobytes())
        assert green_oracle(s, "j").labels.tolist() == list(kernel_word(ideals))
        assert _matrix_product_j(reference).tolist() == list(kernel_word(ideals))

    @pytest.mark.parametrize("fam,n", [("ct", 5), ("t", 4)])
    @pytest.mark.parametrize("side", ["l", "r"])
    def test_ideal_keys_match_unique_reference(self, family, table_of, fam, n, side):
        # L and R label each element by the image of its row of S^1 products.
        s = family(fam, n)
        table = table_of(s)
        keys = _image_keys(table, side)
        assert len(keys) == s.size
        ideals = []
        for a, key in enumerate(keys):
            products = table[:, a] if side == "l" else table[a, :]
            ideals.append(np.unique(np.append(products, a)))
            assert np.array_equal(np.flatnonzero(np.unpackbits(key)), ideals[-1])
        got = rel._product_labels(s, side)
        assert got.dtype == np.int32
        assert np.array_equal(got, rel._labels(ideal.tobytes() for ideal in ideals))

    @pytest.mark.parametrize(
        "fam,n,p", CAYLEY_CARRIERS,
        ids=[f"{fam}{n}" + (f"-p{p}" if p else "") for fam, n, p in CAYLEY_CARRIERS],
    )
    def test_cayley_components_match_ideal_route(self, family, regular_base, table_of, fam, n, p):
        s = _carrier(family, regular_base, fam, n, p)
        # A quotient's Cayley graphs run over every index.
        gens, table = np.arange(s.size) if p else s.generators(), table_of(s)
        assert np.array_equal(s.cayley("l"), table[gens].T)
        assert np.array_equal(s.cayley("r"), table[:, gens])
        for side in ("l", "r"):
            assert np.array_equal(green_oracle(s, side).labels, _ideal_labels(table, side)), side
        assert np.array_equal(green_oracle(s, "j").labels, _matrix_product_j(table))

    def test_refinement_chain(self, family):
        s = family("ct", 4)
        parts = {k: green_oracle(s, k) for k in ("l", "r", "h", "d", "j")}
        assert parts["h"].refines(parts["l"])
        assert parts["h"].refines(parts["r"])
        assert parts["l"].refines(parts["d"])
        assert parts["r"].refines(parts["d"])
        assert parts["d"].refines(parts["j"])

    def test_unknown_kind(self, family):
        with pytest.raises(ValueError, match="unknown"):
            green_oracle(family("ct", 2), "x")

    def test_r_builds_no_left_ideal_keys(self):
        s = enumerate_family("ct", 5)
        green_oracle(s, "r")
        assert set(s._relation_memo) == {"r"}

    def test_memo_holds_only_label_arrays(self):
        s = enumerate_family("ct", 5)
        for kind in rel.GREEN_KINDS:
            green_oracle(s, kind)
        for kind in rel.STARRED_KINDS:
            starred_partition(s, kind)
        assert set(s._relation_memo) == set(rel.GREEN_KINDS + rel.STARRED_KINDS)
        for labels in s._relation_memo.values():
            assert isinstance(labels, np.ndarray)
            assert labels.shape == (s.size,) and labels.dtype.kind in "iu"


def _closure_reference(size, labelings):
    """Classes of the join by breadth-first search over shared classes."""
    members = {}
    for t, labels in enumerate(labelings):
        for i, c in enumerate(labels):
            members.setdefault((t, c), []).append(i)
    component = [None] * size
    for start in range(size):
        if component[start] is not None:
            continue
        component[start] = start
        queue = [start]
        while queue:
            i = queue.pop()
            for t, labels in enumerate(labelings):
                for j in members[(t, labels[i])]:
                    if component[j] is None:
                        component[j] = start
                        queue.append(j)
    return component


class TestLabels:
    def test_partition_from_unordered_labels(self, family):
        s = family("ct", 2)
        part = RelationPartition(s, "x", [7, 3, 7, 5], "oracle")
        assert part.labels.tolist() == [0, 1, 0, 2]
        assert part.classes == (frozenset({0, 2}), frozenset({1}), frozenset({3}))
        assert part.class_count == 3
        assert part.class_index_of(3) == 2
        assert part.same_class(0, 2) is True
        assert part.same_class(0, 1) is False
        coarser = RelationPartition(s, "y", [1, 0, 1, 0], "oracle")
        assert part.refines(coarser)
        assert not coarser.refines(part)
        assert part.refines(part)

    def test_refines_rejects_other_carriers(self, family):
        # Three elements each, so the labels alone would compare.
        consts3 = subsemigroup(family("ct", 3), [make_map(3, [c] * 3) for c in (1, 2, 3)])
        pairs = [(family("oct", 2), consts3), (family("ct", 3), family("ct", 4))]
        for s, t in pairs:
            with pytest.raises(ValueError, match="different carriers"):
                green_oracle(s, "r").refines(green_oracle(t, "r"))

    @pytest.mark.parametrize("labels", [[0, 1, 2], [0, 1, 2, 3, 4], [0.0, 1.0, 0.0, 1.0]])
    def test_partition_rejects_bad_labels(self, family, labels):
        with pytest.raises(ValueError, match="4 integers"):
            RelationPartition(family("ct", 2), "x", labels, "oracle")

    def test_join_of_path_pairs(self):
        # {2k, 2k+1} and {2k-1, 2k} chain every element into one component
        # whose diameter is the size.
        size = 3387
        i = np.arange(size)
        pairs = ((i // 2).astype(np.int32), ((i + 1) // 2).astype(np.int32))
        joined = rel._join(*pairs)
        assert joined.tolist() == [0] * size
        assert joined.tolist() == _closure_reference(size, [p.tolist() for p in pairs])

    def test_join_of_shuffled_path(self):
        size = 3387
        perm = np.random.default_rng(7).permutation(size)
        i = np.arange(size)
        first, second = np.empty(size, np.int32), np.empty(size, np.int32)
        first[perm], second[perm] = i // 2, (i + 1) // 2
        assert rel._join(first, second).tolist() == [0] * size

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40).flatmap(
        lambda size: st.lists(st.lists(st.integers(0, size), min_size=size, max_size=size), min_size=1, max_size=3)
    ))
    def test_join_matches_closure(self, labelings):
        size = len(labelings[0])
        arrays = [np.array(labels, dtype=np.int32) for labels in labelings]
        assert rel._join(*arrays).tolist() == _closure_reference(size, labelings)


class TestRChar:
    def test_shared_kernel_class(self):
        for a, b in combinations_with_replacement(KERNEL_CLASS_N4, 2):
            assert r_char(a, b)

    def test_example_pair_not_r_related(self):
        assert not r_char(ALPHA, BETA)

    def test_reflexive(self):
        assert r_char(ALPHA, ALPHA)

    def test_rejects_non_contraction(self):
        with pytest.raises(ValueError, match="not a contraction"):
            r_char(make_map(3, [3, 1, 3]), identity_map(3))


class TestLChar:
    def test_example_pair(self):
        assert l_char(ALPHA, BETA)

    def test_second_example_pair(self, family):
        a = make_map(6, [4, 4, 3, 3, 2, 2])
        b = make_map(6, [4, 4, 4, 3, 3, 2])
        assert l_char(a, b)
        # spot-check against the ideal oracle on the 6-chain
        s = family("ct", 6)
        part = green_oracle(s, "l")
        assert part.same_class(s.index_of(a), s.index_of(b))

    def test_different_heights(self):
        assert not l_char(make_map(4, [1, 2, 2, 3]), make_map(4, [1, 2, 2, 2]))

    def test_agrees_with_oracle_exhaustively(self, family):
        for n in (2, 3, 4):
            s = family("ct", n)
            part = green_oracle(s, "l")
            for i, j in combinations_with_replacement(range(s.size), 2):
                assert part.same_class(i, j) == l_char(s.elements[i], s.elements[j])


class TestDChar:
    def test_example_pair(self):
        assert d_char(ALPHA, BETA)

    def test_reflexive(self):
        assert d_char(identity_map(4), identity_map(4))

    def test_pattern_match_without_block_shape_match(self, family):
        # Same heights and matching grouping patterns even though the kernels
        # {1,2}|{3}|{4} and {1,3}|{2}|{4} have different block shapes.
        a = make_map(4, [1, 1, 2, 3])
        b = make_map(4, [3, 2, 3, 4])
        assert d_char(a, b)
        s = family("ct", 4)
        assert green_oracle(s, "d").same_class(s.index_of(a), s.index_of(b))

    def test_full_agreement_with_oracle_on_ct4(self, family):
        s = family("ct", 4)
        part = green_oracle(s, "d")
        for i, j in combinations_with_replacement(range(s.size), 2):
            assert part.same_class(i, j) == d_char(s.elements[i], s.elements[j])


def _reference_kernel_patterns(a):
    """The d patterns by their definition: for each admissible convex
    refinement transversal T of the kernel, "which kernel block holds t_i",
    renumbered by first occurrence."""
    k = kernel(a)
    block_of = {x: i for i, blk in enumerate(k.blocks) for x in blk}
    bare = k.without_images()
    return frozenset(
        kernel_word(tuple(block_of[t] for t in T)) for T in convex_refinement_transversals(bare)
    )


def _windows(kernel):
    """``refinement_windows`` of one kernel word, as (lo, p) pairs."""
    lo, p, [ok] = refinement_windows([kernel])
    return list(zip(lo[ok].tolist(), p[ok].tolist()))


def _reflection_closed_probes(kind, a):
    """The l, h and d keys of ``a`` as first characterized: every collapse
    profile together with its reversal, alone (l), beside the kernel word
    (h), or renumbered beside the height (d)."""
    word = kernel_word(a.images)
    profiles = {a.images[lo - 1 : lo - 1 + p] for lo, p in _windows(word)}
    profiles |= {t[::-1] for t in profiles}
    if kind == "l":
        return profiles
    if kind == "h":
        return {(word, t) for t in profiles}
    return {(height(a), kernel_word(t)) for t in profiles}


KEYED_KINDS_ALL = ("l", "r", "h", "d") + rel.STARRED_KINDS

# The lesser of a key and its reflection.
_CANONICAL = {
    "l": lambda t: min(t, t[::-1]),
    "h": lambda wt: (wt[0], min(wt[1], wt[1][::-1])),
    "d": lambda hq: (hq[0], min(hq[1], kernel_word(hq[1][::-1]))),
}


def _reference_probes(kind, word):
    """The keys of the map with image word ``word``, one map at a time, as
    the characterized route first computed them: r and rstar the kernel
    word, lstar the image, hstar both, dstar the height, and l, h and d one
    canonical key per refinement window, the lesser of the profile and its
    reversal, alone (l), beside the kernel word (h), or renumbered beside
    the height (d)."""
    if kind not in rel.STARRED_KINDS and not is_contraction(make_map(len(word), word)):
        raise ValueError(f"[{','.join(map(str, word))}] is not a contraction")
    points = tuple(sorted(set(word)))
    if kind == "lstar":
        return {points}
    if kind == "dstar":
        return {len(points)}
    kernel = kernel_word(word)
    if kind in ("r", "rstar"):
        return {kernel}
    if kind == "hstar":
        return {(points, kernel)}
    profiles = [word[lo - 1 : lo - 1 + p] for lo, p in _windows(kernel)]
    if kind == "d":
        return {(len(points), min(kernel_word(t), kernel_word(t[::-1]))) for t in profiles}
    keys = {min(t, t[::-1]) for t in profiles}
    return keys if kind == "l" else {(kernel, t) for t in keys}


def _holder_sets(elements, probes):
    """The element-probe relation up to the naming of probes: the sorted
    holder sets, one per probe."""
    holders = {}
    for e, p in zip(elements, probes):
        holders.setdefault(p, set()).add(int(e))
    return sorted(sorted(h) for h in holders.values())


def _key_holder_sets(keys):
    """``_holder_sets`` of one set of keys per element."""
    return _holder_sets(*zip(*[(i, k) for i, ks in enumerate(keys) for k in ks]))


def _char_rows(s, kind):
    """A characterized relation on a carrier as reference rows: ``rows(i)``
    marks the holders of i's probes, read from ``rel._probe_edges``."""
    elements, probes = rel._probe_edges(s.words, kind)

    def rows(i):
        row = np.zeros(s.size, dtype=bool)
        row[elements[np.isin(probes, probes[elements == i])]] = True
        return row

    return rows


def _assert_route_matches_reference(words, kinds=KEYED_KINDS_ALL):
    words = np.asarray(words)
    for kind in kinds:
        reference = [_reference_probes(kind, tuple(w)) for w in words.tolist()]
        got = _holder_sets(*rel._probe_edges(words, kind))
        assert got == _key_holder_sets(reference), kind


def _walk_word(n, start, steps):
    """A contraction word on 1..n: adjacent steps in {-1, 0, 1}, clipped to the chain."""
    word = [start]
    for step in steps:
        word.append(min(n, max(1, word[-1] + step)))
    return tuple(word)


CONTRACTION_WORDS = st.integers(8, 10).flatmap(
    lambda n: st.lists(
        st.builds(
            _walk_word, st.just(n), st.integers(1, n),
            st.lists(st.sampled_from((-1, 0, 1)), min_size=n - 1, max_size=n - 1),
        ),
        min_size=1, max_size=12,
    )
)


class TestProbeRoute:
    """The array route keys every element as the per-word reference does:
    each probe of one has the holders of a probe of the other."""

    @pytest.mark.parametrize("fam", ["ct", "oct", "orct"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_reference(self, family, fam, n):
        _assert_route_matches_reference(family(fam, n).words)

    @settings(max_examples=30, deadline=None)
    @given(CONTRACTION_WORDS)
    def test_matches_reference_on_drawn_words_past_the_guards(self, words):
        _assert_route_matches_reference(sorted(set(words)))

    def test_matches_reference_on_15_points(self):
        # The widest chain whose keys fit int64 codes.
        words = [
            tuple(range(1, 16)), tuple(range(15, 0, -1)), (8,) * 15,
            (1, 2, 3, 2, 1, 2, 3, 4, 5, 6, 7, 6, 5, 4, 3),
            (1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8),
            (15, 15, 14, 13, 13, 12, 11, 10, 10, 9, 8, 7, 7, 6, 5),
        ]
        _assert_route_matches_reference(words)

    @pytest.mark.parametrize("kind,n", [("l", 17), ("d", 16), ("lstar", 66), ("hstar", 66), ("dstar", 66)])
    def test_past_15_points_raises(self, kind, n):
        a, b = make_map(n, [n - 1] * n), make_map(n, [n] * n)
        with pytest.raises(ValueError, match=f"n <= 15, got n={n}"):
            _scalar(kind)(a, b)

    def test_pairs_are_distinct_in_element_order(self, family):
        # [1,2,1]'s two windows of two points both key (1, 2): one pair is kept.
        assert [a.tolist() for a in rel._probe_edges(np.array([[1, 2, 1]]), "l")] == [[0, 0], [0, 1]]
        for fam in ("ct", "orct"):
            for kind in KEYED_KINDS_ALL:
                elements, probes = rel._probe_edges(family(fam, 5).words, kind)
                pairs = elements * (int(probes.max()) + 1) + probes
                assert (np.diff(pairs) > 0).all(), (fam, kind)


class TestDKeys:
    @pytest.mark.parametrize("n", [5, 6])
    def test_match_kernel_pattern_reference(self, family, n):
        # d probes renumber the collapse profiles instead of the kernel blocks
        # of each transversal; blocks and their images are in bijection.
        s = family("ct", n)
        for a in s.elements:
            patterns = {(height(a), q) for q in _reference_kernel_patterns(a)}
            assert _reference_probes("d", a.images) == {_CANONICAL["d"](p) for p in patterns}, a
        patterns = [
            {_CANONICAL["d"]((height(a), q)) for q in _reference_kernel_patterns(a)} for a in s.elements
        ]
        assert _holder_sets(*rel._probe_edges(s.words, "d")) == _key_holder_sets(patterns)


class TestProbes:
    def test_one_key_per_reflection_pair_on_ct5(self, family):
        # Each window keys the lesser of its profile and the reversal, so no
        # key is kept beside its reflection.
        s = family("ct", 5)
        for kind, canonical in _CANONICAL.items():
            keys = [{canonical(p) for p in _reflection_closed_probes(kind, a)} for a in s.elements]
            for a, k in zip(s.elements, keys):
                assert _reference_probes(kind, a.images) == k, (kind, a)
            assert _holder_sets(*rel._probe_edges(s.words, kind)) == _key_holder_sets(keys), kind

    @pytest.mark.parametrize("fam,n", [("ct", 5), ("oct", 6), ("orct", 5)])
    def test_rows_match_reflection_closed_reference(self, family, fam, n):
        # A key of a reflection is the reflection of a key, so two maps share
        # a canonical key exactly when their reflection-closed keys meet.
        s = family(fam, n)
        for kind in _CANONICAL:
            closed = [_reflection_closed_probes(kind, a) for a in s.elements]
            rows = _char_rows(s, kind)
            for i, keys in enumerate(closed):
                assert rows(i).tolist() == [not keys.isdisjoint(other) for other in closed], (kind, i)


class TestStarredOracles:
    def test_equal_images_lstar_in_ct3(self, family):
        s = family("ct", 3)
        a, b = make_map(3, [1, 2, 2]), make_map(3, [2, 1, 1])
        assert image(a) == image(b)
        assert starred_partition(s, "lstar").same_class(s.index_of(a), s.index_of(b))

    def test_different_kernels_not_rstar(self, family):
        s = family("ct", 3)
        a, b = make_map(3, [1, 2, 2]), make_map(3, [1, 1, 2])
        assert not starred_partition(s, "rstar").same_class(s.index_of(a), s.index_of(b))

    def test_starred_refinement_chain(self, family):
        s = family("ct", 4)
        parts = {k: starred_partition(s, k) for k in ("lstar", "rstar", "hstar", "dstar")}
        assert parts["hstar"].refines(parts["lstar"])
        assert parts["hstar"].refines(parts["rstar"])
        assert parts["lstar"].refines(parts["dstar"])
        assert parts["rstar"].refines(parts["dstar"])


def _canon_fingerprint_labels(table, side):
    """Reference starred labels: each row of S^1 products renumbered by kernel_word."""
    rows = []
    for a in range(len(table)):
        row = (table[a, :] if side == "l" else table[:, a]).tolist()
        rows.append(kernel_word(row + [a]))
    return rel._labels(rows)


# The starred kind whose fingerprints are the kernels of the rows a*x (side
# "l" of the reference) or x*a (side "r").
STARRED_OF_SIDE = {"l": "lstar", "r": "rstar"}


# Carriers of both row sources, as _carrier arguments: semigroups code their
# rows from the words, and Rees quotients read theirs off the table.
# height2-ct5 has no identity, so the formal-identity column is not a copy of
# any table column; idgen-ct6 holds irregular elements.
FINGERPRINT_CARRIERS = {
    "ct5": ("ct", 5, None),
    "orct5": ("orct", 5, None),
    "t4": ("t", 4, None),
    "height2-ct5": ("ideal-ct", 5, 2),
    "idgen-ct6": ("idgen-ct", 6, None),
    **{f"reg-orct{n}": ("reg-orct", n, None) for n in range(4, 8)},
    **{f"reg-orct{n}-p{p}": ("reg-orct", n, p) for n in range(4, 7) for p in range(2, n + 1)},
}


class TestFingerprintKeys:
    @pytest.mark.parametrize("carrier", list(FINGERPRINT_CARRIERS))
    @pytest.mark.parametrize("side", ["l", "r"])
    def test_match_canon_reference(self, family, regular_base, table_of, carrier, side):
        s = _carrier(family, regular_base, *FINGERPRINT_CARRIERS[carrier])
        rows, table = np.arange(s.size - 1, -1, -2), table_of(s)
        assert np.array_equal(s.product_rows(rows, "r"), table[rows])
        assert np.array_equal(s.product_rows(rows, "l"), table[:, rows].T)
        reference = _canon_fingerprint_labels(table, side)
        got = rel._product_labels(s, STARRED_OF_SIDE[side])
        assert got.dtype == np.int32
        assert np.array_equal(got, reference)
        # The oracle keys one row per Green's class of the same side, which
        # is sound only because L refines L* and R refines R*.
        green = green_oracle(s, side)
        assert green.refines(RelationPartition(s, STARRED_OF_SIDE[side], reference, "oracle"))

    @pytest.mark.parametrize("width", [40, 32_767, 32_768, 40_504])
    def test_kernel_keys_past_int16(self, width):
        # Synthetic rows, no enumeration: each entry becomes the position
        # where its value first occurs, which np.unique's first indices give.
        size = width - 1
        rng = np.random.default_rng(width)
        rows = rng.integers(0, size, (3, width)).astype(np.int32)
        rows[0] = rng.integers(0, 5, width)  # few distinct values
        rows[1] = np.arange(width) % size  # last slot repeats the first
        got = rel._kernel_keys(rows.copy(), size)
        assert got.dtype == (np.int16 if width <= 32_767 else np.int32)
        for row, key in zip(rows, got):
            _, first, inverse = np.unique(row, return_index=True, return_inverse=True)
            assert np.array_equal(key, first[inverse])


class TestCharPartitionsCT6:
    """Partition-level agreement: the characterized classes, joined through
    shared probes, are exactly the oracle's classes."""

    @pytest.mark.parametrize("kind", ["l", "r", "h", "d"])
    def test_green(self, family, kind):
        s = family("ct", 6)
        assert np.array_equal(char_partition(s, kind).labels, green_oracle(s, kind).labels)

    @pytest.mark.parametrize("kind", ["lstar", "rstar", "hstar", "dstar"])
    def test_starred(self, family, kind):
        s = family("ct", 6)
        assert np.array_equal(char_partition(s, kind).labels, starred_partition(s, kind).labels)


# Class counts of the Green's relations on CT_n for n = 1..7.  R reads
# (3^(n-1) + 1) / 2 at every n measured, an empirical observation.
CT_CLASS_COUNTS = {
    "l": [1, 3, 6, 12, 25, 57, 153],
    "r": [1, 2, 5, 14, 41, 122, 365],
    "h": [1, 3, 10, 36, 136, 512, 1923],
    "d": [1, 2, 3, 5, 8, 15, 29],
    "j": [1, 2, 3, 5, 8, 15, 29],
}
CT8_CHAR_CLASS_COUNTS = {"l": 449, "h": 7087, "d": 67}


class TestCTSequences:
    """The pinned class counts, read by the oracles and, for l, r, h and d,
    by the characterized partitions.  The regular and idempotent counts are
    pinned in test_semigroups."""

    @pytest.mark.parametrize("kind", sorted(CT_CLASS_COUNTS))
    def test_oracle_class_counts(self, family, kind):
        counts = [green_oracle(family("ct", n), kind).class_count for n in range(1, 8)]
        assert counts == CT_CLASS_COUNTS[kind]

    @pytest.mark.parametrize("kind", ["l", "r", "h", "d"])
    def test_char_class_counts(self, family, kind):
        counts = [char_partition(family("ct", n), kind).class_count for n in range(1, 8)]
        assert counts == CT_CLASS_COUNTS[kind]

    @pytest.mark.parametrize("kind", sorted(CT8_CHAR_CLASS_COUNTS))
    def test_char_matches_oracle_at_ct8(self, ct8, kind):
        # Past the refinement-scan guard of 7: the refinement windows come
        # from the sweep over each kernel word, not the Bell(n) table.
        char = char_partition(ct8, kind)
        assert np.array_equal(char.labels, green_oracle(ct8, kind).labels)
        assert char.class_count == CT8_CHAR_CLASS_COUNTS[kind]


@pytest.fixture(scope="module")
def ct7():
    return enumerate_family("ct", 7)


class TestGreenCT7:
    @pytest.mark.parametrize("kind", ["l", "j"])
    def test_oracle_peak_memory(self, ct7, kind):
        # Holding every principal ideal as a sorted array peaked at 9.9 MB
        # (l) and 11.8 MB (j); only label arrays and the Cayley graph's
        # successor lists, |generators| or twice that per element, should be
        # live.
        vars(ct7).pop("_relation_memo", None)
        tracemalloc.start()
        try:
            green_oracle(ct7, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_green_kinds_build_no_table(self, no_semigroup_table):
        # The Cayley successor arrays are size x |generators|; the int32 table
        # alone was 45.9 MB and the int16 one is half that.
        tracemalloc.start()
        try:
            s = enumerate_family("ct", 7)
            green_oracle(s, "l")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        for kind in ("r", "j", "h", "d"):
            green_oracle(s, kind)


class TestStarredCT7:
    def test_class_counts(self, ct7):
        counts = {k: starred_partition(ct7, k).class_count for k in ("lstar", "rstar", "hstar", "dstar")}
        assert counts == {"lstar": 28, "rstar": 365, "hstar": 1697, "dstar": 7}

    def test_abundance_witnesses(self, ct7):
        assert abundance_witness(ct7, "left") is None
        witness = abundance_witness(ct7, "right")
        assert [m.images for m in witness] == [
            (1, 1, 1, 1, 2, 2, 3),
            (2, 2, 2, 2, 3, 3, 4),
            (3, 3, 3, 3, 2, 2, 1),
            (3, 3, 3, 3, 4, 4, 5),
            (4, 4, 4, 4, 3, 3, 2),
            (4, 4, 4, 4, 5, 5, 6),
            (5, 5, 5, 5, 4, 4, 3),
            (5, 5, 5, 5, 6, 6, 7),
            (6, 6, 6, 6, 5, 5, 4),
            (7, 7, 7, 7, 6, 6, 5),
        ]

    def test_builds_no_table(self, no_semigroup_table):
        # The int16 table alone is 22.9 MB; one coded row per Green's class
        # (153 for L, 365 for R) and their keys stay near 7 MB.
        s = enumerate_family("ct", 7)
        tracemalloc.start()
        try:
            counts = {k: starred_partition(s, k).class_count for k in ("lstar", "rstar", "hstar", "dstar")}
            left, right = abundance_witness(s, "left"), abundance_witness(s, "right")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        assert counts == {"lstar": 28, "rstar": 365, "hstar": 1697, "dstar": 7}
        assert left is None and len(right) == 10

    @pytest.mark.parametrize("side", ["l", "r"])
    def test_fingerprint_peak_memory(self, ct7, side):
        # Every key held at once would be 3,387 x 13.5 KB, about 46 MB; only
        # the distinct keys (28 and 365) and one row block should be live.
        tracemalloc.start()
        try:
            rel._product_labels(ct7, STARRED_OF_SIDE[side])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


def _ct8():
    # 11,814 elements: past the family guard and the table budget, so the
    # carrier is built from the words directly.
    return FiniteSemigroup(8, "ct", family_words("ct", 8))


@pytest.fixture(scope="module")
def ct8():
    return _ct8()


class TestCT8PastTheGuards:
    def test_class_counts(self, ct8, no_semigroup_table):
        counts = {k: green_oracle(ct8, k).class_count for k in rel.GREEN_KINDS}
        counts |= {k: starred_partition(ct8, k).class_count for k in rel.STARRED_KINDS}
        assert counts == {
            "l": 449, "r": 1094, "h": 7087, "d": 67, "j": 67,
            "lstar": 36, "rstar": 1094, "hstar": 5911, "dstar": 8,
        }

    def test_abundance(self, ct8, no_semigroup_table):
        assert abundance_witness(ct8, "left") is None
        right = abundance_witness(ct8, "right")
        assert len(right) == 12
        assert [m.images for m in right[:2]] == [(1, 1, 1, 1, 1, 2, 2, 3), (2, 2, 2, 2, 2, 3, 3, 4)]
        part = starred_partition(ct8, "rstar")
        holding = np.bincount(part.labels[rel.idempotent_indices(ct8)], minlength=part.class_count)
        assert np.count_nonzero(holding == 0) == 456

    @pytest.mark.parametrize("kind,bound", [("j", 9e6), ("lstar", 10e6), ("rstar", 8e6)])
    def test_peak_memory(self, kind, bound):
        # Each on a fresh carrier, so the peak includes the Green's labels a
        # starred kind reads.  A Python Tarjan over .tolist() of the Cayley
        # graphs peaked at 11.9 MB for j, holding every coded L*
        # representative row at once at 22.3 MB for lstar, and holding the
        # 1,094 distinct R* keys whole at 28.3 MB for rstar.
        s = _ct8()
        tracemalloc.start()
        try:
            (green_oracle if kind == "j" else starred_partition)(s, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


    def test_starred_equal_whole_keys(self, ct8):
        left, right = (_whole_key_labels(ct8, kind) for kind in ("lstar", "rstar"))
        reference = {
            "lstar": left,
            "rstar": right,
            "hstar": rel._pair_labels(left, right),
            "dstar": rel._labels(rel._join(left, right)),
        }
        for kind, labels in reference.items():
            assert np.array_equal(starred_partition(ct8, kind).labels, labels), kind

    def test_shared_digest_raises(self, monkeypatch):
        # With every digest equal, the second R-class's key is compared in
        # full with the first's, and they differ.
        s = enumerate_family("ct", 4)
        second = rel._least_members(green_oracle(s, "r").labels)[1]
        monkeypatch.setattr(rel, "_digest", lambda key: 0)
        with pytest.raises(RuntimeError, match=f"elements 0 and {second} have different .* one digest"):
            starred_partition(s, "rstar")


def _whole_key_labels(s, kind):
    """Reference lstar or rstar labels with every distinct kernel key held
    whole: per Green's class, the first positions of the values of its least
    member's S^1 row, from np.unique."""
    green, side = {"lstar": ("l", "r"), "rstar": ("r", "l")}[kind]
    classes = green_oracle(s, green).labels
    keys, labels = {}, []
    for a in rel._least_members(classes):
        row = np.append(s.product_rows([a], side)[0], a)
        _, first, inverse = np.unique(row, return_index=True, return_inverse=True)
        labels.append(keys.setdefault(first[inverse].astype(np.int32).tobytes(), len(keys)))
    return rel._labels(np.array(labels)[classes])


class TestStarredChar:
    def test_shifted_images(self):
        a, b = make_map(4, [1, 2, 2, 3]), make_map(4, [2, 2, 3, 4])
        assert not starred_char(a, b, "lstar")  # images {1,2,3} vs {2,3,4}
        assert starred_char(a, b, "dstar")  # equal heights

    def test_reflexive_all_kinds(self):
        for kind in ("lstar", "rstar", "hstar", "dstar"):
            assert starred_char(ALPHA, ALPHA, kind)

    def test_kernel_class_pairwise_rstar(self):
        for a, b in combinations_with_replacement(KERNEL_CLASS_N4, 2):
            assert starred_char(a, b, "rstar")

    def test_agrees_with_oracle_on_ct3(self, family):
        s = family("ct", 3)
        for kind in ("lstar", "rstar", "hstar", "dstar"):
            part = starred_partition(s, kind)
            for i, j in combinations_with_replacement(range(s.size), 2):
                assert part.same_class(i, j) == starred_char(s.elements[i], s.elements[j], kind)


class TestAbundance:
    def test_left_abundant_all_families_n4(self, family):
        for fam in ("ct", "oct", "orct"):
            assert is_left_abundant(family(fam, 4))

    def test_ct4_not_right_abundant_with_witness(self, family):
        s = family("ct", 4)
        assert not is_right_abundant(s)
        witness = abundance_witness(s, "right")
        assert set(witness) == set(KERNEL_CLASS_N4)
        assert not any(is_idempotent(m) for m in witness)

    def test_right_abundant_small_chains(self, family):
        for fam in ("ct", "oct", "orct"):
            for n in (1, 2, 3):
                assert is_right_abundant(family(fam, n))

    def test_family_restriction(self, family, regular_base):
        with pytest.raises(ValueError, match="contraction families"):
            is_left_abundant(family("t", 3))
        with pytest.raises(ValueError, match="contraction families, got None"):
            is_left_abundant(rees_quotient(regular_base("orct", 4), 2))

    def test_every_lstar_class_has_stationary_idempotent(self, family):
        # Build the stationary idempotent with the class's common image and
        # check it lies in the class.
        for n in range(2, 6):
            s = family("ct", n)
            part = starred_partition(s, "lstar")
            for cls in part.classes:
                images = {image(s.elements[i]) for i in cls}
                assert len(images) == 1
                pts = sorted(next(iter(images)))
                word = []
                for x in range(1, n + 1):
                    below = [v for v in pts if v >= x]
                    word.append(below[0] if below else pts[-1])
                candidate = make_map(n, word)
                assert is_idempotent(candidate)
                assert image(candidate) == tuple(pts)
                assert s.index_of(candidate) in cls


class TestUnipotence:
    def test_reg_orct4_l_unipotent(self, family):
        s = family("orct", 4)
        assert is_l_unipotent(subsemigroup(s, regular_elements(s)))

    def test_reg_orct4_not_r_unipotent_constants(self, family):
        s = family("orct", 4)
        reg = subsemigroup(s, regular_elements(s))
        assert not is_r_unipotent(reg)
        witness = unipotence_witness(reg, "r")
        constants = {make_map(4, [x] * 4) for x in range(1, 5)}
        assert constants <= set(witness)

    def test_trivial_semigroup(self, family):
        s = family("ct", 3)
        trivial = subsemigroup(s, [identity_map(3)])
        assert is_l_unipotent(trivial)
        assert is_r_unipotent(trivial)


def _carrier(family, regular_base, fam, n, p):
    """A carrier of CAYLEY_CARRIERS, the idempotent-generated subsemigroup
    ("idgen-ct") or a height-p ideal ("ideal-ct") of ct_n."""
    if fam == "reg-orct":
        return regular_base("orct", n) if p is None else rees_quotient(regular_base("orct", n), p)
    if fam == "idgen-ct":
        return generated_subsemigroup(family("ct", n), idempotents(family("ct", n)))
    if fam == "ideal-ct":
        return subsemigroup(family("ct", n), height_ideal(family("ct", n), p).elements)
    return family(fam, n)


# The idempotent-generated subsemigroup of ct6 holds irregular elements, and
# the height-2 ideal of ct5 has no identity.
REGULARITY_CARRIERS = CAYLEY_CARRIERS + [("idgen-ct", 6, None), ("ideal-ct", 5, 2)]


class TestRegularMask:
    @pytest.mark.parametrize(
        "fam,n,p", REGULARITY_CARRIERS,
        ids=[f"{fam}{n}" + (f"-p{p}" if p else "") for fam, n, p in REGULARITY_CARRIERS],
    )
    def test_matches_table_scan(self, family, regular_base, table_of, fam, n, p):
        # Regular exactly when the R-class holds an idempotent (Green's lemma).
        s = _carrier(family, regular_base, fam, n, p)
        assert s.size == {"idgen-ct": 523, "ideal-ct": 125}.get(fam, s.size)
        table = table_of(s)
        assert np.array_equal(s.squares(), table.diagonal())
        assert np.array_equal(_regular_mask(s), _regular_mask_by_table(table))

    def test_ct7_builds_no_table(self, no_semigroup_table):
        # The int16 table alone is 22.9 MB; the right Cayley graph and the
        # coded squares peak near 2.8 MB.
        tracemalloc.start()
        try:
            s = enumerate_family("ct", 7)
            regular, ids = regular_elements(s), idempotents(s)
            reg = regular_subsemigroup("orct", 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6
        assert (len(regular), len(ids), reg.size) == (2335, 395, 189)


def _monotone_regular(word, reflected):
    """The arithmetic test one map at a time, as first written: the blocks of
    a monotone map, numbered as in its kernel word, with their image points
    in order or also reflected."""
    kernel = kernel_word(word)
    blocks = [[x for x, b in enumerate(kernel, start=1) if b == i] for i in range(max(kernel) + 1)]
    xs = [word[block[0] - 1] for block in blocks]
    for ys in (xs, xs[::-1]) if reflected else (xs,):
        d = blocks[0][-1] - ys[0]
        if blocks[-1][0] - ys[-1] == d and all(blocks[i] == [ys[i] + d] for i in range(1, len(blocks) - 1)):
            return True
    return len(blocks) == 1  # constant maps


class TestRegularityCharacterizations:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_masks_match_per_map_references(self, n):
        # ct: a window of rank points in pairwise distinct blocks; oct and
        # orct: the arithmetic test, reflected on orct.
        words = family_words("ct", n)
        reference = [bool(convex_windows(kernel_word(w))) for w in words.tolist()]
        assert rel.REGULAR_MASKS["ct"](words).tolist() == reference
        for fam in ("oct", "orct"):
            words = family_words(fam, n)
            reference = [_monotone_regular(w, fam == "orct") for w in words.tolist()]
            assert rel.REGULAR_MASKS[fam](words).tolist() == reference, fam

    def test_alpha_not_regular(self):
        assert not regular_char_ct(ALPHA)

    def test_idempotents_regular(self, family):
        for e in idempotents(family("ct", 4)):
            assert regular_char_ct(e)

    def test_ct_char_agrees_with_oracle(self, family):
        for n in (2, 3, 4):
            s = family("ct", n)
            oracle = set(regular_elements(s))
            for m in s.elements:
                assert regular_char_ct(m) == (m in oracle)

    def test_orct_char_agrees_with_oracle(self, family):
        for n in (2, 3, 4, 5):
            s = family("orct", n)
            oracle = set(regular_elements(s))
            for m in s.elements:
                assert regular_char_orct(m) == (m in oracle)

    def test_oct_char_agrees_with_oracle(self, family):
        for n in (2, 3, 4, 5):
            s = family("oct", n)
            oracle = set(regular_elements(s))
            for m in s.elements:
                assert regular_char_oct(m) == (m in oracle)

    @pytest.mark.parametrize("fam", ["ct", "oct", "orct"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_mask_matches_oracle(self, family, fam, n):
        s = family(fam, n) if n <= 7 else FiniteSemigroup(n, fam, family_words(fam, n))
        assert np.array_equal(rel.REGULAR_MASKS[fam](s.words), _regular_mask(s))

    @pytest.mark.parametrize("check_id,fam", [("regularity-ct", "ct"), ("regularity-orct", "orct")])
    def test_check_spells_no_map(self, monkeypatch, check_id, fam):
        # Two masks are compared; a map is spelled only for a witness.
        def spelled(*args):
            raise AssertionError("a map was spelled from its word")

        monkeypatch.setattr(_WordMaps, "__getitem__", spelled)
        monkeypatch.setattr(_WordMaps, "__iter__", spelled)
        [report] = run_check(check_id, 6, fam)
        assert report.verdict == "pass"

    def test_constants_regular(self):
        assert regular_char_orct(make_map(5, [3] * 5))

    def test_family_mismatch(self):
        with pytest.raises(ValueError, match="order-preserving"):
            regular_char_orct(ALPHA)  # in CT_6 but neither preserving nor reversing
        with pytest.raises(ValueError, match="order-preserving"):
            regular_char_oct(make_map(3, [3, 2, 1]))


class TestSubsetRelations:
    def test_zero_forms_own_class_inside_quotient(self, family):
        base = subsemigroup(family("orct", 4), regular_elements(family("orct", 4)))
        q = rees_quotient(base, 2)
        part = green_oracle(q, "d")
        assert frozenset([q.zero_index]) in part.classes


# -- characterized relations as per-element rows --------------------------------

KEYED_KINDS = ("l", "r", "d", "lstar", "rstar", "hstar", "dstar")


def _scalar(kind):
    return {"l": l_char, "r": r_char, "d": d_char}.get(kind) or (
        lambda a, b: starred_char(a, b, kind)
    )


def _assert_rows_match_scalar(s, kind):
    rows = _char_rows(s, kind)
    pred = _scalar(kind)
    elements = list(s.elements)  # each spelled once
    for i, a in enumerate(elements):
        assert rows(i).tolist() == [pred(a, b) for b in elements], (kind, a)


def _walk_map(start, steps):
    word = [start]
    for step in steps:
        word.append(min(7, max(1, word[-1] + step)))
    return make_map(7, word)


# Adjacent images differ by at most 1, so every walk is a contraction.
CT7_MAPS = st.builds(
    _walk_map, st.integers(1, 7), st.lists(st.sampled_from((-1, 0, 1)), min_size=6, max_size=6)
)
_CT7_ROWS: dict = {}  # kind -> characterized rows of ct7, built once per run


def _row_sweep_classes(s, kind):
    """Components of the characterized rows, grown one row at a time from
    each still unassigned element; h rows are l rows and r rows."""
    if kind == "h":
        l_rows, r_rows = _char_rows(s, "l"), _char_rows(s, "r")

        def rows(i):
            return l_rows(i) & r_rows(i)
    else:
        rows = _char_rows(s, kind)
    unassigned = np.ones(s.size, dtype=bool)
    classes = []
    for start in range(s.size):
        if not unassigned[start]:
            continue
        unassigned[start] = False
        members, stack = [start], [start]
        while stack:
            fresh = np.flatnonzero(rows(stack.pop()) & unassigned)
            unassigned[fresh] = False
            members.extend(fresh.tolist())
            stack.extend(fresh.tolist())
        classes.append(frozenset(members))
    return tuple(classes)


class TestCharPartition:
    @pytest.mark.parametrize("kind", ("l", "r", "h", "d") + rel.STARRED_KINDS)
    def test_matches_row_sweep_on_ct5(self, family, kind):
        s = family("ct", 5)
        assert char_partition(s, kind).classes == _row_sweep_classes(s, kind)

    @pytest.mark.parametrize("kind", rel.STARRED_KINDS)
    def test_starred_match_row_sweep_on_orct5(self, family, kind):
        s = family("orct", 5)
        assert char_partition(s, kind).classes == _row_sweep_classes(s, kind)

    def test_unknown_kind(self, family):
        with pytest.raises(ValueError, match="no characterized"):
            char_partition(family("ct", 2), "j")


class TestCharacterizedRows:
    @pytest.mark.parametrize("kind", KEYED_KINDS)
    def test_agree_with_scalar_predicate_on_ct5(self, family, kind):
        _assert_rows_match_scalar(family("ct", 5), kind)

    @pytest.mark.parametrize("kind", KEYED_KINDS_ALL)
    def test_rows_match_reference_on_ct5(self, family, kind):
        # i and j are related exactly when their per-word reference keys meet.
        s = family("ct", 5)
        keys = [_reference_probes(kind, tuple(w)) for w in s.words.tolist()]
        rows = _char_rows(s, kind)
        for i, key in enumerate(keys):
            assert rows(i).tolist() == [not key.isdisjoint(other) for other in keys], (kind, i)

    @pytest.mark.parametrize("kind", rel.STARRED_KINDS)
    def test_starred_agree_with_scalar_predicate_on_orct5(self, family, kind):
        _assert_rows_match_scalar(family("orct", 5), kind)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(CT7_MAPS, min_size=2, max_size=6))
    def test_agree_with_scalar_predicate_on_random_ct7_maps(self, family, maps):
        # The route reads only a word array, so the drawn words alone are
        # keyed as a carrier's are; ct7's characterized rows agree as well.
        elements = tuple(sorted(set(maps)))
        words = np.array([m.images for m in elements], dtype=np.int8)
        ct7 = family("ct", 7)
        at = [ct7.index_of(m) for m in elements]
        for kind in KEYED_KINDS:
            held, probes = rel._probe_edges(words, kind)
            held = [set(probes[held == i].tolist()) for i in range(len(elements))]
            if kind not in _CT7_ROWS:
                _CT7_ROWS[kind] = _char_rows(ct7, kind)
            rows = _CT7_ROWS[kind]
            pred = _scalar(kind)
            for i, a in enumerate(elements):
                expected = [pred(a, b) for b in elements]
                assert [not held[i].isdisjoint(h) for h in held] == expected, (kind, a)
                assert rows(at[i])[at].tolist() == expected, (kind, a)

    def test_h_is_l_and_r(self, family):
        s = family("ct", 4)
        h, l, r = (_char_rows(s, k) for k in ("h", "l", "r"))
        for i in range(s.size):
            assert (h(i) == (l(i) & r(i))).all()

    def test_rejects_non_contraction(self):
        words = np.array([[1, 2, 3], [3, 1, 3]])
        for kind in ("l", "r", "d", "h"):
            with pytest.raises(ValueError, match=r"\[3,1,3\] is not a contraction"):
                rel._probe_edges(words, kind)

    def test_unknown_kind(self, family):
        with pytest.raises(ValueError, match="no characterized"):
            _char_rows(family("ct", 2), "j")

    @pytest.mark.parametrize("check_id,kind", [("green-r", "r"), ("starred", "dstar")])
    def test_scan_matches_reference_pair_loop(self, family, monkeypatch, check_id, kind):
        # A deliberately wrong key makes the characterization disagree with
        # the oracle; the row scan must count and order the disagreements
        # exactly as a plain loop over the pairs does.
        probe_edges = rel._probe_edges

        def first_image(words, k):
            if k != kind:
                return probe_edges(words, k)
            words = np.asarray(words)
            return np.arange(len(words)), words[:, 0].astype(np.intp) - 1

        monkeypatch.setattr(rel, "_probe_edges", first_image)
        s = family("ct", 4)
        part = green_oracle(s, kind) if kind in rel.GREEN_KINDS else starred_partition(s, kind)
        pred = _scalar(kind)
        disagreements, witness = 0, None
        for i, j in combinations_with_replacement(range(s.size), 2):
            o = part.same_class(i, j)
            c = pred(s.elements[i], s.elements[j])
            if o != c:
                disagreements += 1
                if witness is None:
                    witness = {
                        "maps": [str(s.elements[i]), str(s.elements[j])],
                        "oracle": o,
                        "characterized": c,
                    }
        assert disagreements > 0
        if check_id == "starred":
            witness["kind"] = kind
        [report] = [r for r in run_check(check_id, 4, "ct") if r.detail.get("kind", kind) == kind]
        assert report.verdict == "fail"
        assert report.detail["pairs_disagreeing"] == disagreements
        assert report.counterexample == witness


# Oracle labels and each element's set of probes: some elements hold no
# probe, some probes cross two classes, some classes share none.
LABELLED_PROBES = st.integers(1, 8).flatmap(
    lambda size: st.tuples(
        st.lists(st.integers(0, size - 1), min_size=size, max_size=size),
        st.lists(st.sets(st.integers(0, 5), max_size=3), min_size=size, max_size=size),
    )
)


class TestScanPairs:
    @settings(max_examples=200, deadline=None)
    @given(LABELLED_PROBES)
    @example(([0, 0, 1], [{0}, {0}, {0}]))  # a probe held in two classes
    @example(([0, 0, 1, 1], [{0}, {1}, {1}, set()]))  # a class sharing no probe; a bare element
    @example(([0, 1, 1, 2], [{0}, {1, 2}, {2}, {3}]))  # agreeing: every class has a probe all members hold
    def test_matches_pair_loop_on_drawn_edges(self, pair_loop, drawn):
        labels, held = drawn
        size = len(labels)
        s = SimpleNamespace(elements=[make_map(size, [k + 1] * size) for k in range(size)])
        pairs = [(i, p) for i, probes in enumerate(held) for p in sorted(probes)]
        edges = tuple(np.array(pairs, dtype=np.int64).reshape(-1, 2).T)
        expected = pair_loop(s, labels, lambda i, j: not held[i].isdisjoint(held[j]))
        assert _scan_pairs(s, np.array(labels, dtype=np.int32), edges) == expected


@pytest.fixture(scope="module")
def ct9():
    # 40,503 elements, built from the words directly.
    return FiniteSemigroup(9, "ct", family_words("ct", 9))


def _assert_no_row_built(s, part):
    """Each probe's holders lie in one oracle class and every class has a
    probe all its members hold, so ``_scan_pairs`` compares no row."""
    elements, probes = edges = rel._probe_edges(s.words, part.kind)
    probe_class = np.zeros(int(probes.max()) + 1, dtype=np.int32)
    probe_class[probes] = part.labels[elements]
    assert np.array_equal(probe_class[probes], part.labels[elements])
    whole = np.bincount(probes) == np.bincount(part.labels)[probe_class]
    assert np.unique(probe_class[whole]).size == part.class_count
    assert _scan_pairs(s, part.labels, edges) == (0, None)


class TestClassPremise:
    """Where the keys match the oracle, they match it class by class: an
    empirical fact at ct9 for L, R, H and D and at ct8 for the starred kinds."""

    @pytest.mark.parametrize("kind", ["l", "r", "h", "d"])
    def test_green_at_ct9(self, ct9, kind):
        _assert_no_row_built(ct9, green_oracle(ct9, kind))

    @pytest.mark.parametrize("kind", rel.STARRED_KINDS)
    def test_starred_at_ct8(self, ct8, kind):
        _assert_no_row_built(ct8, starred_partition(ct8, kind))


class TestOctOrctCharacterized:
    # The paper characterizes Green's relations on CT_n only.  On its
    # subsemigroups OCT_n and ORCT_n the ct keys agree with the oracles,
    # except D on OCT_n from n = 5, which holds no order-reversing map; the
    # pinned counts and first witnesses guard the keys row by row.
    @pytest.mark.parametrize("fam", ["oct", "orct"])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_agreeing_kinds(self, family, fam, n):
        s = family(fam, n)
        for kind in ("l", "r") if fam == "oct" else ("l", "r", "d"):
            assert _scan_pairs(s, green_oracle(s, kind).labels, rel._probe_edges(s.words, kind)) == (0, None), kind

    @pytest.mark.parametrize(
        "n,count,first",
        [
            (2, 0, None),
            (3, 0, None),
            (4, 0, None),
            (5, 4, ["[1,2,2,3,4]", "[1,2,3,3,4]"]),
            (6, 49, ["[1,1,2,2,3,4]", "[1,1,2,3,3,4]"]),
            (7, 302, ["[1,1,1,2,2,3,4]", "[1,1,1,2,3,3,4]"]),
        ],
    )
    def test_oct_d_disagreements(self, family, pair_loop, n, count, first):
        s = family("oct", n)
        labels = green_oracle(s, "d").labels
        disagreements, witness = _scan_pairs(s, labels, rel._probe_edges(s.words, "d"))
        assert disagreements == count
        if first is None:
            assert witness is None
        else:
            assert witness == {"maps": first, "oracle": False, "characterized": True}
        rows = list(map(_char_rows(s, "d"), range(s.size)))
        assert pair_loop(s, labels, lambda i, j: rows[i][j]) == (disagreements, witness)


class TestCharacterizedCarrierSpellsNoMap:
    @pytest.mark.parametrize("kind", ("l", "r", "h", "d") + rel.STARRED_KINDS)
    def test_ct6(self, family, monkeypatch, kind):
        # The keys read the carrier's words; no ChainMap is built per element.
        s = family("ct", 6)

        def spelled(*args):
            raise AssertionError("a map was spelled from its word")

        monkeypatch.setattr(_WordMaps, "__getitem__", spelled)
        monkeypatch.setattr(_WordMaps, "__iter__", spelled)
        part = green_oracle(s, kind) if kind in rel.GREEN_KINDS else starred_partition(s, kind)
        assert char_partition(s, kind).class_count > 0
        assert _scan_pairs(s, part.labels, rel._probe_edges(s.words, kind)) == (0, None)
