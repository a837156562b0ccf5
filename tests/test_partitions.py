"""Kernels, transversal classification, refinements, and the coarsest
convex-collapsing refinement."""

from functools import cache
from itertools import product

import numpy as np
import pytest

from contracta import (
    ChainMap,
    Transversal,
    collapse_map,
    convex_refinement_transversals,
    d_char,
    enumerate_family,
    has_convex_transversal,
    is_admissible,
    is_contraction,
    is_convex,
    is_idempotent,
    is_isometry_on,
    is_relatively_convex,
    kernel,
    l_char,
    limits,
    make_map,
    make_partition,
    max_convex_refinement,
    partition_from_json,
    partition_to_json,
    partition_to_text,
    refinements,
    regular_char_ct,
    relations,
    run_check,
    transversals,
)
from contracta.partitions import (
    _coarsest,
    _refinement_facts,
    _refinement_words,
    _word,
    coarsest_merely_convex_refinement,
    convex_windows,
    kernel_word,
    refinement_windows,
)
from contracta.semigroups import family_words

ALPHA = make_map(6, [1, 2, 2, 3, 4, 3])
BETA = make_map(6, [4, 3, 2, 2, 1, 2])


def all_maps(n, pred=None):
    for word in product(range(1, n + 1), repeat=n):
        m = ChainMap(n, word)
        if pred is None or pred(m):
            yield m


def independent_set_partitions(items):
    """Partition enumeration by assignment vectors (restricted growth strings);
    independent of the library's recursive generator."""
    items = list(items)
    if not items:
        return [()]
    out = []

    def walk(i, assignment, used):
        if i == len(items):
            blocks = {}
            for x, g in zip(items, assignment):
                blocks.setdefault(g, []).append(x)
            out.append(tuple(sorted((tuple(sorted(b)) for b in blocks.values()), key=lambda b: b[0])))
            return
        for g in range(used + 1):
            walk(i + 1, assignment + [g], max(used, g + 1))

    walk(0, [], 0)
    return out


class TestKernel:
    def test_alpha_display(self):
        k = kernel(ALPHA)
        assert k.blocks == ((1,), (2, 3), (4, 6), (5,))
        assert k.block_images == (1, 2, 3, 4)

    def test_beta_display(self):
        k = kernel(BETA)
        assert k.blocks == ((1,), (2,), (3, 4, 6), (5,))
        assert k.block_images == (4, 3, 2, 1)

    def test_identity(self):
        k = kernel(make_map(4, [1, 2, 3, 4]))
        assert k.blocks == ((1,), (2,), (3,), (4,))

    def test_fibers_recover_map(self):
        for m in all_maps(4):
            k = kernel(m)
            for block, value in zip(k.blocks, k.block_images):
                assert all(m(x) == value for x in block)


class TestPartitionValidation:
    def test_make_partition_canonicalizes(self):
        k = make_partition(4, [(3, 1), (4, 2)], images=[1, 2])
        assert k.blocks == ((1, 3), (2, 4))
        assert k.block_images == (1, 2)

    def test_rejects_gap(self):
        with pytest.raises(ValueError, match="missing"):
            make_partition(4, [(1, 2), (4,)])

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="more than one block"):
            make_partition(3, [(1, 2), (2, 3)])

    def test_rejects_duplicate_images(self):
        with pytest.raises(ValueError, match="distinct"):
            make_partition(3, [(1,), (2, 3)], images=[2, 2])


class TestTransversals:
    def test_alpha_kernel_has_four(self):
        got = [t.points for t in transversals(kernel(ALPHA))]
        assert got == [(1, 2, 4, 5), (1, 2, 5, 6), (1, 3, 4, 5), (1, 3, 5, 6)]

    def test_matches_cartesian_product_oracle(self):
        k = kernel(ALPHA)
        expected = sorted(
            tuple(sorted(choice)) for choice in product(*k.blocks)
        )
        assert sorted(t.points for t in transversals(k)) == expected

    def test_singleton_partition_unique(self):
        k = kernel(make_map(3, [1, 2, 3]))
        assert len(transversals(k)) == 1

    def test_single_block(self):
        k = make_partition(3, [(1, 2, 3)])
        assert [t.points for t in transversals(k)] == [(1,), (2,), (3,)]

    def test_invalid_transversal_rejected(self):
        k = kernel(ALPHA)
        with pytest.raises(ValueError, match="meets the transversal"):
            Transversal((1, 2, 3, 4), k)  # misses block {5}


class TestClassification:
    def test_alpha_transversals_all_non_convex(self):
        ts = transversals(kernel(ALPHA))
        assert all(not is_convex(t) for t in ts)
        assert not has_convex_transversal(kernel(ALPHA))

    def test_convex_implies_admissible_here(self):
        k = make_partition(6, [(1, 2, 3), (4,), (5,), (6,)])
        t = Transversal((3, 4, 5, 6), k)
        assert is_convex(t)
        assert is_admissible(t)

    def test_single_block_point_convex(self):
        k = make_partition(4, [(1, 2, 3, 4)])
        assert all(is_convex(t) for t in transversals(k))

    def test_relatively_convex_equals_convex_for_full_maps(self):
        # Full maps have the whole chain as domain.
        for n in (4, 5):
            for m in all_maps(n):
                for t in transversals(kernel(m)):
                    assert is_relatively_convex(t) == is_convex(t)

    def test_admissible_iff_convex_on_contraction_kernels(self):
        for n in range(2, 6):
            for m in all_maps(n, is_contraction):
                for t in transversals(kernel(m)):
                    assert is_admissible(t) == is_convex(t)

    def test_admissibility_is_the_collapse_contraction(self):
        k = kernel(ALPHA)
        for t in transversals(k):
            c = collapse_map(k, t)
            assert kernel(c).blocks == k.blocks
            assert is_admissible(t) == is_contraction(c)

    def test_convex_not_admissible_outside_contraction_kernels(self):
        # {1,2,3} is a convex transversal of {{1,4},{2},{3}} but collapsing
        # sends 3 -> 3 and 4 -> 1, stretching an adjacent pair.
        k = make_partition(4, [(1, 4), (2,), (3,)])
        t = Transversal((1, 2, 3), k)
        assert is_convex(t)
        assert not is_admissible(t)


class TestHasConvexTransversal:
    def test_idempotent_kernels_always(self):
        for n in range(2, 6):
            for m in all_maps(n, lambda m: is_contraction(m) and is_idempotent(m)):
                assert has_convex_transversal(kernel(m))

    def test_all_singletons(self):
        assert has_convex_transversal(kernel(make_map(4, [1, 2, 3, 4])))

    def test_window_scan_matches_enumeration(self):
        # Every set partition, not only contraction kernels: the coarsest
        # merely-convex refinement applies the scan to arbitrary refinements.
        for n in range(1, 7):
            for blocks in independent_set_partitions(range(1, n + 1)):
                k = make_partition(n, blocks)
                by_enumeration = any(is_convex(t) for t in transversals(k))
                assert has_convex_transversal(k) == by_enumeration, blocks


class TestRefinements:
    def test_two_block(self):
        k = make_partition(3, [(1, 2), (3,)])
        got = {p.blocks for p in refinements(k)}
        assert got == {((1, 2), (3,)), ((1,), (2,), (3,))}

    def test_singletons_only_themselves(self):
        k = make_partition(3, [(1,), (2,), (3,)])
        assert [p.blocks for p in refinements(k)] == [((1,), (2,), (3,))]

    def test_single_block_bell_number(self):
        k = make_partition(3, [(1, 2, 3)])
        got = sorted(p.blocks for p in refinements(k))
        expected = sorted(independent_set_partitions([1, 2, 3]))
        assert got == expected
        assert len(got) == 5

    def test_every_refinement_sits_inside_original(self):
        k = kernel(ALPHA)
        owner = {x: i for i, b in enumerate(k.blocks) for x in b}
        for p in refinements(k):
            for b in p.blocks:
                assert len({owner[x] for x in b}) == 1


class TestMaxConvexRefinement:
    def test_alpha(self):
        m = max_convex_refinement(ALPHA)
        assert m.blocks == ((1,), (2,), (3,), (4, 6), (5,))
        assert has_convex_transversal(m)

    def test_beta_same_refinement(self):
        m = max_convex_refinement(BETA)
        assert m.blocks == ((1,), (2,), (3,), (4, 6), (5,))

    def test_regular_maps_keep_their_kernel(self):
        for m in all_maps(4, is_contraction):
            if has_convex_transversal(kernel(m)):
                assert max_convex_refinement(m).blocks == kernel(m).blocks

    def test_rejects_non_contraction(self):
        with pytest.raises(ValueError, match="not a contraction"):
            max_convex_refinement(make_map(3, [3, 1, 3]))

    def test_maximality_by_exhaustive_scan(self):
        # No strictly coarser refinement with an admissible convex transversal
        # exists; checked independently through transversal enumeration.
        for n in range(2, 6):
            for m in all_maps(n, is_contraction):
                best = max_convex_refinement(m)
                assert any(
                    is_convex(t) and is_admissible(t) for t in transversals(best)
                )
                owner = {x: i for i, b in enumerate(kernel(m).blocks) for x in b}
                for p in refinements(kernel(m)):
                    if not any(is_convex(t) and is_admissible(t) for t in transversals(p)):
                        continue
                    if len(p.blocks) < len(best.blocks):
                        pytest.fail(f"{p} is coarser than {best} for {m}")
                    # every good refinement refines the reported maximum
                    downer = {x: i for i, b in enumerate(best.blocks) for x in b}
                    assert all(len({downer[x] for x in b}) == 1 for b in p.blocks)


class TestIsometryOn:
    def test_stationary_blocks(self):
        m = make_map(4, [1, 2, 2, 2])
        t = Transversal((1, 2), kernel(m))
        assert is_isometry_on(t, m)

    def test_alpha_transversal_fails(self):
        t = Transversal((1, 2, 4, 5), kernel(ALPHA))
        assert not is_isometry_on(t, ALPHA)  # |1-4| = 3 but images 1, 3

    def test_shift(self):
        m = make_map(4, [2, 3, 4, 4])
        t = Transversal((1, 2, 3), kernel(m))
        assert is_isometry_on(t, m)

    def test_mismatch_rejected(self):
        t = Transversal((1, 2), kernel(make_map(3, [1, 2, 2])))
        with pytest.raises(ValueError, match="kernel"):
            is_isometry_on(t, make_map(3, [1, 1, 2]))


class TestRefinementTransversals:
    def test_alpha_good_intervals(self):
        got = convex_refinement_transversals(kernel(ALPHA).without_images())
        assert got == ((1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6))

    def test_full_chain_always_good(self):
        for m in all_maps(4, is_contraction):
            k = kernel(m).without_images()
            assert (1, 2, 3, 4) in convex_refinement_transversals(k)

    def test_each_good_interval_is_realized(self):
        # Every reported interval really is an admissible convex transversal
        # of some refinement: re-derive one refinement and check it.
        k = kernel(ALPHA).without_images()
        for points in convex_refinement_transversals(k):
            found = False
            for p in refinements(k):
                try:
                    t = Transversal(points, p)
                except ValueError:
                    continue
                if is_convex(t) and is_admissible(t):
                    found = True
                    break
            assert found, points


def _refines(p, q):
    owner = {x: i for i, b in enumerate(q) for x in b}
    return all(len({owner[x] for x in b}) == 1 for b in p)


def _brute_coarsest(goods):
    """The good partition every good one refines, else the common refinement
    of the maximal good ones, found by pairwise block intersections."""
    for m in goods:
        if all(_refines(p, m) for p in goods):
            return m
    maxima = [q for q in goods if not any(q2 != q and _refines(q, q2) for q2 in goods)]
    blocks = [set(b) for b in maxima[0]]
    for q in maxima[1:]:
        blocks = [b & set(c) for b in blocks for c in q if b & set(c)]
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


class TestRefinementScansByBruteForce:
    """Every refinement scan against transversal enumeration over every set
    partition of [n], n <= 6, with refinements found by subset tests."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_partition(self, n):
        parts = independent_set_partitions(range(1, n + 1))
        convex, admissible = {}, {}
        for p in parts:
            ts = [t for t in transversals(make_partition(n, p)) if is_convex(t)]
            convex[p] = bool(ts)
            admissible[p] = [t.points for t in ts if is_admissible(t)]
        coarsest_admissible = {}
        for blocks in parts:
            k = make_partition(n, blocks)
            below = [p for p in parts if _refines(p, blocks)]
            assert sorted(p.blocks for p in refinements(k)) == sorted(below)
            got = coarsest_merely_convex_refinement(k).blocks
            assert got == _brute_coarsest([p for p in below if convex[p]]), blocks
            intervals = {t for p in below for t in admissible[p]}
            expected = tuple(sorted(intervals, key=lambda t: (len(t), t[0])))
            assert convex_refinement_transversals(k) == expected, blocks
            coarsest_admissible[blocks] = _brute_coarsest([p for p in below if admissible[p]])
        for word in family_words("ct", n).tolist():
            a = ChainMap(n, word)
            assert max_convex_refinement(a).blocks == coarsest_admissible[kernel(a).blocks], a

    def test_ct7_readings(self):
        (report,) = run_check("refinement-readings", 7)
        assert report.detail == {
            "kernels_scanned": 365,
            "readings_differ_on": 62,
            "example": {
                "map": "[1,1,1,2,2,3,2]",
                "admissible_reading": "{1,2,3}|{4}|{5,7}|{6}",
                "convex_only_reading": "{1,2,3}|{4}|{5}|{6}|{7}",
            },
        }


def _collapse_windows(word):
    """The convex windows of ``word`` whose collapse, every point sent to the
    window's point in its block, is a contraction."""
    p, n = max(word) + 1, len(word)
    return [
        lo for lo in convex_windows(word)
        if is_contraction(ChainMap(n, tuple(lo + word[lo - 1 : lo - 1 + p].index(g) for g in word)))
    ]


def _bell_words(n):
    """The words of every set partition of [n], in lexicographic order."""
    words = [()]
    for _ in range(n):
        words = [w + (g,) for w in words for g in range(max(w, default=-1) + 2)]
    return words


@cache
def _bell_table(n):
    """The Bell(n) table the refinement scans once read: every set partition
    of [n] as its word, and per word one bit for each pair x < y that shares
    a block.  One partition refines another exactly when its pair bits are a
    subset of the other's."""
    words = _bell_words(n)
    labels = np.array(words, dtype=np.int8)
    i, j = np.triu_indices(n, 1)
    return words, ((labels[:, i] == labels[:, j]).astype(np.int64) << np.arange(i.size)).sum(axis=1)


@cache
def _table_route(n):
    """``refinement_windows`` of every set partition of [n], read off the
    Bell(n) table: the OR of the collapse windows of every row that refines a
    word, grouped by block count."""
    words, pairs = _bell_table(n)
    admissible = np.array([sum(1 << (lo - 1) for lo in _collapse_windows(w)) for w in words])
    blocks = np.array([max(w) + 1 for w in words])
    routes = {}
    for word, mask in zip(words, pairs.tolist()):
        rows = np.flatnonzero((pairs & ~mask) == 0)
        bits = np.zeros(n + 1, dtype=np.int64)
        np.bitwise_or.at(bits, blocks[rows], admissible[rows])
        routes[word] = tuple(
            (lo, p) for p, b in enumerate(bits.tolist()) for lo in range(1, n + 1) if b >> (lo - 1) & 1
        )
    return routes


def _table_scans(n):
    """Per set partition of [n], read off the Bell(n) table: the words of
    its refinements in table order, and its coarsest merely convex and
    coarsest admissible readings, each the good row whose pair bits are the
    OR of all good rows', else the AND of the maximal ones'."""
    words, pairs = _bell_table(n)
    columns = [np.array([bool(f(w)) for w in words]) for f in (convex_windows, _collapse_windows)]
    scans = {}
    for word, mask in zip(words, pairs.tolist()):
        rows = np.flatnonzero((pairs & ~mask) == 0)
        readings = []
        for column in columns:
            good = pairs[rows[column[rows]]]
            top = np.bitwise_or.reduce(good)
            if not (good == top).any():
                below = (good[:, None] & good[None, :]) == good[:, None]
                top = np.bitwise_and.reduce(good[below.sum(axis=1) == 1])
            readings.append(words[np.flatnonzero(pairs == top)[0]])
        scans[word] = ([words[r] for r in rows], *readings)
    return scans


def _partition(word):
    return make_partition(len(word), [[x for x, g in enumerate(word, 1) if g == b] for b in range(max(word) + 1)])


class TestRefinementWindowsByTable:
    """The window sweep against the Bell(n) table route it replaced, on every
    set partition of [n] for n = 7 and 8."""

    @pytest.mark.parametrize("n", [7, 8])
    def test_every_partition(self, n, monkeypatch):
        monkeypatch.setattr(limits, "REFINEMENT_SCAN_MAX_N", 8)
        routes = _table_route(n)
        lo, p, ok = refinement_windows(list(routes))
        intervals = list(zip(lo.tolist(), p.tolist()))
        assert intervals == [(start, size) for size in range(1, n + 1) for start in range(1, n - size + 2)]
        taken = [tuple(w for w, hit in zip(intervals, row) if hit) for row in ok.tolist()]
        assert taken == list(routes.values())

    def test_single_point(self, family):
        lo, p, ok = refinement_windows([[0]])
        assert (lo.tolist(), p.tolist(), ok.tolist()) == ([1], [1], [[True]])
        s = family("ct", 1)
        for kind in ("l", "h", "d"):
            assert relations.char_partition(s, kind).labels.tolist() == [0]
            assert [e.tolist() for e in relations._probe_edges(s.words, kind)] == [[0], [0]]

    def test_no_per_input_cache(self):
        assert not hasattr(refinement_windows, "cache_info")

    def test_refinement_facts(self):
        for word in _bell_words(7):
            packed, convex, admissible = _refinement_facts(word)
            masks = [sum(1 << y for y, h in enumerate(word) if h == g) for g in word]
            assert [packed >> 7 * x & 127 for x in range(7)] == masks
            assert packed >> 49 == 0
            assert convex == bool(convex_windows(word))
            assert admissible == bool(_collapse_windows(word))


class TestRefinementScansByTable:
    """The generated refinement scans against the Bell(n) table route they
    replaced, on every set partition of [n] for n = 7 and 8."""

    @pytest.mark.parametrize("n", [7, 8])
    def test_every_partition(self, n, monkeypatch):
        monkeypatch.setattr(limits, "REFINEMENT_SCAN_MAX_N", 8)
        scans = _table_scans(n)
        for word, (rows, convex, admissible) in scans.items():
            assert _refinement_words(word) == rows, word
            assert _word(coarsest_merely_convex_refinement(_partition(word))) == convex, word
            assert _word(_coarsest(word, admissible=True)) == admissible, word
        # refinements spells those words as partitions; every word of [n]
        # refines the one-block partition.
        assert [_word(p) for p in refinements(_partition((0,) * n))] == list(scans)
        # One contraction per kernel, as the refinement-readings check scans.
        by_kernel = {kernel_word(images): images for images in family_words("ct", n).tolist()}
        for word, images in by_kernel.items():
            assert _word(max_convex_refinement(ChainMap(n, tuple(images)))) == scans[word][2], images


class TestPartitionTable:
    def test_row_counts_are_bell_numbers(self):
        counts = [len(refinements(make_partition(n, [range(1, n + 1)]))) for n in range(1, 8)]
        assert counts == [1, 2, 5, 15, 52, 203, 877]

    def test_refinement_count_is_product_of_bell_numbers(self):
        bell = [len(independent_set_partitions(range(m))) for m in range(6)]
        for a in enumerate_family("ct", 5).elements:
            k = kernel(a)
            expected = 1
            for b in k.blocks:
                expected *= bell[len(b)]
            assert len(refinements(k)) == expected, a

    def test_scans_guarded_beyond_seven(self):
        k = make_partition(8, [(1, 2), (3,), (4, 5, 6), (7, 8)])
        a = make_map(8, [1, 1, 2, 3, 3, 3, 4, 4])
        for scan, arg in [(refinements, k), (max_convex_refinement, a), (coarsest_merely_convex_refinement, k)]:
            with pytest.raises(ValueError, match="refinement scans are limited"):
                scan(arg)

    def test_characterized_side_unguarded_at_eight(self, monkeypatch):
        k = make_partition(8, [(1, 2), (3,), (4, 5, 6), (7, 8)])
        a = make_map(8, [1, 1, 2, 3, 3, 3, 4, 4])
        # The characterized side reads only a word array, so it keys a word
        # of a family the n = 8 family guard would refuse.
        assert l_char(a, a) and d_char(a, a)
        for kind in ("l", "h", "d"):
            elements, probes = relations._probe_edges(np.array([a.images]), kind)
            assert elements.size and not elements.any()
        monkeypatch.setattr(limits, "REFINEMENT_SCAN_MAX_N", 8)
        windows = _table_route(8)[_word(k)]
        assert convex_refinement_transversals(k) == tuple(tuple(range(lo, lo + p)) for lo, p in windows)

    def test_regularity_unguarded_at_eight(self):
        for word, regular in [([1, 1, 2, 3, 4, 4, 4, 4], True), ([1, 2, 2, 3, 4, 3, 3, 3], False)]:
            a = make_map(8, word)
            by_enumeration = any(is_convex(t) for t in transversals(kernel(a)))
            assert has_convex_transversal(kernel(a)) == by_enumeration == regular
            assert regular_char_ct(a) == regular


class TestCodecs:
    def test_text(self):
        assert partition_to_text(kernel(ALPHA)) == "{1}|{2,3}|{4,6}|{5}"

    def test_json_roundtrip(self):
        k = kernel(ALPHA)
        obj = partition_to_json(k)
        assert obj == {"n": 6, "blocks": [[1], [2, 3], [4, 6], [5]], "images": [1, 2, 3, 4]}
        assert partition_from_json(obj) == k
