"""Kernel partitions, transversals, and refinement scans.

The kernel of a map is its partition into fibers.  A transversal picks one
point per block; it is *convex* when the picked points form a contiguous
interval, and *admissible* when collapsing every block onto its picked point
yields a contraction.  Refinement scans drive the characterized Green's
relation predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from .limits import check_refinement_scan
from .maps import ChainMap, _word_is_contraction, is_contraction

__all__ = [
    "KernelPartition",
    "Transversal",
    "make_partition",
    "kernel",
    "transversals",
    "is_convex",
    "is_relatively_convex",
    "is_admissible",
    "collapse_map",
    "has_convex_transversal",
    "refinements",
    "max_convex_refinement",
    "is_isometry_on",
    "convex_refinement_transversals",
    "partition_to_text",
    "partition_to_json",
    "partition_from_json",
]


@dataclass(frozen=True)
class KernelPartition:
    """An ordered partition of {1, ..., n}, optionally paired with image points.

    Blocks are sorted internally and ordered by their minimum element.  When
    the partition is derived from a map, ``block_images[i]`` is the common
    image of block ``i``.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]
    block_images: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        seen = set()
        prev_min = 0
        for b in self.blocks:
            if not b:
                raise ValueError("blocks must be nonempty")
            if list(b) != sorted(b):
                raise ValueError(f"block {b} is not sorted; use make_partition to canonicalize")
            if b[0] <= prev_min:
                raise ValueError("blocks must be ordered by minimum element")
            prev_min = b[0]
            for x in b:
                if not 1 <= x <= self.n:
                    raise ValueError(f"point {x} outside 1..{self.n}")
                if x in seen:
                    raise ValueError(f"point {x} appears in more than one block")
                seen.add(x)
        if len(seen) != self.n:
            missing = sorted(set(range(1, self.n + 1)) - seen)
            raise ValueError(f"blocks do not cover the chain; missing {missing}")
        if self.block_images is not None:
            imgs = tuple(self.block_images)
            object.__setattr__(self, "block_images", imgs)
            if len(imgs) != len(self.blocks):
                raise ValueError("one image point per block is required")
            if len(set(imgs)) != len(imgs):
                raise ValueError("block image points must be pairwise distinct")
            for v in imgs:
                if not 1 <= v <= self.n:
                    raise ValueError(f"image point {v} outside 1..{self.n}")

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def without_images(self) -> "KernelPartition":
        if self.block_images is None:
            return self
        return KernelPartition(self.n, self.blocks)

    def block_of(self, x: int) -> int:
        """Index of the block containing x."""
        for i, b in enumerate(self.blocks):
            if x in b:
                return i
        raise ValueError(f"point {x} outside 1..{self.n}")

    def __str__(self):
        return partition_to_text(self)


def make_partition(n: int, blocks, images=None) -> KernelPartition:
    """Canonicalize blocks (sort members, order by minimum) and build.

    When ``images`` is given it is reordered alongside the blocks.
    """
    paired = [(tuple(sorted(b)), None if images is None else images[i]) for i, b in enumerate(blocks)]
    paired.sort(key=lambda bv: bv[0][0] if bv[0] else 0)
    blocks_c = tuple(b for b, _ in paired)
    images_c = None if images is None else tuple(v for _, v in paired)
    return KernelPartition(n, blocks_c, images_c)


def kernel(a: ChainMap) -> KernelPartition:
    """Fibers of ``a``, ordered by minimum element, with their image points."""
    fibers: dict[int, list[int]] = {}
    for x, v in enumerate(a.images, start=1):
        fibers.setdefault(v, []).append(x)
    items = sorted(fibers.items(), key=lambda kv: kv[1][0])
    return KernelPartition(
        a.n,
        tuple(tuple(b) for _, b in items),
        tuple(v for v, _ in items),
    )


@dataclass(frozen=True)
class Transversal:
    """One point per block of a parent partition, stored sorted."""

    points: tuple[int, ...]
    parent: KernelPartition

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        pts = set(self.points)
        if len(pts) != len(self.points) or list(self.points) != sorted(self.points):
            raise ValueError("transversal points must be sorted and distinct")
        for b in self.parent.blocks:
            hits = pts.intersection(b)
            if len(hits) != 1:
                raise ValueError(f"block {b} meets the transversal {len(hits)} times, expected once")
        if len(self.points) != self.parent.block_count:
            raise ValueError("transversal size must equal the number of blocks")


def transversals(k: KernelPartition) -> list[Transversal]:
    """All block-wise systems of representatives.

    Enumeration order is lexicographic in the chosen representatives, block by
    block, for reproducible reports.
    """
    return [Transversal(tuple(sorted(choice)), k) for choice in product(*k.blocks)]


def is_convex(t: Transversal) -> bool:
    """True iff the points form a contiguous integer interval."""
    pts = t.points
    return pts[-1] - pts[0] + 1 == len(pts)


def is_relatively_convex(t: Transversal) -> bool:
    """True iff no domain point strictly between two picked points is omitted.

    The domain of a full map is the whole chain, so for the partitions built
    here this coincides with convexity; the definition is kept literal so that
    the coincidence can be asserted rather than assumed.
    """
    pts = set(t.points)
    for x, y in combinations(t.points, 2):
        lo, hi = (x, y) if x < y else (y, x)
        for z in range(lo + 1, hi):
            if z not in pts:
                return False
    return True


def collapse_map(k: KernelPartition, t: Transversal) -> ChainMap:
    """The map sending every point of a block to that block's picked point."""
    pts = set(t.points)
    word = [0] * k.n
    for b in k.blocks:
        rep = next(p for p in b if p in pts)
        for x in b:
            word[x - 1] = rep
    return ChainMap(k.n, tuple(word))


def is_admissible(t: Transversal) -> bool:
    """True iff collapsing each block onto its picked point is a contraction."""
    return is_contraction(collapse_map(t.parent, t))


def has_convex_transversal(k: KernelPartition) -> bool:
    """True iff some transversal of ``k`` is a contiguous interval.

    An interval of length ``block_count`` is a transversal exactly when it
    meets every block, so a window scan suffices; tests cross-check this
    against full transversal enumeration.
    """
    p = k.block_count
    for lo in range(1, k.n - p + 2):
        hi = lo + p
        if all(any(lo <= x < hi for x in b) for b in k.blocks):
            return True
    return False


def _set_partitions(items: tuple[int, ...]):
    """All partitions of ``items``; deterministic order, canonical blocks."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        for i in range(len(sub)):
            grown = tuple(
                tuple(sorted(sub[j] + ((first,) if j == i else ()))) for j in range(len(sub))
            )
            yield tuple(sorted(grown, key=lambda b: b[0]))
        yield tuple(sorted(sub + ((first,),), key=lambda b: b[0]))


def refinements(k: KernelPartition) -> list[KernelPartition]:
    """Every partition whose blocks sit inside blocks of ``k``.

    Includes ``k`` itself and the all-singleton partition.  The count is the
    product of Bell numbers of the block sizes, so this is only usable at
    desk scale (see limits).
    """
    check_refinement_scan(k.n)
    per_block = [list(_set_partitions(b)) for b in k.blocks]
    out = []
    for combo in product(*per_block):
        merged: list[tuple[int, ...]] = []
        for part in combo:
            merged.extend(part)
        merged.sort(key=lambda b: b[0])
        out.append(KernelPartition(k.n, tuple(merged)))
    return out


def _refines(p: KernelPartition, q: KernelPartition) -> bool:
    """True iff every block of ``p`` is contained in some block of ``q``."""
    owner = {x: i for i, b in enumerate(q.blocks) for x in b}
    return all(len({owner[x] for x in b}) == 1 for b in p.blocks)


def _interval_transversal_reps(p: KernelPartition, lo: int):
    """Representatives block -> point for the window [lo, lo+p), or None."""
    hi = lo + p.block_count
    reps = []
    for b in p.blocks:
        hits = [x for x in b if lo <= x < hi]
        if len(hits) != 1:
            return None
        reps.append(hits[0])
    return reps


def _admissible_convex_transversal_exists(p: KernelPartition) -> bool:
    for lo in range(1, p.n - p.block_count + 2):
        reps = _interval_transversal_reps(p, lo)
        if reps is None:
            continue
        word = [0] * p.n
        for b, rep in zip(p.blocks, reps):
            for x in b:
                word[x - 1] = rep
        if _word_is_contraction(tuple(word)):
            return True
    return False


def _meet(parts: list[KernelPartition]) -> KernelPartition:
    """Common refinement: nonempty pairwise intersections of blocks."""
    current = [set(b) for b in parts[0].blocks]
    for q in parts[1:]:
        nxt = []
        for b in current:
            for c in q.blocks:
                inter = b.intersection(c)
                if inter:
                    nxt.append(inter)
        current = nxt
    blocks = tuple(sorted((tuple(sorted(b)) for b in current), key=lambda b: b[0]))
    return KernelPartition(parts[0].n, blocks)


def _coarsest_with(k: KernelPartition, good) -> KernelPartition:
    goods = [p for p in refinements(k.without_images()) if good(p)]
    # The all-singleton partition always qualifies, so goods is nonempty.
    for m in goods:
        if all(_refines(p, m) for p in goods):
            return m
    maxima = [q for q in goods if not any(q2 != q and _refines(q, q2) for q2 in goods)]
    return _meet(maxima)


@lru_cache(maxsize=None)
def _max_convex_refinement_of(k: KernelPartition) -> KernelPartition:
    return _coarsest_with(k, _admissible_convex_transversal_exists)


def max_convex_refinement(a: ChainMap) -> KernelPartition:
    """The coarsest refinement of the kernel that collapses convexly.

    Searched over refinements possessing a convex transversal whose collapse
    map is itself a contraction (equivalently, refinements that arise as the
    kernel of a contraction).  If no single coarsest such refinement contains
    all the others, the common refinement of the maximal ones is returned;
    the ``refinement-readings`` check reports whether that clause ever fires.
    """
    if not is_contraction(a):
        raise ValueError(f"{a} is not a contraction")
    return _max_convex_refinement_of(kernel(a).without_images())


def coarsest_merely_convex_refinement(k: KernelPartition) -> KernelPartition:
    """Same scan, but requiring only a convex transversal (no contraction
    condition on the collapse).  Exposed so the two readings can be compared
    by the verify suite."""
    return _coarsest_with(k.without_images(), has_convex_transversal)


def is_isometry_on(t: Transversal, a: ChainMap) -> bool:
    """True iff ``a`` preserves all pairwise distances between the points of ``t``.

    ``t`` must be a transversal of the kernel of ``a``.
    """
    if t.parent.blocks != kernel(a).blocks:
        raise ValueError("transversal does not belong to the kernel of this map")
    pts = t.points
    return all(abs(x - y) == abs(a(x) - a(y)) for x, y in combinations(pts, 2))


@lru_cache(maxsize=None)
def convex_refinement_transversals(k: KernelPartition) -> tuple[tuple[int, ...], ...]:
    """Intervals that occur as an admissible convex transversal of some
    refinement of ``k``.

    An interval T qualifies exactly when there is an assignment f of every
    chain point to a point of T inside its own block, fixing T pointwise,
    such that f is a contraction: the fibers of f are then a refinement of
    ``k`` with transversal T and contraction collapse f.
    """
    check_refinement_scan(k.n)
    n = k.n
    block_of = {x: i for i, b in enumerate(k.blocks) for x in b}
    p = k.block_count
    found = []
    for size in range(p, n + 1):
        for lo in range(1, n - size + 2):
            T = tuple(range(lo, lo + size))
            if len({block_of[t] for t in T}) != p:
                continue
            if _contraction_assignment_exists(block_of, n, T):
                found.append(T)
    return tuple(found)


def _contraction_assignment_exists(block_of, n, T) -> bool:
    t_set = set(T)
    pending = [x for x in range(1, n + 1) if x not in t_set]
    candidates = []
    for x in pending:
        cand = [t for t in T if block_of[t] == block_of[x]]
        if not cand:
            return False
        candidates.append(cand)
    assigned = {t: t for t in T}

    def backtrack(i: int) -> bool:
        if i == len(pending):
            return True
        x = pending[i]
        for v in candidates[i]:
            if all(abs(v - w) <= abs(x - y) for y, w in assigned.items()):
                assigned[x] = v
                if backtrack(i + 1):
                    return True
                del assigned[x]
        return False

    return backtrack(0)


# -- text and JSON encodings -------------------------------------------------
#
# Text form: blocks in canonical order, e.g. "{1}|{2,3}|{4,6}|{5}".
# JSON object form: {"n": 6, "blocks": [[1], [2, 3], [4, 6], [5]]}.


def partition_to_text(k: KernelPartition) -> str:
    return "|".join("{" + ",".join(str(x) for x in b) + "}" for b in k.blocks)


def partition_to_json(k: KernelPartition) -> dict:
    obj: dict = {"n": k.n, "blocks": [list(b) for b in k.blocks]}
    if k.block_images is not None:
        obj["images"] = list(k.block_images)
    return obj


def partition_from_json(obj: dict) -> KernelPartition:
    images = obj.get("images")
    return make_partition(
        int(obj["n"]),
        [tuple(int(x) for x in b) for b in obj["blocks"]],
        None if images is None else [int(v) for v in images],
    )
