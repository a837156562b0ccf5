"""Kernel partitions, transversals, and refinement scans.

The kernel of a map is its partition into fibers.  A transversal picks one
point per block; it is *convex* when the picked points form a contiguous
interval, and *admissible* when collapsing every block onto its picked point
yields a contraction.

Internal paths read a partition as its word, a restricted growth string
(see ``kernel_word``), or as its block masks: per point x, the bitmask of
the block of x (see ``_block_masks``).  The characterized Green's relation
keys read ``refinement_windows``, the admissible convex transversals of a
kernel's refinements, each decided at any n by two bitmask sweeps over the
masks.  The refinement enumerations (guarded at n <= 7) generate the words
of a kernel's refinements and cache per word its masks, packed n bits per
point, and whether it has a convex and an admissible window: a partition
refines another exactly when its packed masks are a subset of the other's.
Both coarsest readings of a kernel come from one generation of its
refinement words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations, product
from operator import and_, or_

from .limits import check_refinement_scan
from .maps import ChainMap, is_contraction

__all__ = [
    "KernelPartition",
    "Transversal",
    "make_partition",
    "kernel",
    "kernel_word",
    "transversals",
    "is_convex",
    "convex_windows",
    "is_relatively_convex",
    "is_admissible",
    "collapse_map",
    "has_convex_transversal",
    "refinements",
    "max_convex_refinement",
    "is_isometry_on",
    "convex_refinement_transversals",
    "refinement_windows",
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


def kernel_word(images) -> tuple[int, ...]:
    """The kernel of the map with these images as a word: entry x - 1 numbers
    the fiber of x from 0, fibers ordered by least point."""
    first: dict = {}
    return tuple(first.setdefault(v, len(first)) for v in images)


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


def _word(k: KernelPartition) -> tuple[int, ...]:
    """The word of ``k``: entry x - 1 is the index of the block of x."""
    word = [0] * k.n
    for i, b in enumerate(k.blocks):
        for x in b:
            word[x - 1] = i
    return tuple(word)


def convex_windows(word) -> list[int]:
    """Starts ``lo`` of the intervals [lo, lo + p) that meet every one of the
    p blocks of the partition with word ``word``, in increasing order.

    Such an interval meets each block exactly once, so these are exactly the
    convex transversals: the windows of p points that lie in pairwise
    distinct blocks.
    """
    p = max(word) + 1
    return [lo for lo in range(1, len(word) - p + 2) if len(set(word[lo - 1 : lo - 1 + p])) == p]


def has_convex_transversal(k: KernelPartition) -> bool:
    """True iff some transversal of ``k`` is a contiguous interval.

    An interval of length ``block_count`` is a transversal exactly when it
    meets every block, so a window scan suffices; tests cross-check this
    against full transversal enumeration.
    """
    return bool(convex_windows(_word(k)))


def _block_masks(word) -> list[int]:
    """Entry x - 1 has bit y - 1 set for each point y in the block of x."""
    block = [0] * (max(word) + 1)
    for i, g in enumerate(word):
        block[g] |= 1 << i
    return [block[g] for g in word]


def _admissible(masks: list[int], lo: int, p: int) -> bool:
    """True iff some contraction f fixes T = [lo, lo + p) pointwise and sends
    each point x into T inside its block, ``masks[x - 1]``: f's fibers are then
    a refinement with T as an admissible convex transversal.  Adjacent steps
    of f are at most 1, so two sweeps outward from the ends of T decide it,
    ``values`` holding the points f may send the next point to."""
    inside = ((1 << p) - 1) << (lo - 1)
    for end, step, stop in ((lo - 1, -1, -1), (lo + p - 2, 1, len(masks))):
        values = 1 << end
        for x in range(end + step, stop, step):
            values = (values | values << 1 | values >> 1) & inside & masks[x]
            if not values:
                return False
    return True


def _from_word(word) -> KernelPartition:
    """The partition with word ``word``."""
    blocks = [[] for _ in range(max(word) + 1)]
    for x, g in enumerate(word, start=1):
        blocks[g].append(x)
    return KernelPartition(len(word), blocks)


def _refinement_words(word) -> list[tuple[int, ...]]:
    """The words of the refinements of ``word``'s partition, in lexicographic
    order: each point joins an earlier block that lies inside its own kernel
    block, or opens the next block."""
    check_refinement_scan(len(word))
    grown = [((), ())]  # (word so far, kernel block of each of its blocks)
    for g in word:
        grown = [
            (w + (b,), owners if b < len(owners) else owners + (g,))
            for w, owners in grown
            for b in [i for i, o in enumerate(owners) if o == g] + [len(owners)]
        ]
    return [w for w, _ in grown]


@cache  # one entry per refinement word: at most Bell(7) = 877
def _refinement_facts(word) -> tuple[int, bool, bool]:
    """The word's ``_block_masks`` packed n bits per point, whether it has a
    convex window, and whether one of those windows passes ``_admissible``.
    A partition refines another exactly when its packed masks are a subset
    of the other's."""
    masks, windows = _block_masks(word), convex_windows(word)
    packed = sum(m << len(word) * x for x, m in enumerate(masks))
    return packed, bool(windows), any(_admissible(masks, lo, max(word) + 1) for lo in windows)


def refinements(k: KernelPartition) -> list[KernelPartition]:
    """Every partition whose blocks sit inside blocks of ``k``.

    Includes ``k`` itself and the all-singleton partition, in the
    lexicographic order of their restricted growth strings.  The count is the
    product of Bell numbers of the block sizes, so scans are only run at desk
    scale (see limits).
    """
    return [_from_word(w) for w in _refinement_words(_word(k))]


def _coarsest(word, admissible: bool) -> KernelPartition:
    """The coarsest refinement of the word's partition with an admissible (or
    merely convex) window, else the meet of the maximal ones."""
    check_refinement_scan(len(word))  # before the cache, so a lowered guard holds
    return _coarsest_readings(word)[0 if admissible else 1]


@cache  # one entry per kernel word asked about: at most 1,155, every word of n <= 7
def _coarsest_readings(word) -> tuple[KernelPartition, KernelPartition]:
    """``_coarsest`` of the word, admissible and merely convex, from one
    generation of its refinement words."""
    n = len(word)
    own = _refinement_facts(word)
    if own[2]:  # an admissible window is convex
        return (_from_word(word),) * 2  # every refinement refines the word's own partition
    facts = [_refinement_facts(w) for w in _refinement_words(word)]
    readings = []
    for column in (2, 1):
        if own[column]:
            readings.append(_from_word(word))
            continue
        # The all-singleton partition always qualifies, so good is nonempty.
        good = [f[0] for f in facts if f[column]]
        top = reduce(or_, good)
        if top not in good:
            # Refinements are distinct, so a maximal one refines only itself.
            top = reduce(and_, [g for g in good if sum(g & h == g for h in good) == 1])
        readings.append(_from_word(kernel_word(top >> n * x & (1 << n) - 1 for x in range(n))))
    return tuple(readings)


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
    return _coarsest(kernel_word(a.images), admissible=True)


def coarsest_merely_convex_refinement(k: KernelPartition) -> KernelPartition:
    """Same scan, but requiring only a convex transversal (no contraction
    condition on the collapse).  Exposed so the two readings can be compared
    by the verify suite."""
    return _coarsest(_word(k), admissible=False)


def is_isometry_on(t: Transversal, a: ChainMap) -> bool:
    """True iff ``a`` preserves all pairwise distances between the points of ``t``.

    ``t`` must be a transversal of the kernel of ``a``.
    """
    if t.parent.blocks != kernel(a).blocks:
        raise ValueError("transversal does not belong to the kernel of this map")
    pts = t.points
    return all(abs(x - y) == abs(a(x) - a(y)) for x, y in combinations(pts, 2))


@cache  # one entry per kernel word asked about: 9,842 at ct10, about 5.5 MB
def refinement_windows(word: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The intervals [lo, lo + p) that pass ``_admissible`` for the partition
    with word ``word``, the admissible convex transversals of its refinements,
    as pairs (lo, p) ordered by size p and then by least point lo."""
    n, masks = len(word), _block_masks(word)
    return tuple((lo, p) for p in range(1, n + 1) for lo in range(1, n - p + 2) if _admissible(masks, lo, p))


def convex_refinement_transversals(k: KernelPartition) -> tuple[tuple[int, ...], ...]:
    """``refinement_windows`` of ``k``, each interval spelled out point by point."""
    return tuple(tuple(range(lo, lo + p)) for lo, p in refinement_windows(_word(k)))


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
