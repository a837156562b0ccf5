"""Green's relations and their starred variants: oracles and fast paths.

Every characterized predicate here ships next to a brute-force oracle, and
the verify suite treats any disagreement between the two as a hard failure.
Oracles work purely from products; characterized predicates work from kernel
and image data of the two maps alone.

Relation kinds are the strings ``l r h d j lstar rstar hstar dstar``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .limits import check_refinement_scan
from .maps import ChainMap, FamilyTag, height, image, is_contraction
from .partitions import convex_refinement_transversals, has_convex_transversal, kernel
from .semigroups import FiniteSemigroup, idempotent_indices, row_blocks, subsemigroup

__all__ = [
    "RelationPartition",
    "green_oracle",
    "characterized_rows",
    "char_partition",
    "starred_partition",
    "lstar_oracle",
    "rstar_oracle",
    "r_char",
    "l_char",
    "d_char",
    "starred_char",
    "is_left_abundant",
    "is_right_abundant",
    "abundance_witness",
    "is_l_unipotent",
    "is_r_unipotent",
    "unipotence_witness",
    "regular_char_ct",
    "regular_char_orct",
    "regular_char_oct",
]

GREEN_KINDS = ("l", "r", "h", "d", "j")
STARRED_KINDS = ("lstar", "rstar", "hstar", "dstar")

# Direct two-sided-ideal computation is quadratic in memory; bigger carriers
# fall back to reachability components, which tests assert equivalent.
_J_DIRECT_MAX = 1200


@dataclass(frozen=True)
class RelationPartition:
    """A partition of a carrier's element indices under one relation kind."""

    semigroup: object
    kind: str
    classes: tuple[frozenset[int], ...]
    method: str

    def __post_init__(self):
        size = self.semigroup.size
        seen: set[int] = set()
        for c in self.classes:
            if seen.intersection(c):
                raise ValueError("classes overlap")
            seen.update(c)
        if seen != set(range(size)):
            raise ValueError("classes do not cover the carrier")
        lookup = {}
        for ci, c in enumerate(self.classes):
            for i in c:
                lookup[i] = ci
        object.__setattr__(self, "_lookup", lookup)

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def class_index_of(self, i: int) -> int:
        return self._lookup[i]

    def same_class(self, i: int, j: int) -> bool:
        return self._lookup[i] == self._lookup[j]

    def refines(self, other: "RelationPartition") -> bool:
        return all(len({other._lookup[i] for i in c}) == 1 for c in self.classes)


def _grouped(size: int, keys) -> tuple[frozenset[int], ...]:
    groups: dict = {}
    for i in range(size):
        groups.setdefault(keys[i], []).append(i)
    classes = [frozenset(members) for members in groups.values()]
    classes.sort(key=min)
    return tuple(classes)


class _UnionFind:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _join_classes(size: int, *partitions) -> tuple[frozenset[int], ...]:
    uf = _UnionFind(size)
    for classes in partitions:
        for c in classes:
            members = sorted(c)
            for i in members[1:]:
                uf.union(members[0], i)
    return _grouped(size, [uf.find(i) for i in range(size)])


def _per_carrier(fn):
    """Compute ``fn(s, *args)`` once per carrier.

    Carriers are immutable, so keys and class labels derived from their
    products are stored on the instance and shared by every relation kind
    built on them.
    """

    @wraps(fn)
    def cached(s, *args):
        memo = vars(s).setdefault("_relation_memo", {})
        key = (fn.__name__, *args)
        if key not in memo:
            memo[key] = fn(s, *args)
        return memo[key]

    return cached


@_per_carrier
def _ideal_keys(s, side: str) -> list[np.ndarray]:
    """Sorted principal ideal of each element a in S^1: {x*a : x in S} with a
    itself for side "l", {a*x : x in S} with a for side "r".

    Membership rows are filled one block of elements at a time, so no
    size x size matrix is held.
    """
    size = s.size
    table = s.table()
    keys = []
    for block in row_blocks(np.arange(size), size):
        products = table[:, block].T if side == "l" else table[block, :]
        member = np.zeros((len(block), size), dtype=bool)
        rows = np.arange(len(block))[:, None]
        member[rows, products] = True
        member[rows[:, 0], block] = True
        keys.extend(np.flatnonzero(row).astype(np.int32) for row in member)
    return keys


@_per_carrier
def _ideal_labels(s, side: str) -> tuple[int, ...]:
    """Equal labels exactly when the principal ideals on ``side`` are equal."""
    return _canon(k.tobytes() for k in _ideal_keys(s, side))


def _assert_eggbox(classes_d, lkeys, rkeys) -> None:
    # D is computed as the join of L and R; it must also equal their
    # composition, which shows up as every L x R cell of a D-class being
    # occupied.
    for c in classes_d:
        ls = {lkeys[i] for i in c}
        rs = {rkeys[i] for i in c}
        pairs = {(lkeys[i], rkeys[i]) for i in c}
        if len(pairs) != len(ls) * len(rs):
            raise RuntimeError("join of L and R is not their composition; product machinery is broken")


def _two_sided_classes(s) -> tuple[frozenset[int], ...]:
    size = s.size
    lkeys, rkeys = _ideal_keys(s, "l"), _ideal_keys(s, "r")
    if size <= _J_DIRECT_MAX:
        # Principal two-sided ideal: right ideals of everything in S^1 a.
        membership = np.zeros((size, size), dtype=bool)
        for b in range(size):
            membership[b, rkeys[b]] = True
        keys = []
        for a in range(size):
            keys.append(membership[lkeys[a]].any(axis=0).tobytes())
        return _grouped(size, keys)
    # Reachability route: J-classes are the mutually-reachable groups under
    # one-step left/right multiplication; computed on the D-quotient, which is
    # sound because D refines J.
    classes_d = _join_classes(
        size, _grouped(size, _ideal_labels(s, "l")), _grouped(size, _ideal_labels(s, "r"))
    )
    cls = np.empty(size, dtype=np.int32)
    for ci, c in enumerate(classes_d):
        cls[list(c)] = ci
    adj: list[set[int]] = [set() for _ in classes_d]
    for a in range(size):
        adj[cls[a]].update(cls[lkeys[a]].tolist(), cls[rkeys[a]].tolist())
    reach = []
    for start in range(len(classes_d)):
        seen = {start}
        stack = [start]
        while stack:
            for t in adj[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        reach.append(seen)
    keys = []
    for ci in cls.tolist():
        keys.append(frozenset(c for c in reach[ci] if ci in reach[c]))
    return _grouped(size, keys)


def green_oracle(s, kind: str) -> RelationPartition:
    """Brute-force Green's relation on a carrier, from principal ideals.

    ``l``/``r``/``j`` come from ideal equality (with an identity formally
    adjoined); ``h`` is their intersection and ``d`` the join of l and r,
    asserted en route to equal their composition.
    """
    kind = kind.lower()
    if kind not in GREEN_KINDS:
        raise ValueError(f"unknown Green's relation kind {kind!r}")
    if kind == "j":
        return RelationPartition(s, "j", _two_sided_classes(s), "oracle")
    lkeys = _ideal_labels(s, "l")
    if kind == "l":
        return RelationPartition(s, "l", _grouped(s.size, lkeys), "oracle")
    rkeys = _ideal_labels(s, "r")
    if kind == "r":
        return RelationPartition(s, "r", _grouped(s.size, rkeys), "oracle")
    if kind == "h":
        return RelationPartition(s, "h", _grouped(s.size, list(zip(lkeys, rkeys))), "oracle")
    classes_d = _join_classes(s.size, _grouped(s.size, lkeys), _grouped(s.size, rkeys))
    _assert_eggbox(classes_d, lkeys, rkeys)
    return RelationPartition(s, "d", classes_d, "oracle")


# -- starred relations -------------------------------------------------------


def lstar_oracle(s, a: ChainMap, b: ChainMap) -> bool:
    """Definitional check: a*x = a*y iff b*x = b*y for all x, y in S^1."""
    ia, ib = s.index_of(a), s.index_of(b)
    size = s.size
    ra = [s.product(ia, x) for x in range(size)] + [ia]  # trailing slot: identity
    rb = [s.product(ib, x) for x in range(size)] + [ib]
    for x in range(size + 1):
        for y in range(x + 1, size + 1):
            if (ra[x] == ra[y]) != (rb[x] == rb[y]):
                return False
    return True


def rstar_oracle(s, a: ChainMap, b: ChainMap) -> bool:
    """Definitional check: x*a = y*a iff x*b = y*b for all x, y in S^1."""
    ia, ib = s.index_of(a), s.index_of(b)
    size = s.size
    ca = [s.product(x, ia) for x in range(size)] + [ia]
    cb = [s.product(x, ib) for x in range(size)] + [ib]
    for x in range(size + 1):
        for y in range(x + 1, size + 1):
            if (ca[x] == ca[y]) != (cb[x] == cb[y]):
                return False
    return True


def _canon(seq) -> tuple[int, ...]:
    first: dict = {}
    return tuple(first.setdefault(v, len(first)) for v in seq)


@_per_carrier
def _fingerprint_labels(s, side: str) -> tuple[int, ...]:
    # side "l": partition of S^1 induced by x -> a*x (grouped by fiber);
    # side "r": by x -> x*a.  Two elements are starred-related exactly when
    # these partitions coincide, so a canonical renumbering is a class key.
    # Only the labels of the distinct keys are kept.
    table = s.table()

    def fingerprints():
        for a in range(s.size):
            row = (table[a, :] if side == "l" else table[:, a]).tolist()
            row.append(a)  # formal identity column
            yield _canon(row)

    return _canon(fingerprints())


def starred_partition(s, kind: str) -> RelationPartition:
    """Starred Green's relation classes, from the cancellation fingerprints.

    Tests assert these agree with the pairwise definitional oracles.
    """
    kind = kind.lower()
    if kind not in STARRED_KINDS:
        raise ValueError(f"unknown starred relation kind {kind!r}")
    lfp = _fingerprint_labels(s, "l")
    if kind == "lstar":
        return RelationPartition(s, "lstar", _grouped(s.size, lfp), "oracle")
    rfp = _fingerprint_labels(s, "r")
    if kind == "rstar":
        return RelationPartition(s, "rstar", _grouped(s.size, rfp), "oracle")
    if kind == "hstar":
        return RelationPartition(s, "hstar", _grouped(s.size, list(zip(lfp, rfp))), "oracle")
    classes = _join_classes(s.size, _grouped(s.size, lfp), _grouped(s.size, rfp))
    return RelationPartition(s, "dstar", classes, "oracle")


# -- characterized relations as per-element keys -------------------------------
#
# Every characterization reads the kernel and image of each map alone, so it is
# a per-element key.  For r and the starred kinds each map has one label; for
# l and d it has a set of keys (collapse profiles, or kernel patterns with the
# height), and a matches b when a key of b is a key of a or its reflection.


def _require_contraction(a: ChainMap) -> None:
    if not is_contraction(a):
        raise ValueError(f"{a} is not a contraction")


def _require_pair(a: ChainMap, b: ChainMap) -> None:
    if a.n != b.n:
        raise ValueError(f"maps live on chains of size {a.n} and {b.n}")
    _require_contraction(a)
    _require_contraction(b)


@lru_cache(maxsize=None)
def _collapse_profiles(a: ChainMap) -> frozenset[tuple[int, ...]]:
    """Value tuples of ``a`` along every admissible convex refinement
    transversal of its kernel."""
    k = kernel(a).without_images()
    return frozenset(
        tuple(a.images[t - 1] for t in T) for T in convex_refinement_transversals(k)
    )


@lru_cache(maxsize=None)
def _kernel_patterns(a: ChainMap) -> frozenset[tuple[int, ...]]:
    """Canonical fiber-grouping patterns of the good transversals.

    Each admissible convex refinement transversal T of the kernel yields the
    sequence "which kernel block contains t_i", renumbered by first
    occurrence.
    """
    k = kernel(a)
    block_of = {x: i for i, blk in enumerate(k.blocks) for x in blk}
    bare = k.without_images()
    return frozenset(
        _canon(tuple(block_of[t] for t in T)) for T in convex_refinement_transversals(bare)
    )


def _label(fn):
    return lambda a: frozenset((fn(a),))


def _kernel_word(a: ChainMap) -> tuple[int, ...]:
    # Entry x - 1 numbers the fiber of x, fibers ordered by least point, so
    # two words are equal exactly when the kernels' blocks are.
    return _canon(a.images)


def _d_keys(a: ChainMap) -> frozenset:
    h = height(a)
    return frozenset((h, q) for q in _kernel_patterns(a))


# kind -> (keys of a map, reflection of one key or None)
_CHAR_KEYS = {
    "l": (_collapse_profiles, lambda t: t[::-1]),
    "r": (_label(_kernel_word), None),
    "d": (_d_keys, lambda hq: (hq[0], _canon(reversed(hq[1])))),
    "lstar": (_label(image), None),
    "rstar": (_label(_kernel_word), None),
    "hstar": (_label(lambda a: (image(a), _kernel_word(a))), None),
    "dstar": (_label(height), None),
}


def _probes(kind: str, a: ChainMap) -> frozenset:
    keys_of, reflect = _CHAR_KEYS[kind]
    keys = keys_of(a)
    return keys if reflect is None else keys | {reflect(k) for k in keys}


def _char_related(kind: str, a: ChainMap, b: ChainMap) -> bool:
    """a and b are related exactly when a key of b is a key of a or its reflection."""
    return not _probes(kind, a).isdisjoint(_CHAR_KEYS[kind][0](b))


def starred_char(a: ChainMap, b: ChainMap, kind: str) -> bool:
    """Characterized starred relations: image, kernel, both, or height equality."""
    if a.n != b.n:
        raise ValueError(f"maps live on chains of size {a.n} and {b.n}")
    kind = kind.lower()
    if kind not in STARRED_KINDS:
        raise ValueError(f"unknown starred relation kind {kind!r}")
    return _char_related(kind, a, b)


def r_char(a: ChainMap, b: ChainMap) -> bool:
    """Contractions are R-related exactly when their kernels coincide."""
    _require_pair(a, b)
    return _char_related("r", a, b)


def l_char(a: ChainMap, b: ChainMap) -> bool:
    """Characterized L on contractions.

    a and b are L-related exactly when their kernels admit refinements with
    admissible convex transversals T_a = {t_1 < ... < t_s} and
    T_b = {u_1 < ... < u_s} of a common size such that either
    a(t_i) = b(u_i) for all i (translation pairing) or
    a(t_i) = b(u_{s-i+1}) for all i (reflection pairing).
    """
    _require_pair(a, b)
    check_refinement_scan(a.n)
    return _char_related("l", a, b)


def d_char(a: ChainMap, b: ChainMap) -> bool:
    """Characterized D on contractions.

    Heights must agree (the images are convex, so an isometry between them is
    exactly a size match), and the two kernels must admit refinement
    transversals of a common size whose fiber-grouping patterns match under a
    translation or a reflection of the transversal.  Matching patterns let the
    transversal isometry transport one kernel's collapse onto the other, which
    is the composition of an R-step (kernel preserved) with an L-step.  The
    verify suite compares this verdict against the ideal-based D oracle.
    """
    _require_pair(a, b)
    check_refinement_scan(a.n)
    return _char_related("d", a, b)


def characterized_rows(s, kind: str):
    """A characterized relation on a carrier, as a row function.

    ``rows(i)`` is a boolean array over the carrier's indices marking every j
    with ``char(element_i, element_j)``.  Keys are computed and validated once
    per element; an inverted index from each key to the elements holding it
    makes a row O(size) numpy work, so scanning every pair does no pairwise
    Python work.  ``h`` is the conjunction of ``l`` and ``r``.
    """
    kind = kind.lower()
    if kind == "h":
        l_rows, r_rows = characterized_rows(s, "l"), characterized_rows(s, "r")
        return lambda i: l_rows(i) & r_rows(i)
    if kind not in _CHAR_KEYS:
        raise ValueError(f"no characterized procedure for relation kind {kind!r}")
    if kind in ("l", "r", "d"):
        for a in s.elements:
            _require_contraction(a)
        if kind != "r":
            check_refinement_scan(s.n)
    keys_of = _CHAR_KEYS[kind][0]
    buckets: dict = {}
    for i, a in enumerate(s.elements):
        for key in keys_of(a):
            buckets.setdefault(key, []).append(i)
    probes = [_probes(kind, a) for a in s.elements]
    index = {key: np.array(members, dtype=np.int32) for key, members in buckets.items()}
    size = s.size

    def rows(i: int) -> np.ndarray:
        row = np.zeros(size, dtype=bool)
        for p in probes[i]:
            if p in index:
                row[index[p]] = True
        return row

    return rows


def char_partition(s, kind: str) -> RelationPartition:
    """Classes of a characterized relation: connected components of its rows.

    Each sweep takes the rows of a class's members masked by the still
    unassigned elements, so even a non-transitive characterization yields a
    partition; the verify suites compare rows with the oracles pair by pair
    rather than trusting transitivity.
    """
    rows = characterized_rows(s, kind)
    unassigned = np.ones(s.size, dtype=bool)
    classes = []
    for start in range(s.size):
        if not unassigned[start]:
            continue
        unassigned[start] = False
        members = [start]
        stack = [start]
        while stack:
            fresh = np.flatnonzero(rows(stack.pop()) & unassigned)
            unassigned[fresh] = False
            members.extend(fresh.tolist())
            stack.extend(fresh.tolist())
        classes.append(frozenset(members))
    return RelationPartition(s, kind, tuple(classes), "char")


# -- abundance and unipotence -------------------------------------------------


def _require_contraction_family(s: FiniteSemigroup) -> None:
    if getattr(s, "family", None) not in ("ct", "oct", "orct"):
        raise ValueError(
            f"abundance verdicts are defined here for the contraction families, got {s.family!r}"
        )


def abundance_witness(s: FiniteSemigroup, side: str):
    """A starred class with no idempotent, as a tuple of maps, or None.

    ``side`` is "left" (scan lstar classes) or "right" (scan rstar classes).
    """
    _require_contraction_family(s)
    kind = {"left": "lstar", "right": "rstar"}[side]
    part = starred_partition(s, kind)
    ids = set(idempotent_indices(s))
    for c in part.classes:
        if not ids.intersection(c):
            return tuple(s.elements[i] for i in sorted(c))
    return None


def is_left_abundant(s: FiniteSemigroup) -> bool:
    """True iff every L*-class contains an idempotent."""
    return abundance_witness(s, "left") is None


def is_right_abundant(s: FiniteSemigroup) -> bool:
    """True iff every R*-class contains an idempotent."""
    return abundance_witness(s, "right") is None


def _non_unipotent_class(carrier, side: str):
    """The first L- (side "l") or R-class (side "r") of a carrier whose
    idempotent count is not 1, or None."""
    ids = set(idempotent_indices(carrier))
    for c in green_oracle(carrier, side).classes:
        if len(ids.intersection(c)) != 1:
            return c
    return None


def unipotence_witness(s: FiniteSemigroup, subset, side: str):
    """A Green's class of the subset with idempotent count != 1, or None.

    ``side`` "l" scans L-classes, "r" scans R-classes, of the subset viewed
    as a semigroup in its own right.
    """
    sub = subsemigroup(s, subset)
    c = _non_unipotent_class(sub, side)
    return None if c is None else tuple(sub.elements[i] for i in sorted(c))


def is_l_unipotent(s: FiniteSemigroup, subset) -> bool:
    """True iff each L-class of the subset holds exactly one idempotent."""
    return unipotence_witness(s, subset, "l") is None


def is_r_unipotent(s: FiniteSemigroup, subset) -> bool:
    """True iff each R-class of the subset holds exactly one idempotent."""
    return unipotence_witness(s, subset, "r") is None


# -- characterized regularity --------------------------------------------------


def regular_char_ct(a: ChainMap) -> bool:
    """A contraction is regular exactly when its kernel has a convex transversal."""
    _require_contraction(a)
    return has_convex_transversal(kernel(a))


def _orct_mode(blocks, ys) -> bool:
    d = max(blocks[0]) - ys[0]
    if min(blocks[-1]) - ys[-1] != d:
        return False
    return all(blocks[i] == (ys[i] + d,) for i in range(1, len(blocks) - 1))


def regular_char_orct(a: ChainMap) -> bool:
    """Arithmetic regularity test for order-preserving or -reversing contractions.

    With blocks A_1 < ... < A_p and image points x_1, ..., x_p, the map is
    regular exactly when, for some common offset d, either
    max A_1 - x_1 = min A_p - x_p = d with A_i = {x_i + d} for interior i,
    or the reflected variant max A_1 - x_p = min A_p - x_1 = d with
    A_i = {x_(p-i+1) + d}.  Constant maps are regular outright.
    """
    if not FamilyTag.ORCT.contains(a):
        raise ValueError(f"{a} is not an order-preserving or order-reversing contraction")
    k = kernel(a)
    if k.block_count == 1:
        return True
    xs = k.block_images
    return _orct_mode(k.blocks, xs) or _orct_mode(k.blocks, xs[::-1])


def regular_char_oct(a: ChainMap) -> bool:
    """Arithmetic regularity test for order-preserving contractions (no
    reflected variant)."""
    if not FamilyTag.OCT.contains(a):
        raise ValueError(f"{a} is not an order-preserving contraction")
    k = kernel(a)
    if k.block_count == 1:
        return True
    return _orct_mode(k.blocks, k.block_images)
