"""Green's relations and their starred variants: oracles and fast paths.

Every characterized predicate here ships next to a brute-force oracle, and
the verify suite treats any disagreement between the two as a hard failure.
Oracles work purely from products; characterized predicates work from kernel
and image data of the two maps alone.  L, R and J are the strongly connected
components of the left, right and two-sided Cayley graphs, read as successor
arrays from ``cayley(side)`` on either carrier type, so they build no product
table.  The starred kinds key the kernel of one row of S^1 products per
Green's class, from ``product_rows`` over the carrier's ``products``.

Relation kinds are the strings ``l r h d j lstar rstar hstar dstar``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import ChainMap, FamilyTag, _word_is_contraction
from .partitions import convex_windows, kernel_word, refinement_windows
from .semigroups import Carrier, FiniteSemigroup, _least_reaching, cayley_components
from .semigroups import idempotent_indices, index_dtype, row_blocks

__all__ = [
    "RelationPartition",
    "green_oracle",
    "characterized_rows",
    "char_partition",
    "starred_partition",
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

@dataclass(frozen=True, eq=False)
class RelationPartition:
    """A partition of a carrier's element indices under one relation kind.

    ``labels[i]`` is the class of element i.  Classes are numbered by least
    member: element 0 is in class 0, and each further class gets the next
    number at its least element.
    """

    semigroup: object
    kind: str
    labels: np.ndarray
    method: str

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.shape != (self.semigroup.size,) or labels.dtype.kind not in "iu":
            raise ValueError(f"labels must be {self.semigroup.size} integers, one per element")
        labels = _labels(labels)
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    @property
    def class_count(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def classes(self) -> tuple[frozenset[int], ...]:
        """The classes as sets of element indices, in class-number order."""
        order = np.argsort(self.labels, kind="stable")
        bounds = np.cumsum(np.bincount(self.labels))[:-1]
        return tuple(frozenset(c.tolist()) for c in np.split(order, bounds))

    def class_index_of(self, i: int) -> int:
        return int(self.labels[i])

    def same_class(self, i: int, j: int) -> bool:
        return bool(self.labels[i] == self.labels[j])

    def refines(self, other: "RelationPartition") -> bool:
        if self.semigroup.elements != other.semigroup.elements:
            raise ValueError("partitions of different carriers cannot be compared")
        least = _least_members(self.labels)
        return bool((other.labels == other.labels[least[self.labels]]).all())


def _labels(keys) -> np.ndarray:
    """int32 class labels numbered by least member: equal keys, equal labels.

    ``keys`` is an integer array, or any sequence of hashable keys.
    """
    if isinstance(keys, np.ndarray):
        keys = keys.tolist()
    return np.array(kernel_word(keys), dtype=np.int32)


def _least_members(labels: np.ndarray) -> np.ndarray:
    """Least element of each class, in class order: where a new number first appears."""
    return np.flatnonzero(np.diff(np.maximum.accumulate(labels), prepend=-1) > 0)


def _pair_labels(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Labels of the intersection of two partitions."""
    return _labels(left.astype(np.int64) * (int(right.max()) + 1) + right)


def _components(size: int, elements: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Connected components of the graph joining element ``elements[k]`` to
    key node ``nodes[k]``, each labelled by its least element: with edges
    both ways and the key nodes numbered last, the least node reaching it."""
    keys = nodes + size
    edges = np.concatenate([elements, keys]), np.concatenate([keys, elements])
    return _least_reaching(*edges, size + int(np.max(nodes, initial=-1)) + 1)[:size]


def _join(*labelings: np.ndarray) -> np.ndarray:
    """Labels of the finest partition that each labelling refines: every
    class of every labelling is one key node."""
    size = len(labelings[0])
    offsets = np.cumsum([0] + [int(labels.max()) + 1 for labels in labelings])
    nodes = np.concatenate([labels + offset for labels, offset in zip(labelings, offsets)])
    return _components(size, np.tile(np.arange(size), len(labelings)), nodes)


def _kernel_keys(rows: np.ndarray, size: int) -> np.ndarray:
    # Which positions of each row share a value: every entry replaced by the
    # position where its value first occurs.  Offsetting each row in place
    # keeps the rows' values apart in one flat buffer; minimum.at is
    # unbuffered and min is order-free, so every slot ends at its value's
    # least position however repeats are applied.  Positions and the fill
    # value, the row width, are int16 while the width fits and int32 beyond.
    width = size + 1
    rows += (np.arange(len(rows), dtype=np.int32) * size)[:, None]
    first = np.full(len(rows) * size, width, dtype=index_dtype(width + 1))
    np.minimum.at(first, rows.ravel(), np.tile(np.arange(width, dtype=first.dtype), len(rows)))
    return first[rows]


def _eggbox_join(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    # D is computed as the join of L and R; it must also equal their
    # composition, which shows up as every L x R cell of a D-class being
    # occupied.
    d = _join(left, right)
    cells, ls, rs = (
        np.bincount(d[_least_members(x)], minlength=int(d.max()) + 1)
        for x in (_pair_labels(left, right), left, right)
    )
    if not np.array_equal(cells, ls * rs):
        raise RuntimeError("join of L and R is not their composition; product machinery is broken")
    return d


# Green's one-sided kinds and J: the sides of the Cayley graph.
_CAYLEY_SIDES = {"l": "l", "r": "r", "j": "lr"}
# Starred one-sided kinds: the Green's kind of the same side, and the side of
# the S^1 products whose rows' kernels are keyed, one row per Green's class.
# a L* b when a*x = a*y exactly when b*x = b*y, the kernels of x -> a*x; R*
# dually.  L lies within L* and R within R* (Fountain 1982), so every member
# of a Green's class has its least member's key.
_KERNEL_SIDE = {"lstar": ("l", "r"), "rstar": ("r", "l")}
# Other kinds: the meet or the join of two one-sided kinds.
_TWO_SIDED = {
    "h": (_pair_labels, "l", "r"),
    "d": (_eggbox_join, "l", "r"),
    "hstar": (_pair_labels, "lstar", "rstar"),
    "dstar": (_join, "lstar", "rstar"),
}


def _oracle_labels(s, kind: str) -> np.ndarray:
    """Class labels of one relation kind, computed once per carrier.

    Carriers are immutable, so the labels are kept on the instance and
    shared by every relation kind built on them.
    """
    memo = vars(s).setdefault("_relation_memo", {})
    if kind not in memo:
        memo[kind] = _product_labels(s, kind)
    return memo[kind]


def _product_labels(s, kind: str) -> np.ndarray:
    """Class labels of one relation kind, from products of the carrier.

    A starred one-sided kind gives each Green's class the kernel key of its
    least member a's row of S^1 products, a itself in the trailing
    formal-identity slot; least members ascend, as the class numbers do.
    """
    if kind in _CAYLEY_SIDES:
        return _labels(cayley_components(s, _CAYLEY_SIDES[kind]))
    if kind in _KERNEL_SIDE:
        green, side = _KERNEL_SIDE[kind]
        classes = _oracle_labels(s, green)
        return _starred_labels(s, _least_members(classes).astype(np.int32), side)[classes]
    combine, left, right = _TWO_SIDED[kind]
    return combine(_oracle_labels(s, left), _oracle_labels(s, right))


def _row_keys(s, reps: np.ndarray, side: str):
    """The kernel key of each rep's row of S^1 products, a row block at a time."""
    for k in row_blocks(reps, s.size + 1):
        yield from _kernel_keys(np.column_stack([s.product_rows(k, side), k]), s.size)


def _digest(key: np.ndarray) -> int:
    # The builtin hash: hashlib would load OpenSSL into every CLI process.
    return hash(key.tobytes())


def _starred_labels(s, reps: np.ndarray, side: str) -> np.ndarray:
    """Per rep, the first-occurrence number of its row's kernel key.

    Keys are numbered by digest and dropped.  On a repeated digest the first
    holder's key is coded once more, kept, and compared in full, so labels
    stay exact and a collision raises instead of merging two classes; only
    keys of classes with a second rep are ever held.
    """
    by_digest: dict = {}  # digest -> [label, first holder, its key once coded again]
    labels = np.empty(len(reps), dtype=np.int32)
    for i, key in enumerate(_row_keys(s, reps, side)):
        entry = by_digest.setdefault(_digest(key), [len(by_digest), reps[i], None])
        if entry[1] != reps[i]:
            if entry[2] is None:
                entry[2] = next(_row_keys(s, np.array([entry[1]]), side))
            if not np.array_equal(entry[2], key):
                raise RuntimeError(
                    f"elements {entry[1]} and {reps[i]} have different starred kernel keys "
                    "with one digest; labels would merge two classes"
                )
        labels[i] = entry[0]
    return labels


def _oracle(s, kind: str, kinds: tuple[str, ...], name: str) -> RelationPartition:
    kind = kind.lower()
    if kind not in kinds:
        raise ValueError(f"unknown {name} relation kind {kind!r}")
    return RelationPartition(s, kind, _oracle_labels(s, kind), "oracle")


def green_oracle(s, kind: str) -> RelationPartition:
    """Brute-force Green's relation on a carrier, from its Cayley graphs.

    ``l``/``r``/``j`` are the strongly connected components of the left,
    right and two-sided Cayley graphs, the successor arrays ``s.cayley``: b is
    reachable from a exactly when b lies in S^1 a, a S^1 or S^1 a S^1, so
    mutual reachability is equality of the principal ideals.  ``h`` is the
    intersection of l and r and ``d`` their join, asserted en route to equal
    their composition.
    """
    return _oracle(s, kind, GREEN_KINDS, "Green's")


def starred_partition(s, kind: str) -> RelationPartition:
    """Starred Green's relation classes, from the cancellation fingerprints."""
    return _oracle(s, kind, STARRED_KINDS, "starred")


# -- characterized relations as per-element keys -------------------------------
#
# Every characterization reads the kernel and image of each map alone, so it is
# a set of per-element keys, the probes below; a and b are related exactly when
# their probes meet.


def _require_contraction(word: tuple[int, ...]) -> None:
    if not _word_is_contraction(word):
        raise ValueError(f"[{','.join(map(str, word))}] is not a contraction")


def _probes(kind: str, word: tuple[int, ...]) -> set:
    """The keys of the map with image word ``word`` for one characterized kind.

    r and rstar key the kernel word, lstar the image, hstar both, dstar the
    height.  l, h and d read the collapse profiles, the values of the map
    along every admissible convex refinement transversal of its kernel, which
    match under a translation or a reflection: each window gives one key, the
    lesser of its profile and the reversal.  l keys that, h keys it beside the
    kernel word, and d keys the lesser of the two renumbered by first
    occurrence, beside the height.  A profile renumbered is the transversal's
    fiber-grouping pattern, "which kernel block holds t_i": blocks and their
    images are in bijection, so the renumbered reversal depends only on the
    renumbered profile.  Two maps share a key exactly when a window of one
    matches a window of the other.
    """
    if kind not in ("l", "r", "h", "d") + STARRED_KINDS:
        raise ValueError(f"no characterized procedure for relation kind {kind!r}")
    if kind not in STARRED_KINDS:
        _require_contraction(word)
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
    profiles = [word[lo - 1 : lo - 1 + p] for lo, p in refinement_windows(kernel)]
    if kind == "d":
        return {(len(points), min(kernel_word(t), kernel_word(t[::-1]))) for t in profiles}
    keys = {min(t, t[::-1]) for t in profiles}
    return keys if kind == "l" else {(kernel, t) for t in keys}


def _char_related(kind: str, a: ChainMap, b: ChainMap) -> bool:
    if a.n != b.n:
        raise ValueError(f"maps live on chains of size {a.n} and {b.n}")
    return not _probes(kind, a.images).isdisjoint(_probes(kind, b.images))


def starred_char(a: ChainMap, b: ChainMap, kind: str) -> bool:
    """Characterized starred relations: image, kernel, both, or height equality."""
    kind = kind.lower()
    if kind not in STARRED_KINDS:
        raise ValueError(f"unknown starred relation kind {kind!r}")
    return _char_related(kind, a, b)


def r_char(a: ChainMap, b: ChainMap) -> bool:
    """Contractions are R-related exactly when their kernels coincide."""
    return _char_related("r", a, b)


def l_char(a: ChainMap, b: ChainMap) -> bool:
    """Characterized L on contractions.

    a and b are L-related exactly when their kernels admit refinements with
    admissible convex transversals T_a = {t_1 < ... < t_s} and
    T_b = {u_1 < ... < u_s} of a common size such that either
    a(t_i) = b(u_i) for all i (translation pairing) or
    a(t_i) = b(u_{s-i+1}) for all i (reflection pairing).
    """
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
    return _char_related("d", a, b)


def _probe_edges(s, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Every (element, probe) pair of a carrier: a and b are related exactly
    when they hold a common probe."""
    kind = kind.lower()
    ids: dict = {}
    edges = np.array(
        [(i, ids.setdefault(p, len(ids)))
         for i, word in enumerate(s.words.tolist()) for p in _probes(kind, tuple(word))],
        dtype=np.int64,
    ).reshape(-1, 2)
    return edges[:, 0], edges[:, 1]


def characterized_rows(s, kind: str):
    """A characterized relation on a carrier, as a row function.

    ``rows(i)`` is a boolean array over the carrier's indices marking every j
    with ``char(element_i, element_j)``: the elements holding a probe of
    element i.  Probes are computed once per element, so a row is O(size)
    numpy work and scanning every pair does no pairwise Python work.
    """
    elements, probes = _probe_edges(s, kind)
    by_probe = np.argsort(probes, kind="stable")
    holders = np.split(elements[by_probe], np.cumsum(np.bincount(probes))[:-1])
    # edges come element by element, so each element's probes are one slice
    probes_of = np.split(probes, np.cumsum(np.bincount(elements, minlength=s.size))[:-1])

    def rows(i: int) -> np.ndarray:
        row = np.zeros(s.size, dtype=bool)
        for p in probes_of[i]:
            row[holders[p]] = True
        return row

    return rows


def char_partition(s, kind: str) -> RelationPartition:
    """Classes of a characterized relation: elements joined through shared probes.

    Even a non-transitive characterization yields a partition; the verify
    suites compare rows with the oracles pair by pair instead.
    """
    return RelationPartition(s, kind.lower(), _components(s.size, *_probe_edges(s, kind)), "char")


# -- abundance and unipotence -------------------------------------------------


def _require_contraction_family(s: Carrier) -> None:
    family = getattr(s, "family", None)
    if family not in ("ct", "oct", "orct"):
        raise ValueError(f"abundance verdicts are defined here for the contraction families, got {family!r}")


def _first_class_by_idempotents(part: RelationPartition, bad):
    """Sorted members of the first class whose idempotent count k has bad(k), or None."""
    ids = idempotent_indices(part.semigroup)
    counts = np.bincount(part.labels[ids], minlength=part.class_count)
    hits = np.flatnonzero(bad(counts))
    return None if hits.size == 0 else np.flatnonzero(part.labels == hits[0])


def abundance_witness(s: FiniteSemigroup, side: str):
    """A starred class with no idempotent, as a tuple of maps, or None.

    ``side`` is "left" (scan lstar classes) or "right" (scan rstar classes).
    """
    _require_contraction_family(s)
    kind = {"left": "lstar", "right": "rstar"}[side]
    c = _first_class_by_idempotents(starred_partition(s, kind), lambda k: k == 0)
    return None if c is None else tuple(s.elements[i] for i in c)


def is_left_abundant(s: FiniteSemigroup) -> bool:
    """True iff every L*-class contains an idempotent."""
    return abundance_witness(s, "left") is None


def is_right_abundant(s: FiniteSemigroup) -> bool:
    """True iff every R*-class contains an idempotent."""
    return abundance_witness(s, "right") is None


def _non_unipotent_class(carrier, side: str):
    """Sorted members of the first L- (side "l") or R-class (side "r") of a
    carrier whose idempotent count is not 1, or None."""
    return _first_class_by_idempotents(green_oracle(carrier, side), lambda k: k != 1)


def unipotence_witness(s: Carrier, side: str):
    """A Green's class with idempotent count != 1, as a tuple of maps, or None.

    ``side`` "l" scans L-classes, "r" scans R-classes.  The regular part of
    a family is asked about as ``regular_subsemigroup(family, n)``.
    """
    c = _non_unipotent_class(s, side)
    return None if c is None else tuple(s.elements[i] for i in c)


def is_l_unipotent(c) -> bool:
    """True iff each L-class of the carrier holds exactly one idempotent."""
    return _non_unipotent_class(c, "l") is None


def is_r_unipotent(c) -> bool:
    """True iff each R-class of the carrier holds exactly one idempotent."""
    return _non_unipotent_class(c, "r") is None


# -- characterized regularity --------------------------------------------------


def regular_char_ct(a: ChainMap) -> bool:
    """A contraction is regular exactly when its kernel has a convex transversal."""
    _require_contraction(a.images)
    return bool(convex_windows(kernel_word(a.images)))


def _monotone_regular(a: ChainMap, reflected: bool) -> bool:
    """The arithmetic test below on the blocks of a monotone map, numbered as
    in its kernel word, with their image points in order or reflected."""
    word = kernel_word(a.images)
    blocks = [[x for x, b in enumerate(word, start=1) if b == i] for i in range(max(word) + 1)]
    xs = [a.images[block[0] - 1] for block in blocks]
    for ys in (xs, xs[::-1]) if reflected else (xs,):
        d = blocks[0][-1] - ys[0]
        if blocks[-1][0] - ys[-1] == d and all(blocks[i] == [ys[i] + d] for i in range(1, len(blocks) - 1)):
            return True
    return len(blocks) == 1  # constant maps


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
    return _monotone_regular(a, reflected=True)


def regular_char_oct(a: ChainMap) -> bool:
    """Arithmetic regularity test for order-preserving contractions: no reflected variant."""
    if not FamilyTag.OCT.contains(a):
        raise ValueError(f"{a} is not an order-preserving contraction")
    return _monotone_regular(a, reflected=False)
