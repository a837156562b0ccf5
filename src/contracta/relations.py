"""Green's relations and their starred variants: oracles and characterizations.

Every characterization ships next to a brute-force oracle, and the verify
suite treats any disagreement between the two as a hard failure.  Oracles
work from products: L, R and J are the strong components of the Cayley graphs
``cayley(side)``, and the starred kinds key the kernel of one row of S^1
products per Green's class.  Characterizations read each map's kernel and
image alone: one array route keys every word of an (m, n) word array at once,
a carrier's ``words`` or one pair's two words, and each regularity criterion
is a mask over such an array.  Relation kinds are ``l r h d j lstar rstar
hstar dstar``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import ChainMap, FamilyTag
from .partitions import kernel_word, refinement_windows
from .semigroups import _MAX_CODED_N, Carrier, FiniteSemigroup, _least_reaching, cayley_components
from .semigroups import idempotent_indices, index_dtype, row_blocks

__all__ = [
    "RelationPartition",
    "green_oracle",
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

# Per characterized kind, the families its procedure is offered on, the
# default first: "claimed" where a claim backs the characterization there,
# "empirical" where only the comparison with the oracle does.
CHAR_SUPPORT = {
    **{kind: {"ct": "claimed"} for kind in ("l", "r", "h", "d")},
    **{kind: {"ct": "claimed", "oct": "claimed", "orct": "empirical"} for kind in STARRED_KINDS},
}

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
    # Every entry of each row, of values in 0..size-1, replaced by the
    # position where its value first occurs.  Offset rows keep their values
    # apart in one flat buffer; minimum.at is unbuffered and order-free, so
    # each slot ends at its value's least position.  Positions and the fill,
    # the row width, are int16 while the width fits and int32 beyond.
    width = rows.shape[1]
    rows = rows + (np.arange(len(rows), dtype=np.int32) * size)[:, None]
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


# -- characterized relations: a and b are related exactly when their probes meet


def _code(digits: np.ndarray, base: int) -> np.ndarray:
    """Each row of digits below ``base`` as one int64, most significant first."""
    return digits.astype(np.int64) @ base ** np.arange(digits.shape[1] - 1, -1, -1, dtype=np.int64)


def _ids(codes: np.ndarray) -> np.ndarray:
    return np.unique(codes, return_inverse=True)[1]  # numbered in increasing order


def _probe_edges(words, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Every distinct (element, probe) pair of the maps with image words
    ``words``, an (m, n) array with n <= 15 (keys are int64 codes), in element
    order, probes numbered from 0.  r and rstar key the kernel, lstar the
    image, hstar both, dstar the height.  l, h and d key each admissible
    convex refinement transversal of the kernel by the lesser of the map's
    values on it and their reversal: alone (l), beside the kernel (h), or
    renumbered by first occurrence (d), the fiber-grouping pattern, which
    fixes the height as the window meets every kernel block."""
    kind = kind.lower()
    if kind not in CHAR_SUPPORT:
        raise ValueError(f"no characterized procedure for relation kind {kind!r}")
    words = np.asarray(words)
    elements, n = np.arange(len(words)), words.shape[1]
    if n > _MAX_CODED_N:
        raise ValueError(f"characterized keys are coded for chains of size n <= {_MAX_CODED_N}, got n={n}")
    if kind in ("lstar", "hstar", "dstar"):
        image = np.bitwise_or.reduce(1 << (words.astype(np.int64) - 1), axis=1)  # as a bit set
        if kind != "hstar":
            return elements, _ids(np.bitwise_count(image) if kind == "dstar" else image)
    bad = np.flatnonzero((np.abs(np.diff(words.astype(np.int32), axis=1)) > 1).any(axis=1))
    if bad.size and kind not in STARRED_KINDS:
        raise ValueError(f"[{','.join(map(str, words[bad[0]].tolist()))}] is not a contraction")
    first = _kernel_keys(words - 1, n)
    _, reps, kernels = np.unique(_code(first, n), return_index=True, return_inverse=True)
    if kind in ("r", "rstar", "hstar"):
        return elements, kernels if kind != "hstar" else _ids(kernels.astype(np.int64) << n | image)
    # each element takes the windows of its kernel, found once per kernel
    lo, p, ok = refinement_windows(first[reps])
    elements, at = np.nonzero(ok[kernels])
    lo, p = lo[at, None], p[at, None]
    # each profile and its reversal, padded to n points with its first value
    # and coded with digit 0 there: digits start from 1, so sizes stay apart
    codes = np.empty(len(elements), dtype=np.int64)
    for b in row_blocks(np.arange(len(elements)), 2 * n):
        inside = np.arange(n) < p[b]
        start, step = elements[b, None] * n + lo[b] - 1, np.arange(n) * inside
        t = words.ravel()[np.concatenate([start + step, start + p[b] - 1 - step])]
        t = (_kernel_keys(t - 1, n) + 1 if kind == "d" else t) * np.concatenate([inside, inside])
        codes[b] = np.minimum(*_code(t, n + 1).reshape(2, -1))
    if kind == "h":
        codes = kernels[elements].astype(np.int64) * len(codes) + _ids(codes)
    probes = _ids(codes)  # windows of one map can share a key: one pair each
    keep = np.unique(elements * len(codes) + probes, return_index=True)[1]
    return elements[keep], probes[keep]


def _related(kind: str, a: ChainMap, b: ChainMap) -> bool:
    if a.n != b.n:
        raise ValueError(f"maps live on chains of size {a.n} and {b.n}")
    elements, probes = _probe_edges(np.array([a.images, b.images]), kind)
    return not set(probes[elements == 0].tolist()).isdisjoint(probes[elements == 1].tolist())


def starred_char(a: ChainMap, b: ChainMap, kind: str) -> bool:
    """Characterized starred relations: image, kernel, both, or height equality."""
    kind = kind.lower()
    if kind not in STARRED_KINDS:
        raise ValueError(f"unknown starred relation kind {kind!r}")
    return _related(kind, a, b)


def r_char(a: ChainMap, b: ChainMap) -> bool:
    """Contractions are R-related exactly when their kernels coincide."""
    return _related("r", a, b)


def l_char(a: ChainMap, b: ChainMap) -> bool:
    """Characterized L on contractions.

    a and b are L-related exactly when their kernels admit refinements with
    admissible convex transversals T_a = {t_1 < ... < t_s} and
    T_b = {u_1 < ... < u_s} of a common size such that either
    a(t_i) = b(u_i) for all i (translation pairing) or
    a(t_i) = b(u_{s-i+1}) for all i (reflection pairing).
    """
    return _related("l", a, b)


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
    return _related("d", a, b)


def char_partition(s, kind: str) -> RelationPartition:
    """Classes of a characterized relation: elements joined through shared probes.

    Even a non-transitive characterization yields a partition; the verify
    suites compare the probe edges with the oracles on every pair instead.
    """
    return RelationPartition(s, kind.lower(), _components(s.size, *_probe_edges(s.words, kind)), "char")


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


def unipotence_witness(s: Carrier, side: str):
    """A Green's class with idempotent count != 1, as a tuple of maps, or None.

    ``side`` "l" scans L-classes, "r" scans R-classes.  The regular part of
    a family is asked about as ``regular_subsemigroup(family, n)``.
    """
    c = _first_class_by_idempotents(green_oracle(s, side), lambda k: k != 1)
    return None if c is None else tuple(s.elements[i] for i in c)


def is_l_unipotent(c) -> bool:
    """True iff each L-class of the carrier holds exactly one idempotent."""
    return unipotence_witness(c, "l") is None


def is_r_unipotent(c) -> bool:
    """True iff each R-class of the carrier holds exactly one idempotent."""
    return unipotence_witness(c, "r") is None


# -- characterized regularity: per criterion, a mask over image words ---------


def _convex_window_mask(words: np.ndarray) -> np.ndarray:
    """Per contraction, whether its kernel has a convex transversal: some rank
    consecutive points take rank values.  Values on a run form an interval, so
    that run holds the least and the greatest value, which a contraction takes
    at least max - min = rank - 1 points apart: the mask asks for exactly that."""
    n = words.shape[1]
    least, most = words.min(axis=1, keepdims=True), words.max(axis=1, keepdims=True)
    padded = np.pad(words, ((0, 0), (n, n)))  # zeros, never the greatest value
    far = [np.take_along_axis(padded, n + np.arange(n) + sign * (most - least), axis=1) for sign in (1, -1)]
    return ((words == least) & ((far[0] == most) | (far[1] == most))).any(axis=1)


def _arithmetic_mask(words: np.ndarray) -> np.ndarray:
    """``regular_char_orct`` per word; a monotone map's blocks are intervals."""
    x = np.arange(1, words.shape[1] + 1)
    first_end = (words == words[:, :1]).sum(axis=1, keepdims=True)
    outside = (x < first_end) | (x > len(x) + 1 - (words == words[:, -1:]).sum(axis=1, keepdims=True))
    d = np.stack([x - words, x + words])
    steady = ((d == np.take_along_axis(d, first_end[None] - 1, axis=2)) | outside).all(axis=2)
    return (first_end[:, 0] == len(x)) | steady.any(axis=0)


def _regular_char(a: ChainMap, family: str, members: str) -> bool:
    if not FamilyTag(family).contains(a):
        raise ValueError(f"{a} is not {members}")
    return bool(REGULAR_MASKS[family](np.array([a.images]))[0])


def regular_char_ct(a: ChainMap) -> bool:
    """A contraction is regular exactly when its kernel has a convex transversal."""
    return _regular_char(a, "ct", "a contraction")


def regular_char_orct(a: ChainMap) -> bool:
    """Arithmetic regularity test for order-preserving or -reversing
    contractions with blocks A_1 < ... < A_p: constant, or x - a(x) or x + a(x)
    constant from max A_1 to min A_p, so interior blocks are {image + offset}."""
    return _regular_char(a, "orct", "an order-preserving or order-reversing contraction")


def regular_char_oct(a: ChainMap) -> bool:
    """The same test for order-preserving contractions, where only x - a(x) can hold."""
    return _regular_char(a, "oct", "an order-preserving contraction")


REGULAR_MASKS = {"ct": _convex_window_mask, "oct": _arithmetic_mask, "orct": _arithmetic_mask}
