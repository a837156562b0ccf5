"""Enumerated finite semigroups of chain maps, with cached product tables.

A map is a contraction exactly when adjacent images differ by -1, 0 or +1
(see ``maps.is_contraction``), so the contraction families are generated as
walks on 1..n: ``ct`` takes steps in {-1, 0, +1}, ``oct`` steps in {0, +1},
and ``orct`` the ``oct`` walks together with those with steps in {-1, 0}.
``t`` is all n^n image words.  Building the product table doubles as a
closure oracle: it fails loudly if any product escapes the element set, and
every carrier but the full ``t`` builds it on construction.
"""

from __future__ import annotations

from itertools import product as iter_product

import numpy as np

from .limits import check_family_size
from .maps import ChainMap, FamilyTag, compose

__all__ = [
    "FiniteSemigroup",
    "enumerate_family",
    "subsemigroup",
    "idempotents",
    "regular_elements",
    "regular_subsemigroup",
    "generated_subsemigroup",
    "is_subsemigroup",
    "idempotents_commute",
    "is_orthodox",
    "is_inverse",
]

# Product tables are built only while size^2 fits this entry budget; bigger
# carriers fail fast instead of computing products one at a time.
DEFAULT_TABLE_BUDGET = 64_000_000

# Row-blocked scans keep each temporary array near this many entries; the
# table build, which holds several int64 temporaries per block, uses fewer.
_BLOCK_ENTRIES = 1 << 17
_TABLE_BLOCK_ENTRIES = 1 << 13


class ClosureError(ValueError):
    """An element set claimed to be closed under composition is not."""


def check_table_budget(size: int) -> None:
    """ValueError with the estimate when a size x size table exceeds the entry budget."""
    entries = size * size
    if entries > DEFAULT_TABLE_BUDGET:
        raise ValueError(
            f"a product table for {size:,} elements needs {entries:,} entries "
            f"({4 * entries:,} bytes), over the budget of {DEFAULT_TABLE_BUDGET:,} entries; "
            "lower n"
        )


def row_blocks(rows, width: int, entries: int | None = None):
    """Consecutive slices of ``rows`` sized so a block times ``width`` stays
    near ``entries`` (by default the block-entry budget)."""
    step = max(1, (entries or _BLOCK_ENTRIES) // max(1, width))
    for start in range(0, len(rows), step):
        yield rows[start:start + step]


class FiniteSemigroup:
    """A closed, deterministically ordered set of chain maps under composition.

    Elements are sorted lexicographically by image word so that class
    numbering and reports are reproducible.  Instances are immutable after
    construction; the lazily built product table is write-once.
    """

    def __init__(self, n, family, elements, *, check_closed=True):
        self.n = n
        self.family = family
        self.elements = tuple(sorted(set(elements)))
        if not self.elements:
            raise ValueError("a semigroup needs at least one element")
        for m in self.elements:
            if m.n != n:
                raise ValueError(f"element {m} lives on a chain of size {m.n}, not {n}")
        self._index = {m: i for i, m in enumerate(self.elements)}
        self._table = None
        # The full family is closed by completeness; any other carrier is
        # checked by building its table, which raises ClosureError on an escape.
        if check_closed and not (family == "t" and self.size == n ** n):
            self.table()

    # -- basic container behaviour -------------------------------------

    @property
    def size(self) -> int:
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, m):
        return m in self._index

    def __repr__(self):
        return f"FiniteSemigroup(family={self.family!r}, n={self.n}, size={self.size})"

    def index_of(self, m: ChainMap) -> int:
        try:
            return self._index[m]
        except KeyError:
            raise ValueError(f"{m} is not an element of this semigroup") from None

    # -- products --------------------------------------------------------

    def product(self, i: int, j: int) -> int:
        """Index of element_i composed-then element_j."""
        return int(self.table()[i, j])

    def table(self) -> np.ndarray:
        """The full int32 product table; ValueError when it exceeds the entry budget."""
        if self._table is None:
            check_table_budget(self.size)
            self._table = self._build_table()
        return self._table

    def _build_table(self):
        m, n = self.size, self.n
        words = np.array([e.images for e in self.elements], dtype=np.int64) - 1
        weights = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
        codes = words @ weights  # ascending, since elements are sorted
        # The code of a*b is sum_x b(x) * spread_a[x], where spread_a[x] sums
        # the weights of the positions k with a(k) = x.
        spread = np.zeros((m, n), dtype=np.int64)
        for k in range(n):
            spread[np.arange(m), words[:, k]] += weights[k]
        right = np.ascontiguousarray(words.T)
        table = np.empty((m, m), dtype=np.int32)
        escape = None  # the first escaping (j, i), column by column
        for rows in row_blocks(np.arange(m), m, _TABLE_BLOCK_ENTRIES):
            ccodes = spread[rows] @ right
            idx = np.searchsorted(codes, ccodes)
            bad = codes[np.minimum(idx, m - 1)] != ccodes
            if bad.any():
                j = int(np.argmax(bad.any(axis=0)))
                first = (j, int(rows[np.argmax(bad[:, j])]))
                escape = first if escape is None else min(escape, first)
            table[rows] = idx
        if escape is not None:
            j, i = escape
            ab = compose(self.elements[i], self.elements[j])
            raise ClosureError(
                f"product {self.elements[i]} * {self.elements[j]} = {ab} escapes the element set"
            )
        return table


def _walks(n: int, steps: tuple[int, ...]) -> np.ndarray:
    """All words on 1..n whose adjacent steps lie in ``steps`` (ascending),
    in lexicographic order."""
    words = np.arange(1, n + 1, dtype=np.int64)[:, None]
    for _ in range(n - 1):
        nxt = words[:, -1:] + np.array(steps)
        keep = ((nxt >= 1) & (nxt <= n)).ravel()
        words = np.column_stack([np.repeat(words, len(steps), axis=0), nxt.ravel()])[keep]
    return words


def family_words(family, n: int):
    """The image words of a family on the chain of size n, in lexicographic order.

    ``t`` is an iterator over all n^n words; the contraction families are
    lists of walks, generated directly rather than filtered.
    """
    tag = FamilyTag.coerce(family)
    if tag is FamilyTag.T:
        return iter_product(range(1, n + 1), repeat=n)
    if tag is FamilyTag.CT:
        words = _walks(n, (-1, 0, 1))
    else:
        words = _walks(n, (0, 1))
        if tag is FamilyTag.ORCT:
            down = _walks(n, (-1, 0))
            # Constant maps are both; keep the non-increasing ones that move.
            words = np.concatenate([words, down[down[:, 0] != down[:, -1]]])
            words = words[np.lexsort(words.T[::-1])]
    return [tuple(w) for w in words.tolist()]


def enumerate_family(family, n: int) -> FiniteSemigroup:
    """All members of a family on the chain of size n, as a closed semigroup."""
    tag = FamilyTag.coerce(family)
    check_family_size(tag.value, n)
    members = [ChainMap(n, word) for word in family_words(tag, n)]
    return FiniteSemigroup(n, tag.value, members)


def subsemigroup(s: FiniteSemigroup, elements) -> FiniteSemigroup:
    """Wrap a subset of ``s`` as a semigroup of its own; fails if not closed."""
    elements = list(elements)
    for m in elements:
        s.index_of(m)
    try:
        return FiniteSemigroup(s.n, "custom", elements)
    except ClosureError as exc:
        raise ValueError(f"subset is not closed under composition: {exc}") from None


# -- criteria over an index pool -------------------------------------------
#
# Every criterion reads a carrier's product table (a FiniteSemigroup or a
# ReesQuotient) restricted to a pool of its indices: a subset, or the whole
# carrier when ``subset`` is None.


def _pool(s, subset) -> np.ndarray:
    if subset is None:
        return np.arange(s.size)
    idx = [s.index_of(m) for m in subset]
    if not idx:
        raise ValueError("subset must be nonempty")
    return np.array(idx, dtype=np.intp)


def _idempotents_of(table, pool) -> np.ndarray:
    """The pool elements e with e*e = e, read off the table's diagonal."""
    return pool[table[pool, pool] == pool]


def idempotent_indices(s) -> list[int]:
    """Indices i of the carrier with i*i = i."""
    return _idempotents_of(s.table(), np.arange(s.size)).tolist()


def _regular_mask(table, pool) -> np.ndarray:
    """Per pool element a, whether a*b*a = a for some b in the pool."""
    mask = []
    for rows in row_blocks(pool, len(pool)):
        a = rows[:, None]
        mask.append((table[table[a, pool], a] == a).any(axis=1))
    return np.concatenate(mask)


def _unique_inverse_counts(table, pool) -> np.ndarray:
    """Per pool element a, the number of b in the pool with aba = a and bab = b."""
    counts = []
    for rows in row_blocks(pool, len(pool)):
        a, b = rows[:, None], pool[None, :]
        inverse = (table[table[a, b], a] == a) & (table[table[b, a], b] == b)
        counts.append(inverse.sum(axis=1))
    return np.concatenate(counts)


def _escaping_pair(table, pool):
    """The first (a, b) of pool x pool, row by row, whose product leaves the pool."""
    inside = np.zeros(len(table), dtype=bool)
    inside[pool] = True
    for rows in row_blocks(pool, len(pool)):
        out = ~inside[table[rows[:, None], pool]]
        if out.any():
            r, c = divmod(int(np.argmax(out)), len(pool))
            return int(rows[r]), int(pool[c])
    return None


def idempotents(s: FiniteSemigroup) -> tuple[ChainMap, ...]:
    """All elements e with e*e = e."""
    return tuple(s.elements[i] for i in idempotent_indices(s))


def is_regular_in(s: FiniteSemigroup, m: ChainMap) -> bool:
    """True iff m = m*b*m for some witness b in s.

    Scans the image words of s directly, so it needs no product table.
    """
    s.index_of(m)  # m must be an element of s
    a = np.array(m.images, dtype=np.int8) - 1
    words = np.array([e.images for e in s.elements], dtype=np.int8) - 1
    return bool((a[words[:, a]] == a).all(axis=1).any())


def regular_elements(s: FiniteSemigroup, subset=None) -> tuple[ChainMap, ...]:
    """Elements a with a*b*a = a for some witness b.

    With ``subset`` given, both a and the witness b range over the subset
    ("regular within"); otherwise over the whole semigroup.
    """
    pool = _pool(s, subset)
    return tuple(s.elements[a] for a in pool[_regular_mask(s.table(), pool)])


def regular_subsemigroup(family, n: int) -> FiniteSemigroup:
    """The regular elements of a family, wrapped as a semigroup.

    Raises if the regular elements fail to be closed (they are closed for the
    families handled here, but that fact is checked, not assumed).
    """
    s = enumerate_family(family, n)
    return subsemigroup(s, regular_elements(s))


def generated_subsemigroup(s: FiniteSemigroup, gens) -> FiniteSemigroup:
    """Closure of ``gens`` under composition, as a semigroup."""
    table = s.table()
    inside = np.zeros(s.size, dtype=bool)
    frontier = np.unique([s.index_of(m) for m in gens]).astype(np.intp)
    if not frontier.size:
        raise ValueError("at least one generator is required")
    inside[frontier] = True
    while frontier.size:
        current = np.flatnonzero(inside)
        reached = np.zeros(s.size, dtype=bool)
        for rows in row_blocks(frontier, len(current)):
            reached[table[rows[:, None], current]] = True
            reached[table[current[:, None], rows]] = True
        frontier = np.flatnonzero(reached & ~inside)
        inside[frontier] = True
    return FiniteSemigroup(s.n, "custom", [s.elements[i] for i in np.flatnonzero(inside)])


def is_subsemigroup(s: FiniteSemigroup, subset) -> bool:
    """True iff the subset is closed under the ambient product."""
    return _escaping_pair(s.table(), _pool(s, subset)) is None


def idempotents_commute(s, subset=None) -> bool:
    """True iff e*f = f*e for all idempotents e, f of the subset."""
    table = s.table()
    ids = _idempotents_of(table, _pool(s, subset))
    ef = table[np.ix_(ids, ids)]
    return bool((ef == ef.T).all())


def is_orthodox(s, subset=None) -> bool:
    """True iff every subset element is regular within the subset and the
    subset's idempotents are closed under product."""
    table, pool = s.table(), _pool(s, subset)
    escape = _escaping_pair(table, pool)
    if escape is not None:
        a, b = escape
        raise ValueError(f"subset is not closed: {s.elements[a]} * {s.elements[b]} escapes")
    if not _regular_mask(table, pool).all():
        return False
    ids = _idempotents_of(table, pool)
    ef = table[np.ix_(ids, ids)]
    return bool((table[ef, ef] == ef).all())


def is_inverse(s: FiniteSemigroup, subset) -> bool:
    """True iff the subset is orthodox with commuting idempotents.

    The equivalent unique-inverse criterion is computed independently and the
    two verdicts are required to agree.
    """
    by_structure = is_orthodox(s, subset) and idempotents_commute(s, subset)
    by_uniqueness = bool((_unique_inverse_counts(s.table(), _pool(s, subset)) == 1).all())
    if by_structure != by_uniqueness:
        raise RuntimeError(
            "inverse-semigroup criteria disagree (orthodox+commuting vs unique inverses); "
            "this indicates a bug in the product machinery"
        )
    return by_structure
