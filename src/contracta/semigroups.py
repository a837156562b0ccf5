"""Finite semigroups of chain maps, stored as image words and coded once.

A map is a contraction exactly when adjacent images differ by -1, 0 or +1
(see ``maps.is_contraction``), so the contraction families are generated as
walks on 1..n: ``ct`` takes steps in {-1, 0, +1}, ``oct`` steps in {0, +1},
and ``orct`` the ``oct`` walks together with those with steps in {-1, 0}.
``t`` is all n^n image words.  Every family's words are one lexicographic
(count, n) int8 array, which ``is_regular_in`` scans without a carrier.  A
``FiniteSemigroup`` is built from such words and codes them in base n once.
One left walk builds every semigroup and every generated closure: only
generator rows are coded and looked up, and every other element t is found
as g*k for a generator g and an element k found before it.  From every
element it checks closure in full, since t*b = g*(k*b) is inside when the
generator rows are, and fails loudly if a product escapes.  Every later
product is coded from the stored arrays and looked up among the element
codes, only as asked (``products``); no table is kept.  The words are the
store: ``elements`` spells each map from its word on access, and membership
is a binary search among the sorted codes.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from math import prod

import numpy as np

from .limits import check_family_size
from .maps import ChainMap, FamilyTag, compose

__all__ = [
    "Carrier",
    "FiniteSemigroup",
    "enumerate_family",
    "subsemigroup",
    "idempotents",
    "regular_elements",
    "regular_subsemigroup",
    "generated_subsemigroup",
    "is_subsemigroup",
    "idempotents_commute",
    "orthodox_witness",
    "is_orthodox",
]

# Enumeration, ``Carrier.table`` and the Rees layer table proceed only while
# size^2 fits this entry budget, though enumeration builds no table; bigger
# carriers fail fast with the estimate.
DEFAULT_TABLE_BUDGET = 64_000_000
# Table entries are indices, and the budget caps a table at 8,000 elements.
TABLE_DTYPE = np.int16

# Row-blocked scans keep each temporary array near this many entries: an
# int64 temporary of 1 << 15 entries is 256 KB.
_BLOCK_ENTRIES = 1 << 15

# A semigroup codes its image words in base n as int64, exact while
# n^n < 2^63: 15^15 is about 4.4e17, 16^16 about 1.8e19.
_MAX_CODED_N = 15


class ClosureError(ValueError):
    """An element set claimed to be closed under composition is not; ``pair``
    holds the factors (a, b) of the escaping product a*b."""

    def __init__(self, a: ChainMap, b: ChainMap):
        super().__init__(
            f"not closed under composition: product {a} * {b} = {compose(a, b)} escapes the element set"
        )
        self.pair = (a, b)


def check_table_budget(size: int) -> None:
    """ValueError with the estimate when a size x size table exceeds the entry budget."""
    entries = size * size
    if entries > DEFAULT_TABLE_BUDGET:
        raise ValueError(
            f"a product table for {size:,} elements needs {entries:,} entries "
            f"({entries * np.dtype(TABLE_DTYPE).itemsize:,} bytes), "
            f"over the budget of {DEFAULT_TABLE_BUDGET:,} entries; lower n"
        )


def index_dtype(bound: int):
    """int16 when every value below ``bound`` fits it, else int32."""
    return np.int16 if bound <= 1 << 15 else np.int32


def row_blocks(rows, width: int):
    """Consecutive slices of ``rows`` sized so a block times ``width`` stays
    near the block-entry budget."""
    step = max(1, _BLOCK_ENTRIES // max(1, width))
    for start in range(0, len(rows), step):
        yield rows[start:start + step]


class Carrier:
    """What every carrier shares: its elements in index order, and every
    product read from the subclass's ``products(x, y)``.  A subclass sets
    ``elements``, a sequence with ``index``, and ``rank``, per element a
    number that never rises along a product."""

    @property
    def size(self) -> int:
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, m):
        return m in self.elements

    def index_of(self, m) -> int:
        try:
            return self.elements.index(m)
        except ValueError:
            raise ValueError(f"{m} is not an element of this carrier") from None

    def product(self, i: int, j: int) -> int:
        """Index of element_i composed-then element_j."""
        return int(self.products([i], [j])[0])

    def product_rows(self, rows, side: str) -> np.ndarray:
        """Row k holds a*x (side "r") or x*a (side "l") for every x, where a = rows[k]."""
        rows, every = np.asarray(rows, dtype=np.intp)[:, None], np.arange(self.size)[None, :]
        return self.products(rows, every) if side == "r" else self.products(every, rows)

    def squares(self) -> np.ndarray:
        """Index of a*a for each element a."""
        return self.products(np.arange(self.size), np.arange(self.size))

    def table(self) -> np.ndarray:
        """The full product table; ValueError when it exceeds the entry budget."""
        check_table_budget(self.size)
        return self.product_rows(np.arange(self.size), "r")


class _WordMaps(Sequence):
    """The maps spelled by sorted, distinct image words, each built on
    access; ``index`` and ``in`` search the words' base-n codes."""

    def __init__(self, words: np.ndarray, codes: np.ndarray):
        self._words, self._codes = words, codes

    def __len__(self):
        return len(self._words)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(*i.indices(len(self))))
        return ChainMap(self._words.shape[1], tuple(self._words[operator.index(i)].tolist()))

    def __iter__(self):
        n = self._words.shape[1]
        for block in row_blocks(self._words, n):
            yield from (ChainMap(n, tuple(word)) for word in block.tolist())

    def index(self, m) -> int:
        n = self._words.shape[1]
        if isinstance(m, ChainMap) and m.n == n:
            code = 0
            for v in m.images:
                code = code * n + v - 1
            i = int(np.searchsorted(self._codes, code))
            if i < len(self) and self._codes[i] == code:
                return i
        raise ValueError(f"{m} is not in the sequence")

    def __contains__(self, m):
        try:
            self.index(m)
        except ValueError:
            return False
        return True

    def __eq__(self, other):
        # Two carriers' elements compare by their words; a tuple of the same maps is equal.
        if isinstance(other, _WordMaps):
            return np.array_equal(self._words, other._words)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented


def _index_pair(x, y):
    """Index arrays x and y of one ndim, at least 1: they broadcast as meant."""
    x, y = np.asarray(x, dtype=np.intp), np.asarray(y, dtype=np.intp)
    if x.ndim != y.ndim or not x.ndim:
        raise ValueError(f"products take index arrays of one ndim, at least 1, got {x.ndim} and {y.ndim}")
    return x, y


class FiniteSemigroup(Carrier):
    """A closed set of chain maps under composition, stored as image words.

    ``words`` is an integer array-like of shape (k, n) with values in 1..n.
    The words are sorted lexicographically and deduplicated, so that class
    numbering and reports are reproducible, and coded once: ``s.words`` is
    the read-only int8 array, and ``elements`` the read-only sequence of the
    maps it spells, each built from its word on access.  Instances are
    immutable after construction.
    """

    def __init__(self, n, family, words):
        if not 1 <= n <= _MAX_CODED_N:
            raise ValueError(f"semigroups are coded for chains of size 1 <= n <= {_MAX_CODED_N}, got n={n}")
        self.n, self.family = n, family
        words = np.asarray(words)
        if not words.size:
            raise ValueError("a semigroup needs a nonempty set of words")
        if words.ndim != 2 or words.shape[1] != n or not np.issubdtype(words.dtype, np.integer):
            raise ValueError(f"expected integer words of length {n}, got an array of shape {words.shape}")
        if ((words < 1) | (words > n)).any():
            raise ValueError(f"a word has an image outside 1..{n}")
        weights = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self._codes, first = np.unique((words.astype(np.int64) - 1) @ weights, return_index=True)
        self.words = words[first].astype(np.int8)
        self.words.flags.writeable = False
        self.elements = _WordMaps(self.words, self._codes)
        # The code of a*b is sum_x right_b[x] * spread_a[x], where right_b[x] is
        # b(x) - 1 and spread_a[x] sums the weights of the positions k with a(k) = x.
        self._right = self.words.astype(np.int64) - 1
        self._spread = np.zeros((self.size, n), dtype=np.int64)
        for k in range(n):
            self._spread[np.arange(self.size), self._right[:, k]] += weights[k]
        self.rank = np.count_nonzero(self._spread, axis=1)  # image sizes
        # The left walk raises ClosureError on an escaping product.
        _, self._gens, rows = _left_walk(self, np.ones(self.size, dtype=bool))
        self._left = rows.T

    def __repr__(self):
        return f"FiniteSemigroup(family={self.family!r}, n={self.n}, size={self.size})"

    def generators(self) -> np.ndarray:
        """Indices of a generating set: the rows the left walk coded directly."""
        return self._gens

    def cayley(self, side: str) -> np.ndarray:
        """Successors of the left (side "l", a -> g*a: the walk's) or right
        (a -> a*g, coded per call) Cayley graph over the generators g."""
        every = np.arange(self.size)[:, None]
        return self._left if side == "l" else self.products(every, self._gens[None, :])

    def products(self, x, y) -> np.ndarray:
        """Index of a*b for index arrays x and y of one ndim, broadcast together,
        coded from the words a block of the leading axis at a time; the left walk
        proved closure, so codes are looked up without an escape check."""
        x, y = _index_pair(x, y)
        shape = np.broadcast_shapes(x.shape, y.shape)
        a, b = _gather(self._spread, x, shape), _gather(self._right, y, shape)
        out = np.empty(shape, dtype=index_dtype(self.size))
        for ab, bb, ob in zip(*(row_blocks(v, prod(shape[1:])) for v in (a, b, out))):
            ob[...] = np.searchsorted(self._codes, np.einsum("...k,...k->...", ab, bb, order="C"))
        return out

    def _raise_first_escape(self):
        """ClosureError naming the first escaping product, row by row."""
        for rows in row_blocks(np.arange(self.size), self.size):
            _, bad = _direct_rows(self._spread, self._right, self._codes, rows)
            if bad.any():
                i, j = divmod(int(np.argmax(bad)), self.size)
                raise ClosureError(self.elements[rows[i]], self.elements[j])


def _gather(m, index, shape):
    """``m[index]`` broadcast to ``shape``; a view of ``m`` when ``index`` lists every row in order."""
    if index.size == len(m) and np.array_equal(index.ravel(), np.arange(len(m))):
        return np.broadcast_to(m.reshape(index.shape + m.shape[1:]), shape + m.shape[1:])
    return np.broadcast_to(m.take(index, axis=0), shape + m.shape[1:])


def _direct_rows(spread, right, codes, rows):
    """Indices of the products of ``rows`` by every element, and the mask of
    those that escape: each product is coded and looked up in ``codes``."""
    ccodes = spread[rows] @ right.T
    idx = np.searchsorted(codes, ccodes)
    return idx, codes[np.minimum(idx, len(codes) - 1)] != ccodes


def _left_walk(s, candidates):
    """The left Cayley graph of ``s`` walked from the candidates (a mask):
    the widest unreached candidate becomes the next generator g, as rank never
    rises along a product; its row g*x is coded for every x, g*k is
    reached for every k reached so far, and each new element k yields h*k
    for every generator h.  Returns the reached mask (the closure of the
    candidates), the generators in the order found, and their rows as a
    (generators, size) int32 array; ClosureError if a generator row escapes."""
    reached = np.zeros(s.size, dtype=bool)
    slot = np.empty(s.size, dtype=np.intp)
    gens, rows = [], []
    while (pending := candidates & ~reached).any():
        g = int(np.argmax(np.where(pending, s.rank, -1)))
        idx, bad = _direct_rows(s._spread, s._right, s._codes, [g])
        if bad.any():
            s._raise_first_escape()
        gens.append(g)
        rows.append(idx[0].astype(np.int32))
        targets = np.append(rows[-1][reached], g)
        while targets.size:
            new = targets[~reached[targets]]
            slot[new] = np.arange(len(new))  # one position per element survives
            new = new[slot[new] == np.arange(len(new))]
            reached[new] = True
            targets = np.concatenate([row[new] for row in rows])
    return reached, np.array(gens, dtype=np.intp), np.array(rows, dtype=np.int32)


def _least_reaching(src, dst, size: int) -> np.ndarray:
    """Per node of 0..size-1, the least node that reaches it along the edges
    src[k] -> dst[k]: each label falls to the least label along the edges,
    then jumps ``label = label[label]``, until nothing changes.  A label
    only falls and always names a node that reaches its own."""
    label = np.arange(size, dtype=np.int32)
    while True:
        low = label.copy()
        np.minimum.at(low, dst, label[src])
        while not np.array_equal(low, jump := low[low]):
            low = jump
        if np.array_equal(low, label):
            return label
        label = low


def _strong_components(src, dst, size: int) -> np.ndarray:
    """Strong components of the graph on nodes 0..size-1 with edges
    src[k] -> dst[k], each labelled by its least node.

    Each round colours every unfinished node v with the least unfinished
    node c that reaches it; v is in c's component exactly when it reaches c
    along edges inside c's colour, and edges between colours join nothing.
    A round finishes every colour's component: nearly all components when
    edges mostly run down the numbering, one on a path numbered upward.
    """
    comp = np.arange(size, dtype=np.int32)
    todo = np.ones(size, dtype=bool)
    while todo.any():
        colour = _least_reaching(src, dst, size)
        inner = colour[src] == colour[dst]
        reach = _least_reaching(dst[inner], src[inner], size)
        comp[todo] = colour[todo]
        todo &= reach != colour
        keep = inner & todo[src]
        src, dst = src[keep], dst[keep]
    return comp


def cayley_components(s, sides: str) -> np.ndarray:
    """Per element, the least member of its strong component in the Cayley
    graphs of ``sides`` (``s.cayley``; "lr" is both).  Rank never rises
    along a product, so an edge that lowers it lies on no cycle: only the
    edges between distinct elements of one rank are searched."""
    successors = np.hstack([s.cayley(side) for side in sides])
    rank = s.rank.astype(np.int8)  # at most n <= 15
    src, col = np.nonzero((rank[successors] == rank[:, None]) & (successors != np.arange(s.size)[:, None]))
    return _strong_components(src, successors[src, col], s.size)


def _walks(n: int, steps: tuple[int, ...]) -> np.ndarray:
    """All words on 1..n whose adjacent steps lie in ``steps`` (ascending),
    in lexicographic order."""
    words = np.arange(1, n + 1, dtype=np.int8)[:, None]
    for _ in range(n - 1):
        nxt = words[:, -1:] + np.array(steps, dtype=np.int8)
        keep = ((nxt >= 1) & (nxt <= n)).ravel()
        words = np.column_stack([np.repeat(words, len(steps), axis=0), nxt.ravel()])[keep]
    return words


def family_words(family, n: int) -> np.ndarray:
    """The image words of a family on the chain of size n: one C-contiguous
    (count, n) int8 array, rows in lexicographic order.

    ``t`` is all n^n words; the contraction families are walks, generated
    directly rather than filtered.
    """
    tag = FamilyTag.coerce(family)
    if tag is FamilyTag.T:
        # Word i spells i in base n: column k is the index along axis k of an
        # n^n grid view, filled by broadcasting without temporaries.
        words = np.empty((n ** n, n), dtype=np.int8)
        digits = np.arange(1, n + 1, dtype=np.int8)
        for k in range(n):
            words.reshape((n,) * n + (n,))[..., k] = digits.reshape((n,) + (1,) * (n - 1 - k))
        return words
    if tag is FamilyTag.CT:
        words = _walks(n, (-1, 0, 1))
    else:
        words = _walks(n, (0, 1))
        if tag is FamilyTag.ORCT:
            down = _walks(n, (-1, 0))
            # Constant maps are both; keep the non-increasing ones that move.
            words = np.concatenate([words, down[down[:, 0] != down[:, -1]]])
            words = words[np.lexsort(words.T[::-1])]
    return words


def enumerate_family(family, n: int) -> FiniteSemigroup:
    """All members of a family on the chain of size n, as a closed semigroup."""
    tag = FamilyTag.coerce(family)
    check_family_size(tag.value, n)
    words = family_words(tag, n)
    check_table_budget(len(words))  # before coding the words
    return FiniteSemigroup(n, tag.value, words)


def subsemigroup(s: FiniteSemigroup, elements) -> FiniteSemigroup:
    """Wrap a subset of ``s`` as a semigroup of its own; ClosureError if it
    is not closed."""
    return FiniteSemigroup(s.n, "custom", s.words[[s.index_of(m) for m in elements]])


# -- criteria over one closed carrier -----------------------------------------
#
# Every criterion reads one closed carrier, a FiniteSemigroup or a ReesQuotient,
# through ``squares``, ``cayley`` and ``products``, asking only for the
# products it reads; none reads a whole product table.  A subset is asked
# about as ``subsemigroup(s, subset)``.


def idempotent_indices(s) -> np.ndarray:
    """Indices i of the carrier with i*i = i, ascending."""
    return np.flatnonzero(s.squares() == np.arange(s.size))


def _regular_mask(s) -> np.ndarray:
    """Per element a, whether a*b*a = a for some b: exactly when the R-class
    of a, a strong component of the right Cayley graph, holds an idempotent."""
    r = cayley_components(s, "r")
    return np.isin(r, r[idempotent_indices(s)])


def _unique_inverse_counts(c) -> np.ndarray:
    """Per element a of the carrier, the number of b with aba = a and bab = b."""
    whole, mul = np.arange(c.size), c.products
    counts = []
    for rows in row_blocks(whole, len(whole)):
        a, b = rows[:, None], whole[None, :]
        inverse = (mul(mul(a, b), a) == a) & (mul(mul(b, a), b) == b)
        counts.append(inverse.sum(axis=1))
    return np.concatenate(counts)


def idempotents(s: Carrier) -> tuple[ChainMap, ...]:
    """All elements e with e*e = e."""
    return tuple(s.elements[i] for i in idempotent_indices(s))


def is_regular_in(words: np.ndarray, m: ChainMap) -> bool:
    """True iff m = m*b*m for a witness b among the rows of ``words``, which
    must hold m itself, as from ``family_words``.  Scans row blocks of the
    words, so no carrier or product table is built."""
    if words.shape[1] != m.n:
        raise ValueError(f"{m} lives on a chain of size {m.n}, the words on one of size {words.shape[1]}")
    after = np.array((0, *m.images), dtype=np.int8)  # after[v] = m(v) for v in 1..n
    a = after[1:]
    member = regular = False
    for block in row_blocks(words, m.n):
        member = member or bool((block == a).all(axis=1).any())
        # row b holds m(b(m(x))) for every x
        regular = regular or bool((after[block[:, a - 1]] == a).all(axis=1).any())
        if member and regular:
            return True
    if not member:
        raise ValueError(f"{m} is not one of the words")
    return False


def regular_elements(s: Carrier) -> tuple[ChainMap, ...]:
    """Elements a with a*b*a = a for some witness b in the semigroup."""
    return tuple(s.elements[a] for a in np.flatnonzero(_regular_mask(s)))


def regular_subsemigroup(family, n: int) -> FiniteSemigroup:
    """The regular elements of a family, wrapped as a semigroup.

    Raises if the regular elements fail to be closed (they are closed for the
    families handled here, but that fact is checked, not assumed).
    """
    s = enumerate_family(family, n)
    return subsemigroup(s, regular_elements(s))


def generated_subsemigroup(s: FiniteSemigroup, gens) -> FiniteSemigroup:
    """Closure of ``gens`` under composition, as a semigroup.

    The left walk over ``s`` takes the widest unreached map of ``gens`` as
    its next generator, so it codes only the rows of the generators it
    needs; the result's own construction proves closure once more.
    """
    candidates = np.zeros(s.size, dtype=bool)
    candidates[[s.index_of(m) for m in gens]] = True
    if not candidates.any():
        raise ValueError("at least one generator is required")
    return FiniteSemigroup(s.n, "custom", s.words[_left_walk(s, candidates)[0]])


def is_subsemigroup(s: FiniteSemigroup, subset) -> bool:
    """True iff the subset is closed under the ambient product."""
    try:
        subsemigroup(s, subset)
    except ClosureError:
        return False
    return True


def idempotents_commute(s) -> bool:
    """True iff e*f = f*e for all idempotents e, f of the carrier.  Products
    are coded a block of rows at a time, up to the first block that differs."""
    ids = idempotent_indices(s)
    for rows in row_blocks(ids, len(ids)):
        ef = s.products(rows[:, None], ids[None, :])
        if (ef != s.products(ids[:, None], rows[None, :]).T).any():
            return False
    return True


def _first_idempotent_pair(s, bad: np.ndarray | None = None):
    """The first pair (e, f) of idempotents, row by row, whose product is
    flagged in ``bad`` (one flag per element; by default, the product is not
    idempotent), as (e, f, e*f), or None.  Products are coded a block of
    rows at a time, up to the first block with a flagged one."""
    ids = idempotent_indices(s)
    if bad is None:
        bad = s.squares() != np.arange(s.size)
    for rows in row_blocks(ids, len(ids)):
        ef = s.products(rows[:, None], ids[None, :])
        hits = np.flatnonzero(bad[ef])
        if hits.size:
            e, f = divmod(int(hits[0]), len(ids))
            return tuple(s.elements[i] for i in (rows[e], ids[f], ef[e, f]))
    return None


def orthodox_witness(s):
    """Why the carrier is not orthodox, or None: the first pair of
    idempotents whose product is not idempotent, as (e, f, e*f), else the
    first element that is not regular, as a 1-tuple."""
    pair = _first_idempotent_pair(s)
    if pair is not None:
        return pair
    irregular = np.flatnonzero(~_regular_mask(s))
    return (s.elements[irregular[0]],) if irregular.size else None


def is_orthodox(s) -> bool:
    """True iff every element of the carrier is regular and its idempotents
    are closed under product."""
    return orthodox_witness(s) is None
