"""Height ideals and Rees factor semigroups of regular contraction semigroups.

K(n, p) collects the elements of height at most p inside a regular base; the
Rees factor keeps the height-p layer and collapses everything below into a
single absorbing zero.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .maps import ChainMap, map_to_text
from .relations import is_l_unipotent, is_r_unipotent
from .semigroups import (
    TABLE_DTYPE,
    Carrier,
    FiniteSemigroup,
    _index_pair,
    _regular_mask,
    _unique_inverse_counts,
    check_table_budget,
    idempotents_commute,
    is_orthodox,
)

__all__ = [
    "HeightIdeal",
    "ReesQuotient",
    "height_ideal",
    "rees_quotient",
    "verify_inverse",
    "is_inverse",
    "InverseVerification",
]

# Associativity of the collapsing product is asserted exhaustively up to this
# carrier size (cubic cost, one numpy row at a time).
_ASSOC_CHECK_MAX = 220


@dataclass(frozen=True)
class HeightIdeal:
    """Elements of the base with height at most p; a two-sided ideal."""

    base: FiniteSemigroup
    p: int
    elements: tuple[ChainMap, ...]


def height_ideal(base: FiniteSemigroup, p: int) -> HeightIdeal:
    """Filter the base down to heights <= p and assert the ideal property."""
    if not 1 <= p <= base.n:
        raise ValueError(f"height bound p={p} out of range 1..{base.n}")
    inside = base.rank <= p  # rank is the image size, the height
    chosen = np.flatnonzero(inside)
    if not all(inside[base.product_rows(chosen, side)].all() for side in "rl"):
        raise RuntimeError(
            f"height-{p} slice of {base!r} is not a two-sided ideal; "
            "the base is not height-monotone"
        )
    return HeightIdeal(base, p, tuple(base.elements[i] for i in chosen))


class ReesQuotient(Carrier):
    """The height-p layer of a regular base with a collapsing zero.

    Index 0 is the distinguished zero, the element None (serialized as the
    token "0"); indices 1..m are the height-p maps, at the ascending base
    indices ``layer``.  The product of two maps is their composite when that
    stays at height p and zero otherwise; zero absorbs.
    """

    def __init__(self, base: FiniteSemigroup, p: int, layer):
        self.base, self.p, self.n, self._layer = base, p, base.n, layer
        self.elements = (None, *(base.elements[i] for i in layer))
        self.rank = np.r_[0, np.full(self.size - 1, p)]  # the zero below one layer
        self._table = self._build_table()
        if self.size - 1 <= _ASSOC_CHECK_MAX:
            self._assert_associative()

    zero_index = 0

    def label(self, i: int) -> str:
        return "0" if i == 0 else map_to_text(self.elements[i])

    def products(self, x, y) -> np.ndarray:
        """Index of a*b for index arrays x and y of one ndim, read off the table."""
        return self._table[_index_pair(x, y)]

    def cayley(self, side: str) -> np.ndarray:
        """The Cayley graphs over every index: quotients are small, so the table is both."""
        return self._table.T if side == "l" else self._table

    def _build_table(self):
        # pos[x] is base element x's carrier index if it is a height-p map and
        # 0 otherwise.  Below height p the products fall into the lower ideal,
        # so reading composites through pos is exactly the collapsing product.
        pos = np.zeros(self.base.size, dtype=TABLE_DTYPE)
        pos[self._layer] = np.arange(1, self.size)
        return np.pad(pos[self.base.products(self._layer[:, None], self._layer[None, :])], (1, 0))

    def _assert_associative(self):
        t = self._table
        for i in range(self.size):
            # bad[j, k] iff (i*j)*k != i*(j*k)
            bad = t[t[i]] != t[i][t]
            if bad.any():
                j, k = divmod(int(np.argmax(bad)), self.size)
                raise RuntimeError(f"collapsing product is not associative at indices ({i},{j},{k})")

    def __repr__(self):
        return f"ReesQuotient(n={self.n}, p={self.p}, size={self.size})"


def rees_quotient(base: FiniteSemigroup, p: int) -> ReesQuotient:
    """Rees factor of the height-(<= p) ideal by the height-(<= p-1) ideal.

    The base must consist of regular elements.
    """
    if not 2 <= p <= base.n:
        raise ValueError(f"quotient height p={p} out of range 2..{base.n}")
    layer = np.flatnonzero(base.rank == p)
    # Before any product: the budget also keeps every index inside TABLE_DTYPE.
    check_table_budget(layer.size + 1)
    if not _regular_mask(base).all():
        raise ValueError("base contains non-regular elements")
    height_ideal(base, p)  # asserts the ideal property
    if not layer.size:
        raise RuntimeError(f"height-{p} layer of {base!r} is empty")
    return ReesQuotient(base, p, layer)


@dataclass(frozen=True)
class InverseVerification:
    """Independently computed inverse-semigroup criteria for one carrier.

    ``inverse`` is the verdict of the first route; ``consistent`` records that
    the three routes (regular + commuting idempotents, unique inverses,
    orthodox + L-unipotent + R-unipotent) all said the same thing.
    """

    size: int
    all_regular: bool
    idempotents_commute: bool
    unique_inverses: bool
    orthodox: bool
    l_unipotent: bool
    r_unipotent: bool
    inverse: bool
    consistent: bool

    def as_dict(self) -> dict:
        return asdict(self)


def verify_inverse(c) -> InverseVerification:
    """Check the inverse-semigroup property of a carrier three independent ways.

    (i) every element regular and idempotents commute, (ii) every element has
    exactly one inverse, (iii) orthodox plus unique idempotents per L-class
    and per R-class.  ``consistent`` says whether all three agree.
    """
    all_regular = bool(_regular_mask(c).all())
    commute = idempotents_commute(c)
    unique = bool((_unique_inverse_counts(c) == 1).all())
    orthodox = is_orthodox(c)
    l_uni, r_uni = is_l_unipotent(c), is_r_unipotent(c)
    by_structure = all_regular and commute
    consistent = by_structure == unique == (orthodox and l_uni and r_uni)
    return InverseVerification(
        size=c.size,
        all_regular=all_regular,
        idempotents_commute=commute,
        unique_inverses=unique,
        orthodox=orthodox,
        l_unipotent=l_uni,
        r_unipotent=r_uni,
        inverse=by_structure,
        consistent=consistent,
    )


def is_inverse(c) -> bool:
    """True iff the carrier is an inverse semigroup; RuntimeError unless the
    three criteria of ``verify_inverse`` agree."""
    report = verify_inverse(c)
    if not report.consistent:
        raise RuntimeError(
            "inverse-semigroup criteria disagree (commuting idempotents, unique inverses, "
            "orthodox and unipotent); this indicates a bug in the product machinery"
        )
    return report.inverse
