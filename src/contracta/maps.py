"""Full transformations of the chain {1, ..., n}, stored as image words.

A map is a total function on the chain; entry ``i`` of the word is the image
of ``i``.  Everything here is 1-indexed, immutable, and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

__all__ = [
    "ChainMap",
    "FamilyTag",
    "make_map",
    "identity_map",
    "compose",
    "is_contraction",
    "is_order_preserving",
    "is_order_reversing",
    "is_order_decreasing",
    "is_isometry_map",
    "image",
    "height",
    "fix_points",
    "is_idempotent",
    "map_to_text",
    "map_from_text",
    "map_to_json",
    "map_from_json",
]


@dataclass(frozen=True, order=True)
class ChainMap:
    """A full transformation of {1, ..., n}; ``images[i-1]`` is the image of i."""

    n: int
    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if self.n < 1:
            raise ValueError(f"chain size must be positive, got {self.n}")
        if len(self.images) != self.n:
            raise ValueError(f"expected {self.n} images, got {len(self.images)}")
        for pos, value in enumerate(self.images, start=1):
            if not isinstance(value, int) or not 1 <= value <= self.n:
                raise ValueError(f"image at position {pos} is {value!r}, outside 1..{self.n}")

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __repr__(self):
        return f"ChainMap({self.n}, {list(self.images)})"

    def __str__(self):
        return map_to_text(self)


def make_map(n: int, images) -> ChainMap:
    """Validate and build a map from its image word."""
    return ChainMap(n, tuple(images))


def identity_map(n: int) -> ChainMap:
    return ChainMap(n, tuple(range(1, n + 1)))


def compose(a: ChainMap, b: ChainMap) -> ChainMap:
    """Apply ``a`` first, then ``b``:  x -> b(a(x))."""
    if a.n != b.n:
        raise ValueError(f"cannot compose maps on chains of size {a.n} and {b.n}")
    bi = b.images
    return ChainMap(a.n, tuple(bi[v - 1] for v in a.images))


def _word_is_contraction(word: tuple[int, ...]) -> bool:
    # Checks every pair, not just adjacent positions; see the note on
    # is_contraction.
    n = len(word)
    for i in range(n):
        wi = word[i]
        for j in range(i + 1, n):
            if abs(wi - word[j]) > j - i:
                return False
    return True


def is_contraction(a: ChainMap) -> bool:
    """True iff |a(x) - a(y)| <= |x - y| for every pair x, y.

    All O(n^2) pairs are checked; the adjacent-pair shortcut is only obviously
    valid for monotone maps and is deliberately not relied on here.
    """
    return _word_is_contraction(a.images)


def _word_is_order_preserving(word: tuple[int, ...]) -> bool:
    return all(word[i] <= word[i + 1] for i in range(len(word) - 1))


def _word_is_order_reversing(word: tuple[int, ...]) -> bool:
    return all(word[i] >= word[i + 1] for i in range(len(word) - 1))


def is_order_preserving(a: ChainMap) -> bool:
    """True iff x <= y implies a(x) <= a(y)."""
    return _word_is_order_preserving(a.images)


def is_order_reversing(a: ChainMap) -> bool:
    """True iff x <= y implies a(x) >= a(y)."""
    return _word_is_order_reversing(a.images)


def is_order_decreasing(a: ChainMap) -> bool:
    """True iff a(x) <= x for every x."""
    return all(v <= x for x, v in enumerate(a.images, start=1))


def is_isometry_map(a: ChainMap) -> bool:
    """True iff all pairwise distances are preserved exactly.

    On a chain these are precisely the translations x -> x + e and the
    reflections x -> c - x whose range stays inside the chain.
    """
    img = a.images
    return all(abs(img[i] - img[j]) == j - i for i, j in combinations(range(a.n), 2))


def image(a: ChainMap) -> tuple[int, ...]:
    """The image of ``a`` as a sorted tuple of distinct points."""
    return tuple(sorted(set(a.images)))


def height(a: ChainMap) -> int:
    """Size of the image."""
    return len(set(a.images))


def fix_points(a: ChainMap) -> tuple[int, ...]:
    """Sorted tuple of points x with a(x) = x."""
    return tuple(x for x, v in enumerate(a.images, start=1) if v == x)


def is_idempotent(a: ChainMap) -> bool:
    """True iff a composed with itself equals a."""
    return compose(a, a) == a


class FamilyTag(Enum):
    """The four map families.  Membership nests: OCT <= ORCT <= CT <= T."""

    T = "t"
    CT = "ct"
    OCT = "oct"
    ORCT = "orct"

    @classmethod
    def coerce(cls, value) -> "FamilyTag":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(
                f"unknown family {value!r}; expected one of t, ct, oct, orct"
            ) from None

    def contains(self, a: ChainMap) -> bool:
        return self._word_member(a.images)

    def _word_member(self, word: tuple[int, ...]) -> bool:
        # Membership of a raw image word; the enumerators use it to avoid
        # building maps that will be discarded.
        if self is FamilyTag.T:
            return True
        if not _word_is_contraction(word):
            return False
        if self is FamilyTag.CT:
            return True
        if self is FamilyTag.OCT:
            return _word_is_order_preserving(word)
        return _word_is_order_preserving(word) or _word_is_order_reversing(word)


# -- text and JSON encodings -------------------------------------------------
#
# Canonical text form: the image word in brackets, e.g. "[1,2,2,3,4,3]".
# JSON object form: {"n": 6, "img": [1, 2, 2, 3, 4, 3]}.  Both 1-indexed.


def map_to_text(a: ChainMap) -> str:
    return "[" + ",".join(str(v) for v in a.images) + "]"


def map_from_text(text: str, n: int | None = None) -> ChainMap:
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"malformed image word {text!r}; expected e.g. [1,2,2,3]")
    inner = body[1:-1].strip()
    if not inner:
        raise ValueError("empty image word")
    try:
        values = [int(part.strip()) for part in inner.split(",")]
    except ValueError:
        raise ValueError(f"malformed image word {text!r}; entries must be integers") from None
    return ChainMap(n if n is not None else len(values), tuple(values))


def map_to_json(a: ChainMap) -> dict:
    return {"n": a.n, "img": list(a.images)}


def map_from_json(obj: dict) -> ChainMap:
    return ChainMap(int(obj["n"]), tuple(int(v) for v in obj["img"]))
