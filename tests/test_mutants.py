"""Named mutants of the characterized keys and regularity masks, each pinned
by where the oracle comparison first catches it.

A mutant is a deliberately broken characterization.  Key mutants stand in
for the route's probes of one kind, ``relations._probe_edges``, and are
compared with the oracle by ``_scan_pairs`` over those probe edges, as
``verify`` compares them; mask mutants stand in for a family's entry of
``relations.REGULAR_MASKS`` and run through ``verify``'s regularity check.
Each mutant pins, per family, the least n <= 8 at which the comparison
disagrees and the number of disagreeing pairs (or maps) there, or that it
agrees up to n = 8: a fact about the families, found empirically.
"""

import numpy as np
import pytest

import contracta.relations as rel
from contracta import green_oracle, run_check, starred_partition
from contracta.checks import _scan_pairs
from contracta.partitions import kernel_word, refinement_windows
from contracta.semigroups import FiniteSemigroup, _regular_mask, family_words

MAX_N = 8
# A plain pair loop replays a key mutant's rows where it is caught, up to
# this n: ct6 has 451,725 pairs, ct8 69,791,205.
REPLAY_MAX_N = 6


def _profiles(word, windows):
    return [word[lo - 1 : lo - 1 + p] for lo, p in windows]


def _refinement_windows(kernel):
    lo, p, [ok] = refinement_windows([kernel])
    return list(zip(lo[ok].tolist(), p[ok].tolist()))


def _refinement_profiles(word):
    return _profiles(word, _refinement_windows(kernel_word(word)))


def _own_window_profiles(word):
    # the admissible convex transversals of the kernel itself, none of a
    # proper refinement's
    kernel = kernel_word(word)
    return _profiles(word, [(lo, p) for lo, p in _refinement_windows(kernel) if p == max(kernel) + 1])


def _meeting_profiles(word):
    # every window that meets every kernel block, admissible or not: any
    # convex transversal of some refinement
    n, height = len(word), len(set(word))
    windows = [(lo, p) for p in range(height, n + 1) for lo in range(1, n - p + 2)]
    return [t for t in _profiles(word, windows) if len(set(t)) == height]


def _image(word):
    return {tuple(sorted(set(word)))}


def _height(word):
    return {len(set(word))}


def _least(word):
    return {min(word)}


def _kernel(word):
    return {kernel_word(word)}


def _block_sizes(word):
    # the kernel's block sizes, blocks ordered by least point
    kernel = kernel_word(word)
    return {tuple(kernel.count(b) for b in range(max(kernel) + 1))}


# name -> (kind, the keys of one image word)
KEY_MUTANTS = {
    "l without the reversal": ("l", lambda w: set(_refinement_profiles(w))),
    "l over the kernel's own convex windows only": (
        "l", lambda w: {min(t, t[::-1]) for t in _own_window_profiles(w)}
    ),
    "l keyed by the image set": ("l", _image),
    "l without admissibility": ("l", lambda w: {min(t, t[::-1]) for t in _meeting_profiles(w)}),
    "d without the reversal": ("d", lambda w: {kernel_word(t) for t in _refinement_profiles(w)}),
    "d without admissibility": (
        "d", lambda w: {min(kernel_word(t), kernel_word(t[::-1])) for t in _meeting_profiles(w)}
    ),
    "d keyed by height alone": ("d", _height),
    "h without the reversal": ("h", lambda w: {(kernel_word(w), t) for t in _refinement_profiles(w)}),
    "h keyed by the kernel and the image set": ("h", lambda w: {(kernel_word(w), *_image(w))}),
    "h without admissibility": (
        "h", lambda w: {(kernel_word(w), min(t, t[::-1])) for t in _meeting_profiles(w)}
    ),
    "r keyed by the image set": ("r", _image),
    "r keyed by the height": ("r", _height),
    "lstar keyed by the height": ("lstar", _height),
    "lstar keyed by the image's least point": ("lstar", _least),
    "rstar keyed by the image set": ("rstar", _image),
    "rstar keyed by the kernel's block sizes": ("rstar", _block_sizes),
    "hstar keyed by the image set alone": ("hstar", _image),
    "hstar keyed by the kernel alone": ("hstar", _kernel),
    "dstar keyed by the image set": ("dstar", _image),
    "dstar keyed by the image's least point": ("dstar", _least),
}

# name -> (family -> (least n caught, disagreeing pairs there), or None when
# no n <= 8 catches it)
KEY_PINS = {
    "l without the reversal": {"ct": (2, 1), "oct": None, "orct": (2, 1)},
    # A map whose kernel has no admissible convex transversal holds no key,
    # so it disagrees with itself too: 4 of the 6 pairs of ct4 and orct4.
    "l over the kernel's own convex windows only": {"ct": (4, 6), "oct": (4, 2), "orct": (4, 6)},
    "l keyed by the image set": {"ct": (4, 32), "oct": (4, 4), "orct": (4, 16)},
    # The first ct witness is [1,1,1,2,2,3] with [1,2,2,3,2,1]: the oracle
    # does not relate them, and the mutant does.
    "l without admissibility": {"ct": (6, 384), "oct": None, "orct": None},
    "d without the reversal": {"ct": (5, 16), "oct": None, "orct": (5, 16)},
    # The oct5 pair is [1,2,2,3,4] with [1,2,3,3,4], which the D key itself
    # joins on OCT_5, where it is not claimed: it says nothing about
    # admissibility.
    "d without admissibility": {"ct": (6, 1536), "oct": (5, 4), "orct": None},
    "d keyed by height alone": {"ct": (4, 64), "oct": (4, 8), "orct": (4, 32)},
    "h without the reversal": {"ct": (2, 1), "oct": None, "orct": (2, 1)},
    # On OCT_n, n <= 8, two maps are H-related exactly when they share
    # their kernel and their image.
    "h keyed by the kernel and the image set": {"ct": (5, 4), "oct": None, "orct": (5, 4)},
    "h without admissibility": {"ct": (8, 10), "oct": None, "orct": None},
    "r keyed by the image set": {"ct": (2, 1), "oct": (2, 1), "orct": (2, 1)},
    "r keyed by the height": {"ct": (3, 48), "oct": (3, 4), "orct": (3, 16)},
    "lstar keyed by the height": {"ct": (2, 1), "oct": (2, 1), "orct": (2, 1)},
    "lstar keyed by the image's least point": {"ct": (2, 2), "oct": (2, 1), "orct": (2, 2)},
    "rstar keyed by the image set": {"ct": (2, 1), "oct": (2, 1), "orct": (2, 1)},
    # A monotone map's kernel blocks are intervals, which their sizes in
    # order fix.
    "rstar keyed by the kernel's block sizes": {"ct": (3, 16), "oct": None, "orct": None},
    "hstar keyed by the image set alone": {"ct": (3, 24), "oct": (3, 2), "orct": (3, 8)},
    "hstar keyed by the kernel alone": {"ct": (2, 1), "oct": (2, 1), "orct": (2, 1)},
    "dstar keyed by the image set": {"ct": (2, 1), "oct": (2, 1), "orct": (2, 1)},
    "dstar keyed by the image's least point": {"ct": (2, 3), "oct": (2, 2), "orct": (2, 3)},
}


def _ct_first_window_mask(words):
    # Only the window at point 1: the first rank points take distinct values.
    return np.array([len(set(w[: len(set(w))])) == len(set(w)) for w in words.tolist()])


def _ct_least_first_mask(words):
    # ``relations._convex_window_mask`` with the greatest value looked for
    # only after the least, rank - 1 points on
    n = words.shape[1]
    least, most = words.min(axis=1, keepdims=True), words.max(axis=1, keepdims=True)
    padded = np.pad(words, ((0, 0), (0, n)))
    far = np.take_along_axis(padded, np.arange(n) + most - least, axis=1)
    return ((words == least) & (far == most)).any(axis=1)


def _one_branch_mask(sign):
    """The oct/orct mask with the branch x + sign * a(x) alone: the map is
    constant, or that is constant from the last point of the first block to
    the first point of the last block."""

    def mask(words):
        n = words.shape[1]
        x = np.arange(1, n + 1)
        first_end = (words == words[:, :1]).sum(axis=1)
        last_start = n + 1 - (words == words[:, -1:]).sum(axis=1)
        d = x + sign * words
        steady = (d == np.take_along_axis(d, (first_end - 1)[:, None], axis=1))
        steady |= (x < first_end[:, None]) | (x > last_start[:, None])
        return (first_end == n) | steady.all(axis=1)

    return mask


# name -> (check id, the mask over image words)
MASK_MUTANTS = {
    "ct: the window at point 1 only": ("regularity-ct", _ct_first_window_mask),
    "ct: without the greatest value before the least": ("regularity-ct", _ct_least_first_mask),
    "oct/orct: without the x + a(x) branch": ("regularity-orct", _one_branch_mask(-1)),
    "oct/orct: without the x - a(x) branch": ("regularity-orct", _one_branch_mask(+1)),
}

# name -> (family -> (least n caught, disagreeing maps there), or None)
MASK_PINS = {
    "ct: the window at point 1 only": {"ct": (3, 4)},
    "ct: without the greatest value before the least": {"ct": (2, 1)},
    # x + a(x) is constant on no two points of an order-preserving map
    "oct/orct: without the x + a(x) branch": {"oct": None, "orct": (2, 1)},
    "oct/orct: without the x - a(x) branch": {"oct": (2, 1), "orct": (2, 1)},
}


def _carrier(family, fam, n):
    # Past the family guard of 7, built from the words directly.
    return family(fam, n) if n <= 7 else FiniteSemigroup(n, fam, family_words(fam, n))


def _keyed_route(kind, keys_of):
    """``relations._probe_edges`` with the keys of ``kind`` read per word
    from ``keys_of``."""
    route = rel._probe_edges

    def probe_edges(words, k):
        if k != kind:
            return route(words, k)
        ids: dict = {}
        pairs = []
        for i, word in enumerate(words.tolist()):
            pairs += [(i, ids.setdefault(key, len(ids))) for key in keys_of(tuple(word))]
        return tuple(np.array(pairs, dtype=np.int64).reshape(-1, 2).T)

    return probe_edges


def _oracle(s, kind):
    return (green_oracle if kind in rel.GREEN_KINDS else starred_partition)(s, kind)


def _first_caught(disagreements):
    """(least n, count there) over n = 1..MAX_N of ``disagreements(n)``, or None."""
    for n in range(1, MAX_N + 1):
        count = disagreements(n)
        if count:
            return n, count
    return None


@pytest.mark.parametrize("fam", ["ct", "oct", "orct"])
@pytest.mark.parametrize("name", list(KEY_MUTANTS))
def test_key_mutant_pinned(family, monkeypatch, pair_loop, name, fam):
    kind, keys_of = KEY_MUTANTS[name]
    monkeypatch.setattr(rel, "_probe_edges", _keyed_route(kind, keys_of))

    def scan(s):
        return _scan_pairs(s, _oracle(s, kind).labels, rel._probe_edges(s.words, kind))

    caught = _first_caught(lambda n: scan(_carrier(family, fam, n))[0])
    assert caught == KEY_PINS[name][fam]
    if caught is not None and caught[0] <= REPLAY_MAX_N:
        # The rows built where the keys fail count and order the pairs as a
        # plain loop over the mutant's keys does.
        s = family(fam, caught[0])
        keys = [keys_of(tuple(w)) for w in s.words.tolist()]
        expected = pair_loop(s, _oracle(s, kind).labels, lambda i, j: not keys[i].isdisjoint(keys[j]))
        assert scan(s) == expected


@pytest.mark.parametrize(
    "name,fam", [(name, fam) for name, pins in MASK_PINS.items() for fam in pins]
)
def test_mask_mutant_pinned(family, monkeypatch, name, fam):
    check_id, mask = MASK_MUTANTS[name]
    monkeypatch.setitem(rel.REGULAR_MASKS, fam, mask)

    def disagreements(n):
        s = _carrier(family, fam, n)
        return int(np.count_nonzero(mask(s.words) != _regular_mask(s)))

    caught = _first_caught(disagreements)
    assert caught == MASK_PINS[name][fam]
    if caught is not None:
        s = family(fam, caught[0])
        first = int(np.argmax(mask(s.words) != _regular_mask(s)))
        [report] = run_check(check_id, caught[0], fam)
        assert report.verdict == "fail"
        assert report.counterexample["map"] == str(s.elements[first])
