"""Named verification suites: oracle-versus-characterization scans.

Every suite compares a characterized predicate with its brute-force oracle on
a whole family, or scans a family for a structural property.  A failed
verdict always carries a replayable counterexample payload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import relations
from .limits import check_family_size
from .maps import ChainMap, is_idempotent, map_to_text
from .partitions import (
    coarsest_merely_convex_refinement,
    kernel,
    kernel_word,
    max_convex_refinement,
    partition_to_text,
)
from .relations import (
    STARRED_KINDS,
    abundance_witness,
    green_oracle,
    starred_partition,
    unipotence_witness,
)
from .semigroups import (
    ClosureError,
    _first_idempotent_pair,
    _regular_mask,
    enumerate_family,
    family_words,
    generated_subsemigroup,
    idempotents,
    orthodox_witness,
    regular_subsemigroup,
)

__all__ = ["VerifyReport", "CHECK_IDS", "run_check", "first_counterexample"]


@dataclass
class VerifyReport:
    """Outcome of one named check on one family and size."""

    check: str
    family: str | None
    n: int | None
    verdict: str  # "pass" or "fail"
    counterexample: dict | None = None
    detail: dict = field(default_factory=dict)
    # Time from the previous report of the same check (or from the check's
    # start, so the first report also carries the check's shared setup).
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def as_dict(self, include_timing: bool = False) -> dict:
        obj: dict = {
            "check": self.check,
            "family": self.family,
            "n": self.n,
            "verdict": self.verdict,
        }
        if self.counterexample is not None:
            obj["counterexample"] = self.counterexample
        if self.detail:
            obj["detail"] = self.detail
        if include_timing:
            obj["elapsed_ms"] = round(self.elapsed_ms, 3)
        return obj


# -- individual checks ---------------------------------------------------------


def _check_regularity(check_id: str, family: str, n: int):
    """Compare the regular elements with the family's characterization, as two masks."""
    s = enumerate_family(family, n)
    oracle, char = _regular_mask(s), relations.REGULAR_MASKS[family](s.words)
    bad = np.flatnonzero(oracle != char)
    if bad.size:
        i = bad[0]
        witness = {"map": str(s.elements[i]), "oracle": bool(oracle[i]), "characterized": bool(char[i])}
        yield VerifyReport(check_id, family, n, "fail", witness)
        return
    detail = {"elements": s.size, "regular": int(np.count_nonzero(oracle))}
    yield VerifyReport(check_id, family, n, "pass", detail=detail)


def _scan_pairs(s, labels, edges) -> tuple[int, dict | None]:
    """Compare oracle class labels with a characterized relation on every pair.

    ``edges`` must be the relation's distinct (element, probe) pairs in
    element order, as ``relations._probe_edges`` returns them: i and j are
    related exactly when they hold a common probe.  Each (probe, class) cell
    then counts the class members holding the probe, and row i agrees with
    the oracle when some probe is held by every member of i's class and no
    probe of i is held outside it.  Only the other rows are built, from the edges
    sorted by probe, and compared in ascending i on the pairs (i, j), j >= i,
    of ``combinations_with_replacement`` order.  Returns the number of
    disagreeing pairs and the first one as a witness, or None.
    """
    elements, probes = edges
    size = len(labels)
    cells, held = np.unique(probes.astype(np.int64) * size + labels[elements], return_counts=True)
    cell_probe, cell_class = np.divmod(cells, size)
    exact = np.isin(labels, cell_class[held == np.bincount(labels)[cell_class]])
    crossing = np.bincount(cell_probe) > 1
    exact[elements[crossing[probes]]] = False
    starts = np.searchsorted(elements, np.arange(size + 1))
    order = np.argsort(probes, kind="stable")
    holders, bounds = elements[order], np.searchsorted(probes[order], np.arange(len(crossing) + 1))
    disagreements = 0
    witness = None
    for i in np.flatnonzero(~exact).tolist():
        row = np.zeros(size, dtype=bool)
        for p in probes[starts[i] : starts[i + 1]].tolist():
            row[holders[bounds[p] : bounds[p + 1]]] = True
        oracle = labels[i:] == labels[i]
        char = row[i:]
        bad = np.flatnonzero(oracle != char)
        if bad.size:
            disagreements += int(bad.size)
            if witness is None:
                j = int(bad[0])
                witness = {
                    "maps": [map_to_text(s.elements[i]), map_to_text(s.elements[i + j])],
                    "oracle": bool(oracle[j]),
                    "characterized": bool(char[j]),
                }
    return disagreements, witness


def _check_green(kind: str, family: str, n: int):
    check_id = f"green-{kind}"
    s = enumerate_family(family, n)
    part = green_oracle(s, kind)
    disagreements, witness = _scan_pairs(s, part.labels, relations._probe_edges(s.words, kind))
    detail = {"elements": s.size, "classes": part.class_count, "pairs_disagreeing": disagreements}
    yield VerifyReport(check_id, family, n, "pass" if witness is None else "fail", witness, detail)


def check_starred(family: str, n: int):
    s = enumerate_family(family, n)
    empirical = family == "orct"  # characterizations are only claimed for ct and oct
    for kind in STARRED_KINDS:
        part = starred_partition(s, kind)
        disagreements, witness = _scan_pairs(s, part.labels, relations._probe_edges(s.words, kind))
        if witness is not None:
            witness["kind"] = kind
        detail = {"kind": kind, "elements": s.size, "pairs_disagreeing": disagreements}
        if empirical:
            detail["note"] = "empirical comparison; no claim backs this family"
        yield VerifyReport("starred", family, n, "pass" if witness is None else "fail", witness, detail)


def check_abundance(family: str, n: int):
    s = enumerate_family(family, n)
    for side, check_id in (("left", "abundance-left"), ("right", "abundance-right")):
        witness = abundance_witness(s, side)
        if witness is None:
            yield VerifyReport(check_id, family, n, "pass", detail={"elements": s.size})
        else:
            yield VerifyReport(
                check_id, family, n, "fail",
                {
                    "maps": [map_to_text(m) for m in witness],
                    "reason": f"this {side[0]}-starred class contains no idempotent",
                },
            )


def check_unipotence(family: str, n: int):
    reg = regular_subsemigroup(family, n)
    for side, check_id in (("l", "unipotence-l"), ("r", "unipotence-r")):
        witness = unipotence_witness(reg, side)
        if witness is None:
            yield VerifyReport(check_id, family, n, "pass", detail={"regular_elements": reg.size})
        else:
            ids = [map_to_text(m) for m in witness if is_idempotent(m)]
            yield VerifyReport(
                check_id, family, n, "fail",
                {
                    "maps": [map_to_text(m) for m in witness],
                    "idempotents_in_class": ids,
                    "reason": f"{side}-class of the regular elements with {len(ids)} idempotents",
                },
            )


def _pair_payload(pair) -> dict | None:
    """Witness payload for idempotents (e, f) and their product, or None."""
    if pair is None:
        return None
    e, f, product = map(map_to_text, pair)
    return {"maps": [e, f], "product": product}


def check_orthodox(family: str, n: int):
    try:
        reg = regular_subsemigroup(family, n)
    except ClosureError as exc:
        a, b = exc.pair
        witness = {"reason": f"subset is not closed: {a} * {b} escapes"}
        yield VerifyReport("orthodox", family, n, "fail", witness)
        return
    found = orthodox_witness(reg)
    if found is None:
        yield VerifyReport("orthodox", family, n, "pass", detail={"regular_elements": reg.size})
        return
    if len(found) == 3:
        witness = {**_pair_payload(found), "reason": "product of idempotents is not idempotent"}
    else:
        witness = {"maps": [map_to_text(found[0])], "reason": "not regular within the regular elements"}
    yield VerifyReport("orthodox", family, n, "fail", witness)


def check_idempotent_products(family: str, n: int):
    s = enumerate_family(family, n)
    ids = idempotents(s)
    if family == "ct":
        witness = _pair_payload(_first_idempotent_pair(s, ~_regular_mask(s)))
        yield VerifyReport(
            "idempotent-products", family, n,
            "pass" if witness is None else "fail", witness,
            {"claim": "products of idempotents are regular", "idempotents": len(ids)},
        )
        gen = generated_subsemigroup(s, ids)
        irregular = np.flatnonzero(~_regular_mask(gen))  # elements are sorted: the first is least
        bad = None
        if irregular.size:
            first = map_to_text(gen.elements[irregular[0]])
            bad = {"map": first, "reason": "not regular inside the idempotent-generated subsemigroup"}
        yield VerifyReport(
            "idempotent-products", family, n, "pass" if bad is None else "fail", bad,
            {"claim": "idempotent-generated subsemigroup is regular", "generated_size": gen.size},
        )
    else:
        witness = _pair_payload(_first_idempotent_pair(s))
        yield VerifyReport(
            "idempotent-products", family, n,
            "pass" if witness is None else "fail", witness,
            {"claim": "idempotents are closed under product", "idempotents": len(ids)},
        )


def check_refinement_readings(family: str, n: int):
    """Informational: compare the two readings of the coarsest convex refinement.

    The primary reading requires refinements to collapse through a contraction
    (admissible transversal); the alternative accepts any convex transversal.
    Reported, never asserted: this check always passes and carries counts.
    """
    # Only the maps are read, so no carrier or product table is built.
    check_family_size(family, n)
    firsts: dict = {}  # kernel word -> the first map with that kernel
    for word in family_words(family, n).tolist():
        firsts.setdefault(kernel_word(word), word)
    differing = 0
    example = None
    for word in firsts.values():
        a = ChainMap(n, word)
        primary = max_convex_refinement(a)
        alternative = coarsest_merely_convex_refinement(kernel(a))
        if primary != alternative:
            differing += 1
            if example is None:
                example = {
                    "map": map_to_text(a),
                    "admissible_reading": partition_to_text(primary),
                    "convex_only_reading": partition_to_text(alternative),
                }
    detail = {"kernels_scanned": len(firsts), "readings_differ_on": differing}
    if example is not None:
        detail["example"] = example
    yield VerifyReport("refinement-readings", family, n, "pass", detail=detail)


# check id -> (check, the families it supports, the default first)
CHECKS = {
    "regularity-ct": (partial(_check_regularity, "regularity-ct"), ("ct",)),
    "regularity-orct": (partial(_check_regularity, "regularity-orct"), ("orct", "oct")),
    "green-l": (partial(_check_green, "l"), ("ct",)),
    "green-r": (partial(_check_green, "r"), ("ct",)),
    "green-d": (partial(_check_green, "d"), ("ct",)),
    "starred": (check_starred, ("ct", "oct", "orct")),
    "abundance": (check_abundance, ("ct", "oct", "orct")),
    "unipotence": (check_unipotence, ("orct", "oct")),
    "orthodox": (check_orthodox, ("orct", "oct", "ct")),
    "idempotent-products": (check_idempotent_products, ("ct", "oct", "orct")),
    "refinement-readings": (check_refinement_readings, ("ct",)),
}

CHECK_IDS = tuple(CHECKS)


def run_check(check_id: str, n: int, family: str | None = None) -> list[VerifyReport]:
    """Run one named check; ``family`` defaults per check."""
    try:
        fn, families = CHECKS[check_id]
    except KeyError:
        raise ValueError(f"unknown check id {check_id!r}; known: {', '.join(CHECK_IDS)}") from None
    family = family or families[0]
    if family not in families:
        raise ValueError(f"check {check_id!r} supports families {', '.join(families)}; got {family!r}")
    reports = []
    start = time.perf_counter()
    for report in fn(family, n):
        now = time.perf_counter()
        report.elapsed_ms = (now - start) * 1000.0
        reports.append(report)
        start = now
    return reports


def first_counterexample(check_id: str, n: int, family: str | None = None) -> dict | None:
    """The first failing report's payload for a named check, or None."""
    for report in run_check(check_id, n, family):
        if not report.passed and report.counterexample is not None:
            return report.counterexample
    return None
