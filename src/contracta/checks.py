"""Named verification suites: oracle-versus-characterization scans.

Every suite compares a characterized predicate with its brute-force oracle on
a whole family, or scans a family for a structural property; each check reads
the family's carrier, which ``run_checks`` builds once for every check on it.
A failed verdict always carries a replayable counterexample payload.
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
    CHAR_SUPPORT,
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
    generated_subsemigroup,
    idempotents,
    orthodox_witness,
    regular_elements,
    subsemigroup,
)

__all__ = ["VerifyReport", "CHECK_IDS", "run_check", "run_checks", "first_counterexample"]


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
    # start, so the first report also carries the check's shared setup and,
    # in the first check run on a family, the family's build).
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


# -- individual checks: each reads the carrier of its family ------------------


def _report(check_id: str, s, witness: dict | None, detail: dict | None = None) -> VerifyReport:
    """The verdict of one check on carrier s: a pass when ``witness`` is None."""
    return VerifyReport(check_id, s.family, s.n, "pass" if witness is None else "fail", witness, detail or {})


def _check_regularity(check_id: str, s):
    """Compare the regular elements with the family's characterization, as two masks."""
    oracle, char = _regular_mask(s), relations.REGULAR_MASKS[s.family](s.words)
    bad = np.flatnonzero(oracle != char)
    if bad.size:
        i = bad[0]
        witness = {"map": str(s.elements[i]), "oracle": bool(oracle[i]), "characterized": bool(char[i])}
        yield _report(check_id, s, witness)
    else:
        yield _report(check_id, s, None, {"elements": s.size, "regular": int(np.count_nonzero(oracle))})


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


def _compared(check_id: str, s, kind: str, part, detail: dict) -> VerifyReport:
    """The report of the characterized ``kind`` against its oracle partition on s."""
    disagreements, witness = _scan_pairs(s, part.labels, relations._probe_edges(s.words, kind))
    detail.update(elements=s.size, pairs_disagreeing=disagreements)
    if CHAR_SUPPORT[kind][s.family] == "empirical":
        detail["note"] = "empirical comparison; no claim backs this family"
    return _report(check_id, s, witness, detail)


def _check_green(kind: str, s):
    part = green_oracle(s, kind)
    yield _compared(f"green-{kind}", s, kind, part, {"classes": part.class_count})


def check_starred(s):
    for kind in STARRED_KINDS:
        report = _compared("starred", s, kind, starred_partition(s, kind), {"kind": kind})
        if report.counterexample is not None:
            report.counterexample["kind"] = kind
        yield report


def check_abundance(s):
    for side in ("left", "right"):
        witness = abundance_witness(s, side)
        if witness is None:
            yield _report(f"abundance-{side}", s, None, {"elements": s.size})
        else:
            reason = f"this {side[0]}-starred class contains no idempotent"
            yield _report(f"abundance-{side}", s, {"maps": [map_to_text(m) for m in witness], "reason": reason})


def check_unipotence(s):
    reg = subsemigroup(s, regular_elements(s))
    for side in ("l", "r"):
        witness = unipotence_witness(reg, side)
        if witness is None:
            yield _report(f"unipotence-{side}", s, None, {"regular_elements": reg.size})
        else:
            ids = [map_to_text(m) for m in witness if is_idempotent(m)]
            yield _report(f"unipotence-{side}", s, {
                "maps": [map_to_text(m) for m in witness],
                "idempotents_in_class": ids,
                "reason": f"{side}-class of the regular elements with {len(ids)} idempotents",
            })


def _pair_payload(pair) -> dict | None:
    """Witness payload for idempotents (e, f) and their product, or None."""
    if pair is None:
        return None
    e, f, product = map(map_to_text, pair)
    return {"maps": [e, f], "product": product}


def check_orthodox(s):
    try:
        reg = subsemigroup(s, regular_elements(s))
    except ClosureError as exc:
        a, b = exc.pair
        yield _report("orthodox", s, {"reason": f"subset is not closed: {a} * {b} escapes"})
        return
    found = orthodox_witness(reg)
    if found is None:
        yield _report("orthodox", s, None, {"regular_elements": reg.size})
    elif len(found) == 3:
        reason = "product of idempotents is not idempotent"
        yield _report("orthodox", s, {**_pair_payload(found), "reason": reason})
    else:
        reason = "not regular within the regular elements"
        yield _report("orthodox", s, {"maps": [map_to_text(found[0])], "reason": reason})


def check_idempotent_products(s):
    ids = idempotents(s)
    if s.family != "ct":
        detail = {"claim": "idempotents are closed under product", "idempotents": len(ids)}
        yield _report("idempotent-products", s, _pair_payload(_first_idempotent_pair(s)), detail)
        return
    witness = _pair_payload(_first_idempotent_pair(s, ~_regular_mask(s)))
    detail = {"claim": "products of idempotents are regular", "idempotents": len(ids)}
    yield _report("idempotent-products", s, witness, detail)
    gen = generated_subsemigroup(s, ids)
    irregular = np.flatnonzero(~_regular_mask(gen))  # elements are sorted: the first is least
    bad = None
    if irregular.size:
        first = map_to_text(gen.elements[irregular[0]])
        bad = {"map": first, "reason": "not regular inside the idempotent-generated subsemigroup"}
    detail = {"claim": "idempotent-generated subsemigroup is regular", "generated_size": gen.size}
    yield _report("idempotent-products", s, bad, detail)


def check_refinement_readings(s):
    """Informational: compare the two readings of the coarsest convex refinement.

    The primary reading requires refinements to collapse through a contraction
    (admissible transversal); the alternative accepts any convex transversal.
    Reported, never asserted: this check always passes and carries counts.
    """
    firsts: dict = {}  # kernel word -> the first map with that kernel
    for word in s.words.tolist():
        firsts.setdefault(kernel_word(word), word)
    differing = 0
    example = None
    for word in firsts.values():
        a = ChainMap(s.n, word)
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
    yield _report("refinement-readings", s, None, detail)


# check id -> (check, the families it supports, the default first)
CHECKS = {
    "regularity-ct": (partial(_check_regularity, "regularity-ct"), ("ct",)),
    "regularity-orct": (partial(_check_regularity, "regularity-orct"), ("orct", "oct")),
    **{f"green-{kind}": (partial(_check_green, kind), tuple(CHAR_SUPPORT[kind])) for kind in "lrd"},
    "starred": (check_starred, tuple(CHAR_SUPPORT["lstar"])),
    "abundance": (check_abundance, ("ct", "oct", "orct")),
    "unipotence": (check_unipotence, ("orct", "oct")),
    "orthodox": (check_orthodox, ("orct", "oct", "ct")),
    "idempotent-products": (check_idempotent_products, ("ct", "oct", "orct")),
    "refinement-readings": (check_refinement_readings, ("ct",)),
}

CHECK_IDS = tuple(CHECKS)


def _family_of(check_id: str, family: str | None) -> str:
    """The family a check runs on: ``family``, or the check's default."""
    try:
        families = CHECKS[check_id][1]
    except KeyError:
        raise ValueError(f"unknown check id {check_id!r}; known: {', '.join(CHECK_IDS)}") from None
    family = family or families[0]
    if family not in families:
        raise ValueError(f"check {check_id!r} supports families {', '.join(families)}; got {family!r}")
    return family


def run_checks(check_ids, n: int, family: str | None = None):
    """Yield (check id, its reports) for each named check in turn, once every
    id, family and family guard has passed; ``family`` defaults per check.
    Each family is built once, inside the first check run on it, so that
    check's first report carries the build."""
    plan = [(check_id, _family_of(check_id, family)) for check_id in check_ids]
    carriers = dict.fromkeys(fam for _, fam in plan)
    for fam in carriers:
        check_family_size(fam, n)
    for check_id, fam in plan:
        reports = []
        start = time.perf_counter()
        if carriers[fam] is None:
            carriers[fam] = enumerate_family(fam, n)
        for report in CHECKS[check_id][0](carriers[fam]):
            now = time.perf_counter()
            report.elapsed_ms = (now - start) * 1000.0
            reports.append(report)
            start = now
        yield check_id, reports


def run_check(check_id: str, n: int, family: str | None = None) -> list[VerifyReport]:
    """Run one named check; ``family`` defaults per check."""
    [(_, reports)] = run_checks([check_id], n, family)
    return reports


def first_counterexample(check_id: str, n: int, family: str | None = None) -> dict | None:
    """The first failing report's payload for a named check, or None."""
    return next((r.counterexample for r in run_check(check_id, n, family) if not r.passed), None)
