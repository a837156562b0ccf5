"""Command-line front end.

Subcommands: enumerate, analyze, relations, verify, rees, counterexample.
Each ``cmd_*`` returns (payload, CSV rows as a generator, exit code); ``main``
writes the payload as JSON by default (byte-identical across identical
invocations) or the rows as a flat CSV projection.  Exit codes: 0 success, 1
verification failure or counterexample found, 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .checks import CHECK_IDS, CHECKS, first_counterexample, run_checks
from .limits import check_family_size
from .maps import (
    FamilyTag,
    fix_points,
    height,
    image,
    is_contraction,
    is_idempotent,
    is_isometry_map,
    is_order_decreasing,
    is_order_preserving,
    is_order_reversing,
    map_from_text,
    map_to_text,
)
from .partitions import (
    is_admissible,
    is_convex,
    is_relatively_convex,
    kernel,
    max_convex_refinement,
    partition_to_json,
    partition_to_text,
    transversals,
)
from .relations import (
    CHAR_SUPPORT,
    GREEN_KINDS,
    STARRED_KINDS,
    char_partition,
    green_oracle,
    regular_char_ct,
    regular_char_orct,
    starred_partition,
)
from .rees import rees_quotient, verify_inverse
from .semigroups import (
    _regular_mask,
    enumerate_family,
    family_words,
    idempotent_indices,
    is_regular_in,
    regular_subsemigroup,
)

SCHEMA = 1


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_csv(rows: list[dict]) -> None:
    if not rows:
        return
    writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _add_common(sub):
    sub.add_argument("--n", type=_positive_int, required=True)
    sub.add_argument("--output", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contracta",
        description="Finite semigroups of full contraction maps on a chain",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    families = [tag.value for tag in FamilyTag]

    p = commands.add_parser("enumerate", help="list a family and its structure counts")
    p.add_argument("--family", choices=families, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = commands.add_parser("analyze", help="full report on a single map")
    p.add_argument("--map", dest="map_text", metavar="WORD", required=True,
                   help="image word, e.g. [1,2,2,3,4,3]")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = commands.add_parser("relations", help="relation classes of a family")
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("--relation", choices=GREEN_KINDS + STARRED_KINDS, required=True)
    p.add_argument("--method", choices=("oracle", "char"), default="oracle")
    _add_common(p)
    p.set_defaults(func=cmd_relations)

    p = commands.add_parser("verify", help="run named oracle-vs-characterization suites")
    p.add_argument("--check", required=True, help=f"comma-separated check ids: {', '.join(CHECK_IDS)}")
    p.add_argument("--family", choices=families)
    p.add_argument("--timing", action="store_true", help="include elapsed_ms in the JSON output")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = commands.add_parser("rees", help="height-layer Rees factor of a regular base")
    p.add_argument("--family", choices=("orct", "oct"), required=True)
    p.add_argument("--p", type=_positive_int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_rees)

    p = commands.add_parser("counterexample", help="scan a family for the first violation of a named check")
    p.add_argument("--check", required=True, choices=CHECK_IDS)
    p.add_argument("--family", choices=families)
    _add_common(p)
    p.set_defaults(func=cmd_counterexample)

    return parser


# -- subcommand bodies ---------------------------------------------------------


def cmd_enumerate(args):
    s = enumerate_family(args.family, args.n)
    ids = set(idempotent_indices(s).tolist())
    reg = _regular_mask(s).tolist()
    payload = {
        "family": args.family,
        "n": args.n,
        "count": s.size,
        "idempotent_count": len(ids),
        "regular_count": sum(reg),
        "elements": s.words.tolist(),
    }
    rows = (
        {
            "word": map_to_text(m),
            "idempotent": int(i in ids),
            "regular": int(reg[i]),
        }
        for i, m in enumerate(s.elements)
    )
    return payload, rows, 0


def _smallest_family(m) -> str:
    for tag in (FamilyTag.OCT, FamilyTag.ORCT, FamilyTag.CT):
        if tag.contains(m):
            return tag.value
    return "t"


def cmd_analyze(args):
    m = map_from_text(args.map_text, args.n)
    fam = _smallest_family(m)
    # Before the transversals, whose count grows exponentially with n.
    check_family_size(fam, args.n)
    k = kernel(m)
    ts = [
        {
            "points": list(t.points),
            "convex": is_convex(t),
            "relatively_convex": is_relatively_convex(t),
            "admissible": is_admissible(t),
        }
        for t in transversals(k)
    ]
    contraction = is_contraction(m)
    payload = {
        "map": map_to_text(m),
        "n": m.n,
        "family": fam,
        "contraction": contraction,
        "order_preserving": is_order_preserving(m),
        "order_reversing": is_order_reversing(m),
        "order_decreasing": is_order_decreasing(m),
        "isometry": is_isometry_map(m),
        "idempotent": is_idempotent(m),
        "image": list(image(m)),
        "height": height(m),
        "fix_points": list(fix_points(m)),
        "kernel": partition_to_json(k),
        "kernel_text": partition_to_text(k),
        "transversals": ts,
        "max_convex_refinement": (
            partition_to_text(max_convex_refinement(m)) if contraction else None
        ),
        "regular": {
            "oracle": is_regular_in(family_words(fam, args.n), m),
            "characterized": regular_char_ct(m) if contraction else None,
            "characterized_orct": (
                regular_char_orct(m) if FamilyTag.ORCT.contains(m) else None
            ),
            "oracle_family": fam,
        },
    }
    rows = (
        {
            "map": p["map"],
            "family": p["family"],
            "height": p["height"],
            "idempotent": int(p["idempotent"]),
            "regular_oracle": int(p["regular"]["oracle"]),
            "kernel": p["kernel_text"],
        }
        for p in (payload,)
    )
    return payload, rows, 0


def _check_char_method(family: str, relation: str) -> None:
    support = CHAR_SUPPORT.get(relation)
    if support is None:
        raise ValueError(f"no characterized procedure exists for the {relation} relation; use --method oracle")
    if family not in support:
        names = " or ".join(map(repr, support))
        where = f"family {names}" if len(support) == 1 else f"the contraction families {names}"
        raise ValueError(f"characterized {relation} is only available for {where}; use --method oracle")


def cmd_relations(args):
    if args.method == "char":
        _check_char_method(args.family, args.relation)
    s = enumerate_family(args.family, args.n)
    if args.method == "oracle":
        part = (green_oracle if args.relation in GREEN_KINDS else starred_partition)(s, args.relation)
    else:
        part = char_partition(s, args.relation)
    classes = [sorted(map_to_text(s.elements[i]) for i in c) for c in part.classes]
    payload = {
        "family": args.family,
        "n": args.n,
        "relation": args.relation,
        "method": part.method,
        "class_count": part.class_count,
        "classes": classes,
    }
    if args.method == "char" and CHAR_SUPPORT[args.relation][args.family] == "empirical":
        payload["note"] = "characterization is empirical for this family; cross-check with --method oracle"
    rows = ({"class": ci, "word": word} for ci, c in enumerate(classes) for word in c)
    return payload, rows, 0


def cmd_verify(args):
    ids = [c.strip() for c in args.check.split(",") if c.strip()]
    if not ids:
        raise ValueError(f"no check id given; known: {', '.join(CHECK_IDS)}")
    reports = []
    for check_id, batch in run_checks(ids, args.n, args.family):
        reports.extend(batch)
        print(f"# {check_id}: {sum(r.elapsed_ms for r in batch):.1f} ms", file=sys.stderr)
    payload = {
        "n": args.n,
        "reports": [r.as_dict(include_timing=args.timing) for r in reports],
    }
    rows = (
        {
            "check": r.check,
            "family": r.family,
            "n": r.n,
            "verdict": r.verdict,
            "counterexample": json.dumps(r.counterexample, sort_keys=True)
            if r.counterexample
            else "",
        }
        for r in reports
    )
    return payload, rows, 0 if all(r.passed for r in reports) else 1


def cmd_rees(args):
    q = rees_quotient(regular_subsemigroup(args.family, args.n), args.p)
    verification = verify_inverse(q)
    payload = {
        "family": args.family,
        "n": args.n,
        "p": args.p,
        "carrier_size": q.size,
        "carrier": [q.label(i) for i in range(q.size)],
        "idempotents": [q.label(i) for i in idempotent_indices(q)],
        "inverse_verification": verification.as_dict(),
    }
    rows = (
        {
            "family": p["family"],
            "n": p["n"],
            "p": p["p"],
            "carrier_size": p["carrier_size"],
            "inverse": int(verification.inverse),
            "consistent": int(verification.consistent),
        }
        for p in (payload,)
    )
    return payload, rows, 0


def cmd_counterexample(args):
    witness = first_counterexample(args.check, args.n, args.family)
    payload = {
        "check": args.check,
        "family": args.family or CHECKS[args.check][1][0],
        "n": args.n,
        "witness": witness,
    }
    rows = (
        {
            "check": p["check"],
            "family": p["family"],
            "n": p["n"],
            "witness": json.dumps(p["witness"], sort_keys=True) if p["witness"] else "none",
        }
        for p in (payload,)
    )
    return payload, rows, 1 if witness is not None else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, rows, code = args.func(args)
        if args.output == "json":
            _emit_json({"schema": SCHEMA, "command": args.command, **payload})
        else:
            _emit_csv(list(rows))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
