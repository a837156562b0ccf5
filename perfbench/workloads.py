"""Workloads of the contracta benchmark: commands, seeded inputs, known answers.

Every workload is exhaustive over its family.  The seed only shuffles the
order of the commands and picks the map that ``analyze`` inspects, so every
seed does the same work.  Each command carries the answer it must give: its
exit code, the verdict of every report, and the SHA-256 of its stdout, which
the README promises is byte-identical across identical invocations.

This module does not import ``contracta``: the benchmark's inputs and
expected answers must not come from the program under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

N_WALK = 7


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the answer it must give."""

    argv: tuple[str, ...]
    exit_code: int
    # (check, verdict) of each report of a ``verify`` command, in order.
    verdicts: tuple[tuple[str, str], ...] = ()
    # SHA-256 of stdout; None where the input is seeded.
    digest: str | None = None
    # Extra checks on the parsed payload; returns a list of error messages.
    extra: Callable[[dict], list[str]] | None = None

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _verify(checks: str, family: str, n: int, exit_code: int, verdicts, digest, extra=None) -> Command:
    argv = ("verify", "--check", checks, "--family", family, "--n", str(n))
    return Command(argv, exit_code, tuple(verdicts), digest, extra)


def _idempotent_products_ct6(payload: dict) -> list[str]:
    # ROADMAP finding: idempotent products stop being regular at ct6.
    first = payload["reports"][0].get("counterexample") or {}
    want = {"maps": ["[1,2,3,4,3,2]", "[6,5,5,4,5,6]"], "product": "[6,5,5,4,5,5]"}
    if first != want:
        return [f"idempotent-products witness {first} is not the pinned {want}"]
    return []


def _relations_payload(relation: str, elements: int):
    def check(payload: dict) -> list[str]:
        errors = []
        if payload.get("relation") != relation or payload.get("method") != "oracle":
            errors.append(f"payload names relation {payload.get('relation')!r}, method {payload.get('method')!r}")
        classes = payload.get("classes", [])
        if payload.get("class_count") != len(classes):
            errors.append("class_count does not match the listed classes")
        members = [w for c in classes for w in c]
        if len(members) != elements or len(set(members)) != elements:
            errors.append(f"classes do not partition the {elements} elements")
        return errors

    return check


def _rees_payload(payload: dict) -> list[str]:
    # README: every height-layer Rees quotient is an inverse semigroup by
    # three independent criteria.
    v = payload.get("inverse_verification", {})
    errors = []
    if not (v.get("inverse") and v.get("consistent")):
        errors.append(f"quotient is not verified inverse: {v}")
    if payload.get("carrier_size") != len(payload.get("carrier", ())):
        errors.append("carrier_size does not match the listed carrier")
    return errors


PAIRWISE = [
    _verify("green-l", "ct", 6, 0, [("green-l", "pass")],
            "fb4583df79c7774a27ec4c824d60ac0ae1b47d7e83959f718a7e1235533ee3dd"),
    _verify("green-r", "ct", 6, 0, [("green-r", "pass")],
            "2bdaf193b6c85b6ccd85f991d405fd249c180297cbcf909239b4b37f0e57a205"),
    _verify("green-d", "ct", 6, 0, [("green-d", "pass")],
            "3bb743e5b03c30aa98535a66e300da5e8b2b745474be47fef08564e92ec91799"),
    _verify("starred", "ct", 6, 0, [("starred", "pass")] * 4,
            "c63e34702524df87f0d65f7aef74ed40126b4ae4b1402302c69307e85b73e68e"),
]

_CT7 = 3387
_RELATION_DIGESTS = {
    "l": "60e203d08a1d895f59873e6d6a6c216f6cf08c099ccfda8fee9b12b5bebc243d",
    "r": "d950abf8292e718e9fc23dcc17c4e825ef5d7a853a20cdf2776e9c713753cbcc",
    "j": "0553a69e6e08934368b69e6b1d21b43d71efa7782e588038c7a2b30f243645f9",
    "lstar": "6ed48052f4b003fe02d1c8614ed166b4b9b82a73c6fa01e4880a689d2f455f58",
    "rstar": "ce019d478c21e407c465e8b346550505b80ac00466c53acf09c430c539437e0b",
}

ORACLES = [
    Command(
        ("relations", "--family", "ct", "--n", "7", "--relation", rel, "--method", "oracle"),
        0, (), digest, _relations_payload(rel, _CT7),
    )
    for rel, digest in _RELATION_DIGESTS.items()
] + [
    _verify("abundance", "ct", 7, 1, [("abundance-left", "pass"), ("abundance-right", "fail")],
            "e86e830bc1f0e20d218fac16afece86503429a70f10edc0c0d4b36fab47a8ac2"),
]

_REES_DIGESTS = {
    2: "9b7d9a035e74d6f6544ab029880ae94e7f8a46146528ced5dcbde9375c26a105",
    3: "d9c0c19dd68e4b570ed24b44d45da87b6cfab7f0cecb6683271748fe9001e39d",
    4: "96ec26b89d017c6375e5f800ac23680711b048b5593994b6cc95eb3957c25bb8",
    5: "9f63ee2968d7203bed4389c0c305a5f9c5c1369c4504e42e9175d2dac4e3fcf1",
    6: "b68e8257e35d4e452be1540fe5cb3344df9f5609d84e4c89824305e87bf86086",
    7: "b7f8cb659f84dd2613348f7b33d67c67dd7d1fe0a47623eb848ac4c076380983",
}

SCANS_FIXED = [
    _verify("regularity-ct", "ct", 7, 0, [("regularity-ct", "pass")],
            "4aa0cff5077b85ed5093eecb593647c68f33aa3fb6e76e8c88b4deee0ab83263"),
    _verify("regularity-orct,unipotence,orthodox,idempotent-products", "orct", 7, 1,
            [("regularity-orct", "pass"), ("unipotence-l", "pass"), ("unipotence-r", "fail"),
             ("orthodox", "pass"), ("idempotent-products", "pass")],
            "a4e606929d28a351ad18cb57cfab72178fd3d279d0e87a2b14c6687564960ca6"),
    _verify("regularity-orct", "oct", 7, 0, [("regularity-orct", "pass")],
            "ee521e229c3ac607f1e0119e4b447978b36fdf3056bef596bd21078be7fcd995"),
    _verify("idempotent-products", "ct", 6, 1,
            [("idempotent-products", "fail"), ("idempotent-products", "fail")],
            "447f9c21091a896342b796e792320200e9e73e9092403493ab6e3650a68de067",
            _idempotent_products_ct6),
    _verify("refinement-readings", "ct", 7, 0, [("refinement-readings", "pass")],
            "fac227e41f2a6689974dde4896dd23c3730f6dc36345628eabd04e0029263369"),
] + [
    Command(("rees", "--family", "orct", "--n", "7", "--p", str(p)), 0, (), digest, _rees_payload)
    for p, digest in _REES_DIGESTS.items()
]


def contraction_walk(rng: random.Random, n: int = N_WALK) -> list[int]:
    """A non-monotone walk on 1..n with steps in {-1, 0, +1}.

    Adjacent images differ by at most 1, so by the triangle inequality every
    walk is a contraction; rejecting monotone walks keeps the map out of the
    order-compatible families, so ``analyze`` scans all of ct_n.
    """
    while True:
        word = [rng.randint(1, n)]
        for _ in range(n - 1):
            steps = [s for s in (-1, 0, 1) if 1 <= word[-1] + s <= n]
            word.append(word[-1] + rng.choice(steps))
        rising = all(x <= y for x, y in zip(word, word[1:]))
        falling = all(x >= y for x, y in zip(word, word[1:]))
        if not (rising or falling):
            return word


def _analyze(word: list[int]) -> Command:
    text = "[" + ",".join(map(str, word)) + "]"

    def check(payload: dict) -> list[str]:
        errors = []
        if payload.get("map") != text or payload.get("family") != "ct" or payload.get("contraction") is not True:
            errors.append(f"analyze echoed map {payload.get('map')!r} in family {payload.get('family')!r}")
        reg = payload.get("regular", {})
        if reg.get("oracle") != reg.get("characterized") or reg.get("oracle") is None:
            errors.append(f"regularity oracle and characterization disagree: {reg}")
        return errors

    return Command(("analyze", "--n", str(N_WALK), "--map", text), 0, (), None, check)


WORKLOADS = ("pairwise", "oracles", "scans")


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's commands in the order the seed gives."""
    rng = random.Random(seed)
    if workload == "pairwise":
        cmds = list(PAIRWISE)
    elif workload == "oracles":
        cmds = list(ORACLES)
    elif workload == "scans":
        cmds = SCANS_FIXED + [_analyze(contraction_walk(rng))]
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng.shuffle(cmds)
    return cmds


def check_output(cmd: Command, returncode: int, stdout: bytes) -> list[str]:
    """Known-answer check of one command's exit code and stdout."""
    errors = []
    if returncode != cmd.exit_code:
        errors.append(f"exit code {returncode}, expected {cmd.exit_code}")
    if cmd.digest is not None and hashlib.sha256(stdout).hexdigest() != cmd.digest:
        errors.append("stdout differs from the pinned digest")
    try:
        payload = json.loads(stdout)
    except ValueError:
        return errors + ["stdout is not JSON"]
    if payload.get("schema") != 1:
        errors.append(f"schema {payload.get('schema')!r}, expected 1")
    if cmd.argv[0] == "verify":
        reports = payload.get("reports", [])
        got = tuple((r.get("check"), r.get("verdict")) for r in reports)
        if got != cmd.verdicts:
            errors.append(f"verdicts {got}, expected {cmd.verdicts}")
        for r in reports:
            if r.get("detail", {}).get("pairs_disagreeing", 0) != 0:
                errors.append(f"{r.get('check')}: oracle and characterization disagree")
    if cmd.extra is not None:
        errors.extend(cmd.extra(payload))
    return errors


def pairs_disagreeing(stdout: bytes) -> int:
    """Summed ``pairs_disagreeing`` over a verify command's reports."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return 0
    return sum(r.get("detail", {}).get("pairs_disagreeing", 0) for r in payload.get("reports", []))
