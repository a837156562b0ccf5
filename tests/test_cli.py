"""Command-line interface: formats, determinism, exit codes, replayability."""

import hashlib
import json
import os
import subprocess
import sys
import types

import pytest

import contracta
import contracta.checks as checks
import contracta.cli as cli
import contracta.semigroups as semigroups
from contracta.cli import main
from contracta.semigroups import FiniteSemigroup


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_oct2_json(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--family", "oct", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["count"] == 3
        assert payload["idempotent_count"] == 3
        assert payload["regular_count"] == 3
        assert payload["elements"] == [[1, 1], [1, 2], [2, 2]]

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--family", "oct", "--n", "2", "--output", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "word,idempotent,regular"
        assert len(lines) == 4

    @pytest.mark.parametrize("argv", [
        ("enumerate", "--family", "t", "--n", "6"),
        ("relations", "--family", "t", "--n", "6", "--relation", "l"),
    ], ids=["enumerate", "relations"])
    def test_table_budget_fails_fast(self, capsys, argv):
        # T_6 has 46,656 elements: its product table would need about 2.2e9
        # entries, so the command stops with the estimate instead of
        # computing products one at a time for hours.
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "46,656 elements" in err
        assert "2,176,782,336 entries" in err
        assert "4,353,564,672 bytes" in err

    @pytest.mark.parametrize("argv,message", [
        (("enumerate", "--family", "t", "--n", "7"), "823,543 elements"),
        (("relations", "--family", "t", "--n", "7", "--relation", "l"), "823,543 elements"),
        (("relations", "--family", "t", "--n", "7", "--method", "char", "--relation", "l"),
         "only available for family 'ct'"),
    ], ids=["enumerate", "relations", "relations-char"])
    def test_rejected_before_enumerating(self, capsys, monkeypatch, argv, message):
        # Neither the table budget nor an unavailable characterized method
        # waits for the 823,543 maps: no ChainMap is built.
        def unreachable(*args):
            raise AssertionError("a map was built")

        monkeypatch.setattr(semigroups, "ChainMap", unreachable)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err

    def test_guard_exceeded(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--family", "ct", "--n", "9")
        assert code == 2
        assert "guard" in err

    def test_env_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("CONTRACTA_MAX_N", "3")
        code, _, err = run_cli(capsys, "enumerate", "--family", "ct", "--n", "4")
        assert code == 2
        assert "guard" in err


class TestAnalyze:
    def test_guard_before_transversals(self, capsys, monkeypatch):
        # The kernel has 3^11 transversals; the guard rejects n=33 first.
        def unreachable(*args):
            raise AssertionError("transversals were built")

        monkeypatch.setattr(cli, "transversals", unreachable)
        word = "[" + ",".join(str(v) for v in range(1, 12) for _ in range(3)) + "]"
        code, out, err = run_cli(capsys, "analyze", "--n", "33", "--map", word)
        assert code == 2
        assert out == ""
        assert "n=33 exceeds the guard for family 'oct'" in err

    def test_example_map(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--n", "6", "--map", "[1,2,2,3,4,3]")
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "ct"
        assert payload["height"] == 4
        assert payload["idempotent"] is False
        assert payload["kernel_text"] == "{1}|{2,3}|{4,6}|{5}"
        assert payload["max_convex_refinement"] == "{1}|{2}|{3}|{4,6}|{5}"
        assert payload["regular"] == {
            "oracle": False,
            "characterized": False,
            "characterized_orct": None,
            "oracle_family": "ct",
        }
        assert all(not t["convex"] for t in payload["transversals"])
        assert len(payload["transversals"]) == 4

    def test_non_contraction(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--n", "3", "--map", "[3,1,3]")
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "t"
        assert payload["contraction"] is False
        assert payload["max_convex_refinement"] is None
        assert payload["regular"]["characterized"] is None
        assert payload["regular"]["oracle"] is True  # everything is regular among all maps

    def test_malformed_word(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--n", "3", "--map", "1;2;3")
        assert code == 2
        assert "malformed" in err

    @pytest.mark.parametrize("n,word,regular", [(7, "[3,1,1,1,1,1,1]", True), (6, "[1,2,2,3,4,3]", False)])
    def test_builds_no_carrier(self, capsys, monkeypatch, n, word, regular):
        # The regularity oracle scans the family's words; no carrier or
        # product table is built.
        def unreachable(*args, **kwargs):
            raise AssertionError("carrier built")

        monkeypatch.setattr(FiniteSemigroup, "__init__", unreachable)
        code, out, _ = run_cli(capsys, "analyze", "--n", str(n), "--map", word)
        assert code == 0
        assert json.loads(out)["regular"]["oracle"] is regular

    def test_t8(self, capsys):
        # The t guard allows n = 8: 16,777,216 words, scanned in row blocks.
        code, out, _ = run_cli(capsys, "analyze", "--n", "8", "--map", "[3,1,1,1,1,1,1,1]")
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "t"
        assert payload["regular"]["oracle"] is True

    def test_env_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("CONTRACTA_MAX_N", "6")
        code, out, err = run_cli(capsys, "analyze", "--n", "7", "--map", "[3,1,1,1,1,1,1]")
        assert code == 2
        assert out == ""
        assert "guard" in err


class TestRelations:
    def test_oracle_and_char_agree_on_ct3(self, capsys):
        code, out_oracle, _ = run_cli(
            capsys, "relations", "--family", "ct", "--n", "3", "--relation", "l", "--method", "oracle"
        )
        assert code == 0
        code, out_char, _ = run_cli(
            capsys, "relations", "--family", "ct", "--n", "3", "--relation", "l", "--method", "char"
        )
        assert code == 0
        oracle = json.loads(out_oracle)
        char = json.loads(out_char)
        assert oracle["classes"] == char["classes"]
        assert oracle["method"] == "oracle" and char["method"] == "char"

    def test_starred_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys, "relations", "--family", "oct", "--n", "3", "--relation", "dstar"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["class_count"] == 3  # heights 1..3

    def test_char_j_refused(self, capsys):
        code, _, err = run_cli(
            capsys, "relations", "--family", "ct", "--n", "3", "--relation", "j", "--method", "char"
        )
        assert code == 2
        assert "no characterized" in err

    @pytest.mark.parametrize("family", ["t", "oct"])
    def test_char_outside_ct_refused(self, capsys, family):
        code, out, err = run_cli(
            capsys, "relations", "--family", family, "--n", "3", "--relation", "l", "--method", "char"
        )
        assert code == 2
        assert out == ""
        assert err == "error: characterized l is only available for family 'ct'; use --method oracle\n"

    def test_starred_char_on_t_refused(self, capsys):
        code, _, err = run_cli(
            capsys, "relations", "--family", "t", "--n", "3", "--relation", "lstar", "--method", "char"
        )
        assert code == 2
        assert "contraction" in err

    def test_starred_char_orct_carries_note(self, capsys):
        code, out, _ = run_cli(
            capsys, "relations", "--family", "orct", "--n", "3", "--relation", "lstar",
            "--method", "char",
        )
        assert code == 0
        assert "empirical" in json.loads(out)["note"]


class TestVerify:
    def test_orthodox_defaults_to_orct(self):
        # Orthodoxy is claimed for the order-compatible maps only; on ct it
        # fails from n = 3.
        reports = checks.run_check("orthodox", 5)
        assert [(r.family, r.verdict) for r in reports] == [("orct", "pass")]

    def test_green_l_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--check", "green-l", "--family", "ct", "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert [r["verdict"] for r in payload["reports"]] == ["pass"]

    def test_abundance_ct4_right_fails_with_witness(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--check", "abundance", "--family", "ct", "--n", "4")
        assert code == 1
        payload = json.loads(out)
        by_check = {r["check"]: r for r in payload["reports"]}
        assert by_check["abundance-left"]["verdict"] == "pass"
        right = by_check["abundance-right"]
        assert right["verdict"] == "fail"
        assert sorted(right["counterexample"]["maps"]) == [
            "[1,2,2,3]",
            "[2,3,3,4]",
            "[3,2,2,1]",
            "[4,3,3,2]",
        ]

    def test_multiple_checks(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--check", "regularity-ct,green-r", "--family", "ct", "--n", "3"
        )
        assert code == 0
        payload = json.loads(out)
        assert {r["check"] for r in payload["reports"]} == {"regularity-ct", "green-r"}

    def test_unknown_check(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--check", "nope", "--n", "3")
        assert code == 2
        assert "unknown check" in err

    @pytest.mark.parametrize("spelling", [",", ""])
    def test_empty_check_list(self, capsys, spelling):
        # A verification of nothing must not read as success.
        code, out, err = run_cli(capsys, "verify", "--check", spelling, "--n", "3")
        assert code == 2
        assert out == ""
        assert "no check id given" in err

    def test_help_lists_check_ids(self, capsys, monkeypatch):
        # A wide terminal keeps argparse from wrapping an id at its hyphen.
        monkeypatch.setenv("COLUMNS", "1000")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(check_id in out for check_id in checks.CHECK_IDS)
        assert "--list-checks" not in out

    def test_timing_is_per_report(self, capsys, monkeypatch):
        ticks = iter([0.0, 1.0, 3.0, 6.0, 10.0])
        monkeypatch.setattr(checks, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
        code, out, err = run_cli(
            capsys, "verify", "--check", "starred", "--family", "ct", "--n", "3", "--timing"
        )
        assert code == 0
        assert [r["elapsed_ms"] for r in json.loads(out)["reports"]] == [1000.0, 2000.0, 3000.0, 4000.0]
        assert err == "# starred: 10000.0 ms\n"

    def test_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--check", "abundance", "--family", "ct", "--n", "4")
        _, second, _ = run_cli(capsys, "verify", "--check", "abundance", "--family", "ct", "--n", "4")
        assert first == second

    def test_witness_replays_through_analyze(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--check", "abundance", "--family", "ct", "--n", "4")
        right = [r for r in json.loads(out)["reports"] if r["check"] == "abundance-right"][0]
        maps = right["counterexample"]["maps"]
        kernels = set()
        for word in maps:
            _, analyzed, _ = run_cli(capsys, "analyze", "--n", "4", "--map", word)
            payload = json.loads(analyzed)
            assert payload["idempotent"] is False  # the violation: no idempotent here
            kernels.add(payload["kernel_text"])
        assert kernels == {"{1}|{2,3}|{4}"}  # one shared kernel = one r-starred class


# (argv, exit code, SHA-256 of stdout).  The first block was recorded on the
# pairwise-predicate implementation that the per-element key scans replaced;
# the second on the implementation with a separate list-of-lists Rees carrier
# and per-product fallbacks, before the single product-table carrier.  The
# JSON must stay byte-identical.
GOLDEN_STDOUT = [
    (
        ("verify", "--check", "green-l,green-r,green-d,starred", "--family", "ct", "--n", "5"),
        0,
        "fb0e1209dcc8ab9dc526f340badcd0807f2232444f4db7920d4547efda598145",
    ),
] + [
    (("relations", "--method", "char", "--family", family, "--n", "4", "--relation", relation), 0, digest)
    for family, relation, digest in [
        ("ct", "l", "b2c3e34ffb14ae2020636519ad34f77d487204dc772e49495fad3c88866a044a"),
        ("ct", "r", "93169deaed63be32262bb81f7e08713f2334efe34835c78deffdc0f2cf15a5ed"),
        ("ct", "d", "e2c9d8b6608666a0c2f02c71ecfb5a04cae1fbb26e7b11bab41a43a3e7c6db6b"),
        ("ct", "h", "a3c9c09b0c6234f9bb3abe8ea135ca7f398a5f399aa33e4285f19bfe4ce71e69"),
        ("ct", "lstar", "ba51d843a1cd4cf402c3860c9b30dfea84beaae43c76f45883974ae6cd9edc8f"),
        ("ct", "rstar", "be446aed248a23829ca03e8131b98f5ede9f57299355b9e358bcba6246d83df4"),
        ("ct", "hstar", "7c39ce898113e7997521a0dd4f6a5b653f6d689308e47551124b9b8d0e2b8898"),
        ("ct", "dstar", "5d0c3a1740c3f808bcffd7819e83ee7923f191de7939325da481f11ba4973524"),
        ("orct", "rstar", "ab2e08b48bad737cb5b4c40d1bd13d07af49afbff694d2489c760f9c17a8a827"),
    ]
] + [
    (("rees", "--family", family, "--n", "5", "--p", str(p)), 0, digest)
    for family, p, digest in [
        ("orct", 2, "d20d4d9e3ee00194a148fff84400fa6b072209cee279da90030f62640741a1da"),
        ("orct", 3, "b747b7b3386e4c4be1b576bc570f4133cabc14f535417e341f5ff1522fd267c5"),
        ("orct", 4, "55ed64e8e9bee2e7df91957e13e2f76e3fc9755612895331f2b7bc36ced03bcf"),
        ("orct", 5, "905a1ba2ee2ba8f22f6ca7490a1836d394a42bc17faef2fae515f95dec24ef1b"),
        ("oct", 2, "c0a8e279f183d42f5d61477c78ff7aadf252fb4b2ed4a98a885f3e9d17f8f0d2"),
        ("oct", 3, "cf6a44d1001214fce0baec63a535cadff3980ad0828af472c7a9a01f86d964b3"),
        ("oct", 4, "ff3544250ed0145da069ef7200ef72536b3c168917849bf69763ff1576b97215"),
        ("oct", 5, "6cacf4b00ee4a9b89f8b8dd595df58ed4ad2ed59c06c24f652f2e56fa2855c38"),
    ]
] + [
    (
        ("verify", "--check", "regularity-ct,orthodox,idempotent-products", "--family", "ct", "--n", "5"),
        1,
        "975c72f9b6268045cda6eb9fb311cda0a7661d13b2163cfe41dfe6872fb2b31d",
    ),
    (
        ("verify", "--check", "regularity-orct,unipotence,orthodox,idempotent-products",
         "--family", "orct", "--n", "5"),
        1,
        "666b6f90380ca3e1db7bd8a5ceabdfa634b340458f1ede49e24fdb27512953f6",
    ),
    (
        # Fails on closure: the witness is the first escaping pair, row by row.
        ("verify", "--check", "orthodox", "--family", "ct", "--n", "6"),
        1,
        "3a92ca8c2942ce02f9d578420aa8cdc2b81c9cc3b40ca6b7f31de58244036a7c",
    ),
    (
        # The witness is the first escaping pair row by row, which the
        # ClosureError raised while building Reg(ct7) names.
        ("verify", "--check", "orthodox", "--family", "ct", "--n", "7"),
        1,
        "0df146510bcf3fa4f6ddccf3c92245d49936fd008ccafb110843ff205e3d435e",
    ),
    (
        ("analyze", "--n", "6", "--map", "[2,1,1,1,1,1]"),
        0,
        "81eff5eed7f8440ff0d7be60010c22fa76c247182a2c84723e5fbe267bc025ae",
    ),
] + [
    # Recorded while analyze still built its family as a carrier.
    (("analyze", "--n", "7", "--map", word), 0, digest)
    for word, digest in [
        ("[3,1,1,1,1,1,1]", "5f38384d580c3412cce4fb0fdad8e6a40c31b21144f65129af55b9c1e04276c5"),
        ("[1,2,2,3,4,3,4]", "d171ec5b190dce778837558108645c3b5c81e66d31490c22ffab2e99605b3456"),
        ("[2,1,1,1,1,1,1]", "5c068d4e0dca4884abde976fde50ba103c74b85aafc5ca1cb0ac1b3358905501"),
    ]
] + [
    # Recorded while the refinement scans still read the Bell(n) partition
    # table: the admissible reading of [1,2,2,3,3,2,2] is the meet of its
    # maximal refinements, and every partition of [7] refines the one-block
    # kernel of [1,1,1,1,1,1,1].
    (("analyze", "--n", "7", "--map", word), 0, digest)
    for word, digest in [
        ("[1,2,2,3,3,2,2]", "e24f7e29a5d49d7e08a3732ebb7481ee1fcddba477a884434924ce53ce40f47f"),
        ("[1,1,1,1,1,1,1]", "502f630f177c2d48cd08a3fb4d75aad28e550fc0cc15799af8b0617b177a7d2d"),
    ]
] + [
    (
        ("enumerate", "--family", "t", "--n", "4"),
        0,
        "e3a22c82574e5cf1cb2b72425a1bb23a77540dc413d05284a12d5d8edb585bb1",
    ),
    (
        # Per-element idempotent and regular flags, recorded while both were
        # still read from the product table.
        ("enumerate", "--family", "ct", "--n", "6", "--output", "csv"),
        0,
        "1c3d679420d81e5f7dbaeb95766216aef534be08b200dbcee24f718bcc3fc3f2",
    ),
    (
        ("relations", "--family", "t", "--n", "3", "--relation", "j"),
        0,
        "1d6d7a17896d0c5a2093621bc556648f09b8c8755faa9047722a9b6afa39cd1e",
    ),
] + [
    (("relations", "--method", "oracle", "--family", "ct", "--n", "4", "--relation", relation), 0, digest)
    for relation, digest in [
        ("l", "c23203751fe17de7ae3d9f2b8102f48ebc12f092c69188fee4de16cd9d1fe231"),
        ("r", "e737427063ceeb6c4e37dd8149db5439e790e60f616eba1aa574a404526417b6"),
        ("h", "97f5618ec222e222bc3f5b05606097e1c54c139f73a21fa1082a20fbdbb951a0"),
        ("d", "aa4968f49f3fbbcd3fcab5ff87ebef722565a3b82557cd9111104301fd3c3466"),
        ("j", "8062905576405449ffd6ddb42fa936249064ebec6b3d328340f91ba6c60acc55"),
        ("lstar", "ebf6dc2cdad6414d3d0cf47cacad03949e5ac920c6ced10574dc037f374a57b7"),
        ("rstar", "1463ba727146d2a1ed33247c1461b4772cb040e3715e2b3319f537c4936e6ce4"),
        ("hstar", "185a89b47ee6a0a7d245bc4ffd848fd0ea252c019631d5315b18792a620b6ed0"),
        ("dstar", "fe512471f45c8805dea4ae589e74999a755364d63904954a0e87a041d2e04e7e"),
    ]
] + [
    # l, r and j as the benchmark pins them; h and d recorded while l, r and
    # j still came from principal-ideal keys.
    (("relations", "--method", "oracle", "--family", "ct", "--n", "7", "--relation", relation), 0, digest)
    for relation, digest in [
        ("l", "60e203d08a1d895f59873e6d6a6c216f6cf08c099ccfda8fee9b12b5bebc243d"),
        ("r", "d950abf8292e718e9fc23dcc17c4e825ef5d7a853a20cdf2776e9c713753cbcc"),
        ("j", "0553a69e6e08934368b69e6b1d21b43d71efa7782e588038c7a2b30f243645f9"),
        ("h", "87ba2c55e14b03a9f07ebe9c20f3c16a432b9956fbb9092568ff2ac9d9ef9e32"),
        ("d", "844d0fbc8275225bc3a00d7ae5ec7745f1d0d2bd16dc37c06956115a887d622c"),
    ]
] + [
    # The starred kinds and abundance as recorded while they read every
    # element's row of S^1 products off the product table; lstar and rstar
    # as the benchmark pins them.
    (("relations", "--method", "oracle", "--family", "ct", "--n", "7", "--relation", relation), 0, digest)
    for relation, digest in [
        ("lstar", "6ed48052f4b003fe02d1c8614ed166b4b9b82a73c6fa01e4880a689d2f455f58"),
        ("rstar", "ce019d478c21e407c465e8b346550505b80ac00466c53acf09c430c539437e0b"),
        ("hstar", "83eeff800224976aecac7d48c4d5b0f82bf26c1229d5752f1a8e907c25f4d6a4"),
        ("dstar", "f8eda408d1c4c7cfd90da42cb541aea646f3b3477da66ea3ad747206b39add53"),
    ]
] + [
    (("verify", "--check", "starred,abundance", "--family", family, "--n", "6"), 1, digest)
    for family, digest in [
        ("orct", "719b439e77c40cc0c9a10da37ee0f6eaffac93d8a8c7fc4443a1c63cb645e6e0"),
        ("oct", "636b73428b185ad892e08ef081c8445eeffa907501497d4260823c0385ea7b8c"),
    ]
] + [
    # The CSV projection of every subcommand, and the counterexample payload.
    (("analyze", "--n", "6", "--map", "[1,2,2,3,4,3]", "--output", "csv"), 0,
     "72126c6abd95993b611a2bdba350e9c2e63f060e8151d310db4abcdccffc5e53"),
    (("relations", "--family", "ct", "--n", "4", "--relation", "l", "--output", "csv"), 0,
     "9b72b12a520e9fcf4206b8dc3409c1cd462d88abd15417ccea3bac3e3dc2e2a0"),
    (("relations", "--family", "ct", "--n", "4", "--relation", "d", "--method", "char",
      "--output", "csv"), 0,
     "045511c9d84bd89f7c3e2a820aa91a88767de4e53356c093c1bf406d4385c28b"),
    (("verify", "--check", "abundance", "--family", "ct", "--n", "4", "--output", "csv"), 1,
     "6649dcdb34aad5c9a907e59e83f304ced050bc7c6fb04438922bcc7bd8e93220"),
    (("rees", "--family", "orct", "--n", "5", "--p", "3", "--output", "csv"), 0,
     "6d168717fc841a0d71f42546883f2f9aba35d4052e8a924da8f5726221adee9c"),
    (("counterexample", "--check", "abundance", "--family", "ct", "--n", "4"), 1,
     "37edf7becedf4c5c1077b14382df64a0bbffb1271de203e15cf83867d1c51c99"),
    (("counterexample", "--check", "abundance", "--family", "ct", "--n", "4",
      "--output", "csv"), 1,
     "45fc7aeb7b5dd5c4fafce53066cb6933a4bf6bccb94f6682671337631a97bac9"),
    (("counterexample", "--check", "regularity-ct", "--family", "ct", "--n", "3",
      "--output", "csv"), 0,
     "3d433a3b90fcabe5930d19d514f99fa02cb8cd3e3c0cd92d023dae5630295f87"),
    # The default family, orct, shows in the payload.
    (("counterexample", "--check", "orthodox", "--n", "4"), 0,
     "a0102cf14785de0787db987310b774acca5ed0d0aa23bcb71af5721576637006"),
]


class TestGoldenOutput:
    @pytest.mark.parametrize(
        "argv,exit_code,digest", GOLDEN_STDOUT, ids=[" ".join(a) for a, _, _ in GOLDEN_STDOUT]
    )
    def test_stdout_digest(self, capsys, no_semigroup_table, argv, exit_code, digest):
        # Every command reads its products from the words: a semigroup's
        # full product table is never asked for.
        code, out, _ = run_cli(capsys, *argv)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestRees:
    def test_orct_4_2(self, capsys):
        code, out, _ = run_cli(capsys, "rees", "--family", "orct", "--n", "4", "--p", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["carrier_size"] == 19
        assert payload["carrier"][0] == "0"
        assert payload["inverse_verification"]["inverse"] is True
        assert payload["inverse_verification"]["consistent"] is True

    def test_p_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "rees", "--family", "orct", "--n", "4", "--p", "5")
        assert code == 2
        assert "out of range" in err


class TestCounterexample:
    def test_none_found(self, capsys):
        code, out, _ = run_cli(
            capsys, "counterexample", "--check", "regularity-ct", "--family", "ct", "--n", "4"
        )
        assert code == 0
        assert json.loads(out)["witness"] is None

    def test_witness_found(self, capsys):
        code, out, _ = run_cli(
            capsys, "counterexample", "--check", "abundance", "--family", "ct", "--n", "4"
        )
        assert code == 1
        witness = json.loads(out)["witness"]
        assert "[1,2,2,3]" in witness["maps"]

    def test_csv_projection(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "counterexample", "--check", "regularity-ct", "--family", "ct", "--n", "3",
            "--output", "csv",
        )
        assert code == 0
        assert "none" in out


def _child_env():
    # The child imports the same contracta as this process, also when pytest
    # put src/ on sys.path without setting PYTHONPATH.
    src = os.path.dirname(os.path.dirname(contracta.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "contracta.cli", "enumerate", "--family", "oct", "--n", "2"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["count"] == 3

    def test_idempotent_products_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma (about 1.7 MB of RSS) on first use.
        code = (
            "import contextlib, io, sys\n"
            "from contracta.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['verify', '--check', 'idempotent-products', '--family', 'ct', '--n', '4'])\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_import_starts_no_blas_threads(self):
        # This process has imported contracta, so its environment already
        # holds the variable; the child must start without it.
        code = "import os, contracta\nprint(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])\n"
        env = _child_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "1"]
        env["OPENBLAS_NUM_THREADS"] = "2"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[1] == "2"

    def test_threads_flag_rejected(self, capsys):
        # The flag never changed execution and was removed.
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--family", "oct", "--n", "2", "--threads", "4"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
