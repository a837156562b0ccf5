"""The demo tours run end to end and print what they printed when recorded."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import contracta

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

# SHA-256 of each tour's stdout.
DEMO_STDOUT = {
    "tour_abundance.py": "0ad759da6b384595a68ab39a9baf9a49996cee686739943df4db60e488ff1652",
    "tour_green_relations.py": "415d6f79f0eeb157ec2837be0601527f980ddcda50f990d46ca4162a6d411142",
    "tour_maps_and_kernels.py": "c541050ff1bed43704a1bcebe75a99d9894c83732b055932b3197e34f97e4f41",
    "tour_rees_quotients.py": "39089a74fe6ec8d459e386ad949cd5e82afa2f368b06ad6ef67d80587c1c8436",
    "tour_regularity.py": "d9677cb3c1f32fb2aceeb16e3c71e95860733a91d156c368f6a9810db2b08db3",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_STDOUT)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT))
def test_demo_stdout(name):
    src = os.path.dirname(os.path.dirname(contracta.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT[name]
