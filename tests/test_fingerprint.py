"""Bit identity: scripts/fingerprint.py's digests of the seeded outputs.

A change that moves outputs on purpose updates PARTS and DIGEST and says
which parts moved; any other change must leave them as they are.  Each
part's digest is pinned, so a failure names the parts that moved.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fingerprint.py"
PARTS = {
    "sweeps": "bfa14d0e6e1130ad269b7f94043d7c62340d66b5de7935c550e70079913193c5",
    "carlet": "588e0f548fa484d9a524efe5be403ebb4d0b16b4b7937e46a8f7114a2c43dd48",
    "samples": "cd2fe006dd93c504874c050e68b9f6881a5add542dae824fb7e467e1dd3a750c",
    "pair_decisions":
        "8cb19da2f229d0fc7fea900720abf18c2bcd04144d6123f5d676e40c30e79ccb",
    "polynomials":
        "28f44be60cb4e56314bfc7b1d9efeb4a89517accd5865bdf2d46aa00c379cc5d",
}
DIGEST = "d260eb8af8ecce863dae2ea692874a76afed02660c96e00f43f2a13ee2a6277e"


def test_seeded_outputs_match_the_fingerprint(capsys):
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    assert fingerprint.main() == 0
    *parts, total = capsys.readouterr().out.splitlines()
    assert dict(line.split() for line in parts) == PARTS
    assert total == DIGEST
