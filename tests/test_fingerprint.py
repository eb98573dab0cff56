"""Bit identity: scripts/fingerprint.py's digest of the seeded outputs.

A change that moves outputs on purpose updates DIGEST and says which
parts moved; any other change must leave it as it is.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fingerprint.py"
DIGEST = "ad30e27242cbf29139bcf3bd20c1a55099936702edc4f89c9492ed72ebeddb49"


def test_seeded_outputs_match_the_fingerprint(capsys):
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    assert fingerprint.main() == 0
    assert capsys.readouterr().out.splitlines()[-1] == DIGEST
