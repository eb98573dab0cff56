"""Bit identity: scripts/fingerprint.py's digest of the seeded outputs.

A change that moves outputs on purpose updates DIGEST and says which
parts moved; any other change must leave it as it is.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fingerprint.py"
DIGEST = "71b96423c4b8347658dce8790ea2bfd04c99a569b79f003285889ff33af8dd01"


def test_seeded_outputs_match_the_fingerprint(capsys):
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    assert fingerprint.main() == 0
    assert capsys.readouterr().out.splitlines()[-1] == DIGEST
