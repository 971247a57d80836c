"""Each narrative demo runs to completion against the package source and
prints the bytes pinned for it: the SHA-256 of its stdout in demo_outputs.json.

The demos print their floats rounded to at most four decimals, so their
output needs no normalization.  After a deliberate change of a demo's output,
re-record the table with

    python tests/test_demos.py

and name in CHANGES.md the demos whose hash changed, and why.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TABLE = Path(__file__).with_name("demo_outputs.json")


def run(script):
    """The completed process of one demo, run against ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(script)], env=env, cwd=ROOT,
                          capture_output=True, timeout=300)


def digest(stdout):
    return hashlib.sha256(stdout).hexdigest()


def load_table():
    return json.loads(TABLE.read_text())


def test_demos_found():
    assert DEMOS


def test_table_pins_every_demo():
    assert sorted(load_table()) == [p.name for p in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    proc = run(script)
    assert proc.returncode == 0, proc.stderr.decode()
    assert digest(proc.stdout) == load_table()[script.name], proc.stdout.decode()


if __name__ == "__main__":
    table = {}
    for script in DEMOS:
        proc = run(script)
        if proc.returncode:
            sys.exit("%s exited %d:\n%s" % (script.name, proc.returncode, proc.stderr.decode()))
        table[script.name] = digest(proc.stdout)
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    print("recorded %d demos in %s" % (len(table), TABLE), file=sys.stderr)
