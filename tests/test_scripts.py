"""The certificate script: every certificate replayed, failures stop it."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import orderdim

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_certificates.py"
ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(orderdim.__file__)))

# Hands the script's writer one certificate whose replay fails.
FAILING = r"""
import runpy, sys
from pathlib import Path
script = runpy.run_path(sys.argv[1])

class Failing:
    def replay(self):
        return False

script["write_certificates"]([("broken", Failing())], Path(sys.argv[2]))
print("written")
"""


def run_python(args):
    return subprocess.run(
        [sys.executable, "-O", *args],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=120,
    )


def test_writes_every_certificate_under_optimize(tmp_path):
    out = run_python([str(SCRIPT), "--out", str(tmp_path)])
    assert out.returncode == 0, out.stderr
    names = sorted(p.name for p in tmp_path.iterdir())
    assert len(names) == 7
    cert = json.loads((tmp_path / "two_homogeneity_n2.json").read_text())
    assert cert["kind"] == "two-homogeneity-extension"


def test_failed_replay_exits_nonzero_under_optimize(tmp_path):
    out = run_python(["-c", FAILING, str(SCRIPT), str(tmp_path)])
    assert out.returncode == 1
    assert "broken: certificate failed its replay" in out.stderr
    assert "written" not in out.stdout
    assert not list(tmp_path.iterdir())
