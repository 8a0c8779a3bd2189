"""The scripts: certificates replayed (failures stop them), the dimension
survey, the two-class check and the code-line counter."""

from __future__ import annotations

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import orderdim

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SCRIPT = SCRIPTS / "make_certificates.py"
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


# Runs a script as __main__ with numpy made unimportable.
WITHOUT_NUMPY = r"""
import runpy, sys
sys.modules["numpy"] = None
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""

# scripts/dimension_survey.py --samples 20 --max-size 7.  Pinned: the
# random posets must come from the same draws in the same order, however
# the script represents them.
SURVEY_20_7 = """\
  m  samples dim counts                max  bound
  2       20 1:8 2:12                    2      -
  3       20 1:3 2:17                    2      -
  4       20 1:2 2:18                    2      2
  5       20 2:20                        2      2
  6       20 1:1 2:19                    2      3
  7       20 2:20                        2      3

crowns:
  crown(2): 4 elements, dimension 2
  crown(3): 6 elements, dimension 3
  crown(4): 8 elements, dimension 4
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


def test_dimension_survey_runs_without_numpy():
    survey = SCRIPTS / "dimension_survey.py"
    out = run_python(
        ["-c", WITHOUT_NUMPY, str(survey), "--samples", "20", "--max-size", "7"]
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == SURVEY_20_7


def test_two_class_decision_matches_the_colouring_under_optimize():
    out = run_python([str(SCRIPTS / "check_dim_two.py"), "--max-size", "5"])
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1].split() == ["5", "357", "0", "0"]


def test_dimension_survey_profile_under_optimize():
    survey = SCRIPTS / "dimension_survey.py"
    out = run_python([str(survey), "--samples", "20", "--max-size", "7", "--profile"])
    assert out.returncode == 0, out.stderr
    head, sep, table = out.stdout.partition("\nmedian per dimension() call:\n")
    # The same draws as without --profile, so the survey table is unchanged.
    assert sep and head == SURVEY_20_7
    lines = table.splitlines()
    assert lines[0].split() == [
        "m", "us", "build_us", "colour_us", "witness_us", "check_us", "colouring", "witness"
    ]
    assert [int(line.split()[0]) for line in lines[1:]] == list(range(2, 8))
    for line in lines[1:]:
        us, *phase_us, colouring, witness = map(float, line.split()[1:])
        assert us > 0 and colouring >= 0 and witness >= 1
        assert len(phase_us) == 4 and all(t >= 0 for t in phase_us)


# Seven code lines: the import, the def, both lines of the bracketed
# sum, both lines of the returned string (no docstring) and the class.
SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves a code line


def f(x):
    """One-line docstring."""
    # a comment line
    y = (x +
         1)

    return """not a
docstring"""


class C:
    """Class docstring."""
'''


def test_code_line_count_of_a_snippet():
    count = runpy.run_path(str(SCRIPTS / "code_lines.py"))["code_lines"]
    assert count(SNIPPET) == 7
    assert count("") == 0


def test_code_line_script_counts_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    out = run_python([str(SCRIPTS / "code_lines.py"), str(tmp_path)])
    assert out.returncode == 0, out.stderr
    assert [line.split() for line in out.stdout.splitlines()] == [
        ["a.py", "7"],
        ["b.py", "1"],
        ["total", "8"],
    ]
