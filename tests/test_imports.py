"""What each CLI process loads, how it ends, and the package namespace
that loads lazily.

The module pins run real interpreters under `-X importtime`, the same
listing the README points users to, and read the orderdim modules off
its report.  The process-entry tests run `python -m orderdim.cli` as a
pipeline stage does and compare it with main() in-process.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orderdim
from orderdim.cli import main

ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(orderdim.__file__)))

LAZY = {"geometry", "homogeneity", "ramsey", "flow"}

# Every name the package exports, with the submodule that defines it.
EXPORTED = {
    "OrderError": "errors",
    **dict.fromkeys(
        (
            "FinitePoset",
            "LinearOrder",
            "OrderedStructure",
            "RealizerTuple",
            "antichain",
            "chain",
            "crown",
            "grid",
            "is_realizer",
            "szpilrajn_extend",
            "validate_poset",
        ),
        "poset",
    ),
    **dict.fromkeys(
        ("DimensionResult", "all_linear_extensions", "dimension"), "dimension"
    ),
    **dict.fromkeys(
        ("PointCloud", "Region", "back_and_forth_iso", "induced_structure", "sample_dn"),
        "geometry",
    ),
    **dict.fromkeys(
        (
            "AxiomReport",
            "Certificate",
            "CertificateKind",
            "ap_failure_certificate",
            "check_dpo_fragment",
            "nonhom_witness",
            "qn_lex_nonhom_witness",
            "two_homogeneity_certificate",
            "two_homogeneity_extend",
        ),
        "homogeneity",
    ),
    **dict.fromkeys(
        (
            "enumerate_copies",
            "product_ramsey_number",
            "ramsey_witness_check",
            "rigid_embed",
        ),
        "ramsey",
    ),
    **dict.fromkeys(
        (
            "RealizerSet",
            "classify_realizer",
            "cloud_automorphisms",
            "enumerate_realizers",
            "extend_realizer_closure",
            "logic_action",
            "semidirect_decomposition",
            "symmetric_sample",
        ),
        "flow",
    ),
}

CROWN = json.dumps(orderdim.crown(3).to_json())
GRID = json.dumps(orderdim.grid(2, 2).to_json())
SAMPLE = json.dumps(orderdim.geometry.sample_dn(2, 4, seed=1).to_json())


def loaded(
    args: list[str], stdin: str = "", prefix: str = "orderdim."
) -> tuple[set[str], str]:
    """The modules a fresh interpreter imported whose names start with
    prefix, without it (the orderdim submodules by default, every module
    with prefix=""), and its stdout."""
    out = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        input=stdin,
        env=ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    names = set()
    for line in out.stderr.splitlines():
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[1].strip()
            if name.startswith(prefix):
                names.add(name.removeprefix(prefix))
    return names, out.stdout


def cli_output(capsys, monkeypatch, argv: list[str], stdin: str = "") -> str:
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(argv) == 0
    return capsys.readouterr().out


# One command line per family that the cli-pipelines benchmark runs, with
# its stdin; SAMPLE_FILE stands for a file that holds SAMPLE.
FAMILIES = {
    "gen-crown": (["gen", "crown", "--n", "3"], ""),
    "gen-grid": (["gen", "grid", "--m", "2", "--n", "2"], ""),
    "gen-sample": (["gen", "sample", "--n", "2", "--count", "4", "--seed", "1"], ""),
    "dim": (["dim"], CROWN),
    "export-dot": (["export", "dot"], CROWN),
    "check-dpo": (["check", "dpo"], SAMPLE),
    "certify": (["certify", "ap", "--n", "2"], ""),
    "certify-nonhom": (["certify", "nonhom", "--n", "2"], ""),
    "certify-qnlex": (["certify", "qnlex", "--n", "3"], ""),
    "certify-twohom": (["certify", "twohom", "--n", "2"], ""),
    "certify-ap-chase": (["certify", "ap", "--n", "3"], ""),
    "ramsey-number": (
        ["ramsey", "number", "--k", "2", "--l", "1", "--m", "2", "--n", "1", "--rmax", "5"],
        "",
    ),
    "flow-realizers": (["flow", "realizers"], GRID),
    "iso-bnf": (["iso", "bnf", "--a", "-", "--b", "SAMPLE_FILE", "--steps", "10"], SAMPLE),
}


# The orderdim submodules that each family's process loads, exactly.
LOADS = {
    "gen-crown": {"errors", "poset"},
    "export-dot": {"errors", "poset"},
    "gen-sample": {"errors", "poset", "budget", "geometry"},
    "iso-bnf": {"errors", "poset", "budget", "geometry"},
    "dim": {"errors", "poset", "budget", "dimension"},
    "gen-grid": {"errors", "poset"},
    "ramsey-number": {"errors", "poset", "budget", "ramsey"},
    "flow-realizers": {"errors", "poset", "budget", "flow"},
    "check-dpo": {"errors", "poset", "budget", "geometry", "homogeneity"},
    # Only certify ap's enumeration, at n = 2, calls dimension().
    "certify": {"errors", "poset", "budget", "dimension", "geometry", "homogeneity"},
    "certify-nonhom": {"errors", "poset", "budget", "geometry", "homogeneity"},
    "certify-qnlex": {"errors", "poset", "budget", "geometry", "homogeneity"},
    "certify-twohom": {"errors", "poset", "budget", "geometry", "homogeneity"},
    "certify-ap-chase": {"errors", "poset", "budget", "geometry", "homogeneity"},
}


def family_command(family: str, tmp_path: Path) -> tuple[list[str], str]:
    """FAMILIES[family] with SAMPLE_FILE written under tmp_path."""
    argv, stdin = FAMILIES[family]
    sample = tmp_path / "sample.json"
    sample.write_text(SAMPLE, encoding="utf-8")
    return [str(sample) if a == "SAMPLE_FILE" else a for a in argv], stdin


class TestWhatLoads:
    def test_package_import_loads_no_submodule(self):
        names, _ = loaded(["-c", "import orderdim"])
        assert names == set()
        names, _ = loaded(["-c", "import orderdim.cli"])
        assert names == {"cli", "errors"}

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_each_family_loads_its_modules_alone(self, family, tmp_path):
        argv, stdin = family_command(family, tmp_path)
        names, _ = loaded(["-m", "orderdim.cli", *argv], stdin)
        assert names == LOADS[family]

    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (["gen", "crown", "--n", "3"], ""),
            (["gen", "grid", "--m", "2", "--n", "2"], ""),
            (["export", "dot"], CROWN),
            (["dim"], CROWN),
        ],
        ids=["gen-crown", "gen-grid", "export-dot", "dim"],
    )
    def test_poset_commands_load_no_lazy_module(self, capsys, monkeypatch, argv, stdin):
        names, out = loaded(["-m", "orderdim.cli", *argv], stdin)
        assert not names & LAZY
        assert out == cli_output(capsys, monkeypatch, argv, stdin)

    def test_ramsey_number_loads_ramsey_without_geometry(self, capsys, monkeypatch):
        argv, _ = FAMILIES["ramsey-number"]
        names, out = loaded(["-m", "orderdim.cli", *argv])
        assert names & LAZY == {"ramsey"}
        assert out == cli_output(capsys, monkeypatch, argv)


class TestStartUp:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_no_command_loads_dataclasses_or_inspect(self, family, tmp_path):
        argv, stdin = family_command(family, tmp_path)
        names, _ = loaded(["-m", "orderdim.cli", *argv], stdin, prefix="")
        assert "orderdim.poset" in names
        assert not names & {"dataclasses", "inspect"}

    def test_package_import_loads_no_dataclasses(self):
        names, _ = loaded(["-c", "import orderdim"], prefix="")
        assert not names & {"dataclasses", "inspect"}

    def test_flow_realizers_loads_flow_alone(self, capsys, monkeypatch):
        argv, stdin = FAMILIES["flow-realizers"]
        names, out = loaded(["-m", "orderdim.cli", *argv], stdin)
        assert names & LAZY == {"flow"}
        assert out == cli_output(capsys, monkeypatch, argv, stdin)


class TestNamespace:
    @pytest.mark.parametrize("name", sorted(EXPORTED))
    def test_exported_name_is_the_submodule_object(self, name):
        module = importlib.import_module(f"orderdim.{EXPORTED[name]}")
        assert getattr(orderdim, name) is getattr(module, name)

    @pytest.mark.parametrize(
        "first",
        [
            "from orderdim.homogeneity import ap_failure_certificate as ap; ap(2)",
            "from orderdim.dimension import _RealizerSearch",
            "import orderdim; orderdim.dimension",
        ],
        ids=["homogeneity", "from-import", "package-attribute"],
    )
    def test_dimension_stays_the_function(self, first):
        # In a fresh process, so that `first` is what imports the dimension
        # submodule and binds it on the package.
        loaded(
            [
                "-c",
                "import sys, types\n"
                f"{first}\n"
                "import orderdim\n"
                "module = sys.modules['orderdim.dimension']\n"
                "assert isinstance(module, types.ModuleType)\n"
                "assert module.__name__ == 'orderdim.dimension'\n"
                "assert orderdim.dimension is module.dimension",
            ]
        )

    def test_function_set_on_dimension_is_kept(self, monkeypatch):
        # bench/tracer.py rebinds the package attribute to its wrapper
        def wrapper(*args, **kwargs):
            return None

        monkeypatch.setattr(orderdim, "dimension", wrapper)
        assert orderdim.dimension is wrapper

    def test_first_lookup_binds_the_name(self):
        loaded(
            [
                "-c",
                "import sys, orderdim\n"
                "assert 'crown' not in vars(orderdim)\n"
                "crown = orderdim.crown\n"
                "assert vars(orderdim)['crown'] is crown\n"
                "assert crown is sys.modules['orderdim.poset'].crown",
            ]
        )

    def test_lazy_submodule_attribute_loads_that_module(self):
        # -X importtime does not list imports made through importlib, so
        # the process reports its own sys.modules.
        _, out = loaded(
            [
                "-c",
                "import sys, orderdim; orderdim.ramsey.all_subgrids(2, 2, 1)\n"
                "print(*sorted(m for m in sys.modules if m.startswith('orderdim.')))",
            ]
        )
        assert {m.removeprefix("orderdim.") for m in out.split()} & LAZY == {"ramsey"}

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            orderdim.no_such_name  # noqa: B018

    def test_star_import_and_dir_give_every_exported_name(self):
        scope: dict = {}
        exec("from orderdim import *", scope)
        assert set(EXPORTED) <= set(scope)
        assert set(EXPORTED) == set(orderdim.__all__)
        assert set(EXPORTED) <= set(dir(orderdim))


def process(argv: list[str], stdin: str = "") -> subprocess.CompletedProcess:
    """`python -m orderdim.cli` with argv, the way a shell pipeline runs it."""
    return subprocess.run(
        [sys.executable, "-m", "orderdim.cli", *argv],
        input=stdin,
        env=ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestProcessEntry:
    """A CLI process ends through cli.run(), with main()'s bytes and code."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_process_output_is_mains(self, family, tmp_path, capsys, monkeypatch):
        argv, stdin = family_command(family, tmp_path)
        out = process(argv, stdin)
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout == cli_output(capsys, monkeypatch, argv, stdin)

    def test_bad_input_exits_one_with_one_json_line(self):
        out = process(["dim"], "{bad")
        assert (out.returncode, out.stderr) == (1, "")
        assert out.stdout.count("\n") == 1
        assert json.loads(out.stdout)["error"] == "JSONDecodeError"

    def test_out_file_is_complete(self, tmp_path, capsys, monkeypatch):
        argv = ["gen", "grid", "--m", "6", "--n", "2"]
        target = tmp_path / "grid.json"
        out = process([*argv, "--out", str(target)])
        assert (out.returncode, out.stdout, out.stderr) == (0, "", "")
        assert target.read_text(encoding="utf-8") == cli_output(capsys, monkeypatch, argv)

    def test_console_script_is_run(self):
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        scripts = pyproject.read_text(encoding="utf-8").split("[project.scripts]\n")[1]
        assert scripts.split("\n[")[0].split() == ["orderdim", "=", '"orderdim.cli:run"']
