"""Every report that does not pass, on one-line mutants of the shipped data,
held fixed.

``tests/golden/suite_all.json`` holds only passes and findings, so it cannot
see a change in the details of a failing report.  Here each mutant edits one
line of one shipped file in a copy of the data directory (read through
``HOPFFORGE_DATA_DIR``), runs the ``suite all`` entries that reach its failing
reports, and compares every report that is not a pass, with ``wall_time``
removed, against ``tests/golden/failing_reports.json``.  A change that alters
these reports on purpose regenerates that file and lists each changed report:

    PYTHONPATH=src python tests/test_failing_reports.py > tests/golden/failing_reports.json
"""

import json
import os
import shutil
import sys
import tempfile
from argparse import Namespace
from pathlib import Path

import pytest

from hopfforge import cli, presentation

GOLDEN = Path(__file__).resolve().parent / "golden" / "failing_reports.json"
DATA = Path(presentation.__file__).parent / "data"
ARGS = Namespace(h_order=6, word_cutoff=10, tensor_degree=4, seed=0)

# file -> (line, mutated line, the registry entries run, the checks that fail)
MUTANTS = {
    "ptsa_q": (
        "S = exp(h*T/2) (x) S + S (x) exp(-h*T/2)",
        "S = exp(h*T/2) (x) S - S (x) exp(-h*T/2)",
        [("hopf", "ptsa_q"), ("duality", True), ("double",), ("rmatrix", "all")],
        {"hopf-axioms", "duality", "double-reconstruction",
         "rmatrix-intertwining[canonical]", "rmatrix-coproduct-laws[canonical]",
         "universal-identity"}),
    "sd_reference": (
        "[S,tau] = h*S - (2*h/sinh(h))*xi*cosh(h*T/2)",
        "[S,tau] = 2*h*S - (2*h/sinh(h))*xi*cosh(h*T/2)",
        [("double",), ("rmatrix", "all")],
        {"double-reconstruction", "rmatrix-intertwining[canonical]", "universal-identity"}),
    "sd_line": (
        "T = -T", "T = T",
        [("hopf", "sd_line"), ("family",)],
        {"hopf-axioms", "family-instantiation", "limit-h0"}),
    "h1_point": (
        "tau = tau (x) 1 + 1 (x) tau", "tau = -tau (x) 1 + 1 (x) tau",
        [("hopf", "h1_point"), ("family",)],
        {"hopf-axioms", "limit-h1"}),
    "variety_3d": (
        "[S,tau] = mu*h*S - mu*(2*h*(1-h)/sinh(h))*xi*cosh(h*theta*T/2)",
        "[S,tau] = 3*mu*h*S - mu*(2*h*(1-h)/sinh(h))*xi*cosh(h*theta*T/2)",
        [("confluence", "variety_3d"), ("family",), ("bialgebra", "variety_3d")],
        {"confluence", "deforming-field", "family-instantiation", "lie-jacobi",
         "newquant-consistency"}),
    "brst_q_alpha2": (
        "xi = -xi", "xi = xi",
        [("duality", True), ("double",)],
        {"duality", "double-reconstruction"}),
    "d0_variety": (
        "{S,S} = 2*mu*T", "{S,S} = 3*mu*T",
        [("family",)],
        {"newquant-consistency"}),
}


def mutated_copy(data: Path, name: str) -> None:
    """Copy the shipped data to ``data`` with MUTANTS[name]'s line replaced."""
    old, new = MUTANTS[name][:2]
    shutil.copytree(DATA, data)
    path = data / f"{name}.hopf"
    lines = path.read_text().splitlines(keepends=True)
    at = [i for i, line in enumerate(lines) if line.rstrip("\n") == old]
    assert len(at) == 1, (name, old)
    lines[at[0]] = new + "\n"
    path.write_text("".join(lines))


def non_passing(name: str) -> list:
    """The reports of MUTANTS[name]'s entries that do not pass, as dicts
    without wall_time; the data directory must already be mutated."""
    out = []
    for entry in MUTANTS[name][2]:
        assert entry in cli.REGISTRY, entry
        for r in cli.run_entry(ARGS, entry):
            if r.status != "pass":
                doc = r.as_dict()
                doc.pop("wall_time")
                out.append(doc)
    return out


@pytest.mark.parametrize("name", list(MUTANTS))
def test_failing_reports_match_the_golden_file(tmp_path, monkeypatch, name):
    mutated_copy(tmp_path / "data", name)
    monkeypatch.setenv("HOPFFORGE_DATA_DIR", str(tmp_path / "data"))
    got = non_passing(name)
    assert {r["check"] for r in got if r["status"] == "fail"} == MUTANTS[name][3]
    assert got == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    golden = {}
    for name in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            mutated_copy(Path(tmp) / "data", name)
            os.environ["HOPFFORGE_DATA_DIR"] = str(Path(tmp) / "data")
            golden[name] = non_passing(name)
    sys.stdout.write(json.dumps(golden, indent=2) + "\n")
