"""The report streams of five ``hopfforge --format json`` commands, and the
presentation that ``hopfforge build double --emit`` writes, held fixed.

Each ``tests/golden/<name>.json`` is one command's output with every
``wall_time`` removed: ``suite all``, the deep suite ``--h-order 10
--word-cutoff 16 --tensor-degree 8 suite all``, ``check rmatrix``,
``--tensor-degree 7 check duality --literal`` and ``--seed 5 build double``.
A change that should not alter any report (a refactor, a speed-up) must leave
them byte-identical.
A change that alters the JSON on purpose regenerates the files and lists each
changed report; for ``suite all``:

    PYTHONPATH=src python -m hopfforge --format json suite all | python -c "import json, sys; \\
        d = json.load(sys.stdin); [r.pop('wall_time') for r in d]; \\
        print(json.dumps(d, indent=2))" > tests/golden/suite_all.json
"""

import json
from pathlib import Path

import pytest

from hopfforge.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
EMITTED = GOLDEN / "sd_derived.hopf"

# golden file -> the command's arguments after ``--format json``
COMMANDS = {
    "suite_all.json": ["suite", "all"],
    "suite_all_deep.json": ["--h-order", "10", "--word-cutoff", "16", "--tensor-degree", "8",
                            "suite", "all"],
    "check_rmatrix.json": ["check", "rmatrix"],
    "duality_literal_d7.json": ["--tensor-degree", "7", "check", "duality", "--literal"],
    "build_double_seed5.json": ["--seed", "5", "build", "double"],
}


@pytest.mark.parametrize("golden", list(COMMANDS))
def test_suite_all_json_matches_the_golden_file(capsys, golden):
    code = main(["--format", "json", *COMMANDS[golden]])
    out = capsys.readouterr().out
    docs = json.loads(out)
    # the stream is json.dumps(..., indent=2), so re-dumping it is byte-exact
    assert json.dumps(docs, indent=2) == out.rstrip("\n")
    for doc in docs:
        doc.pop("wall_time")
    assert json.dumps(docs, indent=2) + "\n" == (GOLDEN / golden).read_text()
    assert code == 0


def test_emitted_double_matches_the_golden_file(tmp_path, capsys):
    """``tests/golden/sd_derived.hopf`` is the emitted double at the default
    cutoffs; a change that alters it on purpose regenerates it with

        PYTHONPATH=src python -m hopfforge build double --emit tests/golden/sd_derived.hopf
    """
    out = tmp_path / "sd_derived.hopf"
    assert main(["build", "double", "--emit", str(out)]) == 0
    assert out.read_bytes() == EMITTED.read_bytes()
