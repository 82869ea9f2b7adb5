"""The whole report stream of ``hopfforge --format json suite all``, and the
presentation that ``hopfforge build double --emit`` writes, held fixed.

``tests/golden/suite_all.json`` is that output with every ``wall_time``
removed.  A change that should not alter any report (a refactor, a speed-up)
must leave it byte-identical.  A change that alters the JSON on purpose
regenerates the file and lists each changed report:

    PYTHONPATH=src python -m hopfforge --format json suite all | python -c "import json, sys; \\
        d = json.load(sys.stdin); [r.pop('wall_time') for r in d]; \\
        print(json.dumps(d, indent=2))" > tests/golden/suite_all.json
"""

import json
from pathlib import Path

from hopfforge.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "suite_all.json"
EMITTED = GOLDEN.parent / "sd_derived.hopf"


def test_suite_all_json_matches_the_golden_file(capsys):
    code = main(["--format", "json", "suite", "all"])
    out = capsys.readouterr().out
    docs = json.loads(out)
    # the stream is json.dumps(..., indent=2), so re-dumping it is byte-exact
    assert json.dumps(docs, indent=2) == out.rstrip("\n")
    for doc in docs:
        doc.pop("wall_time")
    assert json.dumps(docs, indent=2) + "\n" == GOLDEN.read_text()
    assert code == 0


def test_emitted_double_matches_the_golden_file(tmp_path, capsys):
    """``tests/golden/sd_derived.hopf`` is the emitted double at the default
    cutoffs; a change that alters it on purpose regenerates it with

        PYTHONPATH=src python -m hopfforge build double --emit tests/golden/sd_derived.hopf
    """
    out = tmp_path / "sd_derived.hopf"
    assert main(["build", "double", "--emit", str(out)]) == 0
    assert out.read_bytes() == EMITTED.read_bytes()
