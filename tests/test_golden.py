"""The whole report stream of ``hopfforge --format json suite all``, held fixed.

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
