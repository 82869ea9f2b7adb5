"""Rewrite the golden files of ``tests/test_golden.py`` from the current tree.

Each ``tests/golden/<name>.json`` of ``COMMANDS`` becomes that command's
``--format json`` output with every ``wall_time`` removed, and
``tests/golden/sd_derived.hopf`` the presentation that ``build double
--emit`` writes at the default cutoffs, as the docstrings of
``tests/test_golden.py`` say.  A change that should alter no report runs it
and checks that nothing moved:

    PYTHONPATH=src python tests/regen_golden.py && git diff --exit-code tests/golden

A change that alters a report on purpose runs it, and lists each changed
report.  The script is not a test module, so Tier-1 does not collect it.
"""

import contextlib
import io
import json
import sys

from hopfforge.cli import main
from test_golden import COMMANDS, EMITTED, GOLDEN


def command_json(args) -> str:
    """The command's JSON report stream, wall times removed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--format", "json", *args])
    if code != 0:
        raise SystemExit(f"{' '.join(args)} exited {code}")
    docs = json.loads(out.getvalue())
    for doc in docs:
        doc.pop("wall_time")
    return json.dumps(docs, indent=2) + "\n"


def regenerate() -> None:
    for name, args in COMMANDS.items():
        (GOLDEN / name).write_text(command_json(args))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["build", "double", "--emit", str(EMITTED)])
    if code != 0:
        raise SystemExit(f"build double --emit exited {code}")


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
