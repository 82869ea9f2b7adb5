import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hopfforge.cli import main
from hopfforge.presentation import data_dir


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_hopf_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "check", "hopf", "ptsa_q")
    assert code == 0
    assert "hopf-axioms" in out and "PASS" in out


def test_check_hopf_unknown_file_exit_two(capsys):
    code, _, err = run(capsys, "check", "hopf", "no_such_presentation")
    assert code == 2
    assert "error" in err


def test_check_hopf_json_schema(capsys):
    code, out, _ = run(capsys, "--format", "json", "check", "hopf", "brst_q")
    assert code == 0
    docs = json.loads(out)
    assert isinstance(docs, list)
    for key in ("check", "target", "cutoffs", "status", "residual",
                "stability_audit", "details", "wall_time"):
        assert key in docs[0]


def test_check_hopf_malformed_file_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.hopf"
    bad.write_text("name bad\n[generators]\nx even 1\n[relations]\n[x,x] = (\n")
    code, _, err = run(capsys, "check", "hopf", str(bad))
    assert code == 2
    assert err.startswith("error:") and "line 5" in err


def test_check_hopf_unevaluable_expression_exit_two(tmp_path, capsys):
    # parses, but the series arithmetic rejects it
    text = (data_dir() / "h1_point.hopf").read_text()
    for rhs in ("sinh(2)", "1/0", "0/0", "0/0 + 1", "(0/0)^0", "0*(0/0)"):
        bad = tmp_path / "bad.hopf"
        bad.write_text(text.replace("{S,xi} = 2*sinh(T/2)", "{S,xi} = " + rhs))
        code, out, err = run(capsys, "--h-order", "1", "--word-cutoff", "3",
                             "check", "hopf", str(bad))
        assert code == 2 and not out
        assert f"cannot evaluate {rhs}" in err


def test_check_hopf_divides_by_a_parameter_polynomial(tmp_path, capsys):
    # (mu^2 - theta^2)/(mu - theta) - theta is mu: the relation is d0_variety's
    text = (data_dir() / "d0_variety.hopf").read_text()
    edited = tmp_path / "d0_quotient.hopf"
    edited.write_text(text.replace(
        "[S,tau] = -2*mu*xi", "[S,tau] = -2*((mu^2 - theta^2)/(mu - theta) - theta)*xi"))
    code, out, err = run(capsys, "check", "hopf", str(edited))
    assert (code, err) == (0, "")
    assert "PASS" in out


def test_python_dash_m_runs_the_command_line():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-m", "hopfforge", "--format", "json",
                           "check", "hopf", "ptsa_q"], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)[0]["status"] == "pass"


def test_every_module_imports_on_its_own():
    # an import cycle among the modules shows up only when one of its members
    # is imported first, so each module is imported into an empty module cache
    src = Path(__file__).resolve().parent.parent / "src"
    names = ["hopfforge" if p.stem == "__init__" else f"hopfforge.{p.stem}"
             for p in sorted((src / "hopfforge").glob("*.py")) if p.stem != "__main__"]
    script = ("import importlib, sys\n"
              "for name in sys.argv[1:]:\n"
              "    for key in [k for k in sys.modules if k.split('.')[0] == 'hopfforge']:\n"
              "        del sys.modules[key]\n"
              "    importlib.import_module(name)\n")
    done = subprocess.run([sys.executable, "-c", script, *names], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr


def test_check_confluence_finding_on_reference(capsys):
    code, out, _ = run(capsys, "--h-order", "5", "--word-cutoff", "8",
                       "check", "confluence", "sd_reference")
    assert code == 0  # a refuted claim is a finding, alone as in `suite all`
    assert "FINDING" in out
    assert "S*tau*xi" in out.replace("overlap ", "")


def test_check_confluence_pass_on_line(capsys):
    code, out, _ = run(capsys, "--h-order", "5", "--word-cutoff", "8",
                       "check", "confluence", "sd_line")
    assert code == 0


def test_check_duality(capsys):
    code, out, _ = run(capsys, "--h-order", "4", "--word-cutoff", "8",
                       "--tensor-degree", "2", "check", "duality", "--literal")
    assert code == 0
    assert "duality" in out
    assert "FINDING" in out  # the literal scaling diagnostic


def test_check_family_binding(capsys):
    code, out, _ = run(capsys, "--h-order", "4", "--word-cutoff", "8",
                       "check", "family", "d0_variety", "--bind", "mu=1",
                       "--bind", "theta=0")
    assert code == 0


@pytest.mark.parametrize("family", ["d1_variety", "variety_3d"])
def test_check_family_binds_the_removable_singularity(capsys, family):
    # {S,xi} carries mu/theta: its expressions are evaluated with theta
    # symbolic, and theta = 0 is substituted after the division
    code, out, err = run(capsys, "--h-order", "4", "--word-cutoff", "8",
                         "check", "family", family, "--bind", "mu=1", "--bind", "theta=0")
    assert (code, err) == (0, "")
    assert "PASS" in out


def test_check_family_rejects_a_pole_valued_binding(capsys):
    code, out, err = run(capsys, "--h-order", "4", "--word-cutoff", "8",
                         "check", "family", "sd_hp", "--bind", "alpha=1/h")
    assert code == 2 and not out
    assert "alpha=1/h" in err and "pole" in err


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_below_one_exits_two(capsys, jobs):
    code, out, err = run(capsys, "--jobs", jobs, "check", "hopf", "ptsa_q")
    assert code == 2 and not out
    assert "--jobs" in err and "positive integer" in err


def test_check_family_bad_binding(capsys):
    code, _, err = run(capsys, "check", "family", "d0_variety", "--bind", "oops")
    assert code == 2


def test_check_family_limits(capsys):
    code, out, _ = run(capsys, "--h-order", "4", "--word-cutoff", "8",
                       "check", "family", "sd_line", "--limit", "h0")
    assert code == 0
    code, out, _ = run(capsys, "--h-order", "4", "--word-cutoff", "8",
                       "check", "family", "sd_line", "--limit", "h1")
    assert code == 0
    code, out, _ = run(capsys, "--h-order", "4", "--word-cutoff", "8",
                       "check", "family", "variety_3d", "--limit", "field")
    assert code == 0


def test_check_family_limit_rejects_other_families(capsys):
    for fam, limit in (("ptsa_q", "field"), ("variety_3d", "h1"), ("ptsa_q", "h0")):
        code, _, err = run(capsys, "--h-order", "4", "--word-cutoff", "8",
                           "check", "family", fam, "--limit", limit)
        assert code == 2
        assert f"--limit {limit} applies to" in err


@pytest.mark.parametrize("family, limit", [
    ("d0_variety", None), ("sd_line", "h0"), ("sd_line", "h1"),
    ("variety_3d", "field"), ("variety_3d", "first-order")])
def test_check_family_bind_rejects_unknown_names(capsys, family, limit):
    # a limit takes no binding at all, so it must not run and pass regardless
    extra = [] if limit is None else ["--limit", limit]
    code, out, err = run(capsys, "--h-order", "4", "--word-cutoff", "8",
                         "check", "family", family, "--bind", "zz=1", *extra)
    assert code == 2 and not out
    assert ("'zz'" if limit is None else f"--limit {limit} takes no --bind") in err


def test_check_family_bind_rejects_a_repeated_name(capsys):
    # the second value must not silently replace the first
    code, out, err = run(capsys, "--h-order", "4", "--word-cutoff", "8",
                         "check", "family", "sd_hp", "--bind", "p=1", "--bind", "p=2")
    assert code == 2 and not out
    assert "--bind p given twice" in err


def test_check_family_malformed_bind_value_exits_two(capsys):
    code, _, err = run(capsys, "--h-order", "4", "--word-cutoff", "8",
                       "check", "family", "d0_variety", "--bind", "mu=(")
    assert code == 2
    assert "bad binding mu=" in err


def test_check_bialgebra_mixed_fails_with_residual(capsys):
    code, out, _ = run(capsys, "check", "bialgebra", "variety3d",
                       "--mixed", "h1=a,h2=b")
    assert code == 0  # the cocycle fails: a finding, with its residual
    assert "FINDING" in out
    assert "a1*b2" in out


def test_check_bialgebra_mixed_value_is_parsed(capsys):
    code, out, _ = run(capsys, "--format", "json", "check", "bialgebra", "variety3d",
                       "--mixed", "h1=1,h2=2")
    assert code == 0
    assert [(r["check"], r["status"]) for r in json.loads(out)] == [("lie-cocycle", "finding")]
    for value in ("garbage", "h1=1", "h2=1,h1=2", "h1=1,h2=2,h3=3", "h1=(,h2=2"):
        code, out, err = run(capsys, "check", "bialgebra", "variety3d", "--mixed", value)
        assert code == 2 and not out
        assert "--mixed" in err


def test_end_of_expression_error_reports_its_column(tmp_path, capsys):
    # the column points just past the last token: "(" at column 1 of the value
    code, out, err = run(capsys, "check", "bialgebra", "variety3d", "--mixed", "h1=(,h2=2")
    assert code == 2 and not out
    assert "end of expression at line 1, column 2" in err
    bad = tmp_path / "bad.hopf"
    bad.write_text("name bad\n[generators]\nx even 1\n[relations]\n[x,x] = (\n")
    code, _, err = run(capsys, "check", "hopf", str(bad))
    assert code == 2
    assert "end of expression at line 5, column 10" in err


def test_check_family_unknown_id_exits_two(capsys):
    for extra in ((), ("--limit", "first-order")):
        code, out, err = run(capsys, "check", "family", "nosuch", *extra)
        assert code == 2 and not out
        assert "nosuch" in err


@pytest.mark.parametrize("argv", [("family", "ptsa_q", "--limit", "first-order"),
                                  ("bialgebra", "sd_line")])
def test_first_order_needs_the_parameter_mu(capsys, argv):
    code, out, err = run(capsys, "check", *argv)
    assert code == 2 and not out
    assert "has no parameter 'mu'" in err


def test_check_bialgebra_single_point_passes(capsys):
    code, out, _ = run(capsys, "check", "bialgebra", "variety_3d")
    assert code == 0


def test_build_double_emit(tmp_path, capsys):
    target = tmp_path / "derived.hopf"
    code, out, _ = run(capsys, "--h-order", "4", "--word-cutoff", "8",
                       "build", "double", "--emit", str(target))
    assert code == 0
    text = target.read_text()
    assert "[relations]" in text and "{S,xi} = 2*sinh(h*T/2)" in text
    from hopfforge.presentation import parse_presentation
    parse_presentation(text)


def test_usage_error_exit_two(capsys):
    assert main(["check"]) == 2 or main(["nonsense"]) == 2


def test_rmatrix_triangular_subcommand(capsys):
    code, out, _ = run(capsys, "--tensor-degree", "3", "--h-order", "3",
                       "check", "rmatrix", "--which", "triangular")
    assert code == 0
    assert "quasitriangular" in out


def _without_wall_time(out):
    docs = json.loads(out)
    for d in docs:
        d.pop("wall_time")
    return docs


def test_suite_runs_the_registry_in_order(monkeypatch, capsys):
    from hopfforge import cli
    from hopfforge.report import REFUTED

    def name(entry):
        return " ".join(map(str, entry))

    # one failing report per entry, named after the entry; the first entries'
    # reports carry the refuted claims' (check, target) pairs instead
    names = dict(zip(cli.REGISTRY, REFUTED))

    def stub(group):
        def reports(args, *options):
            entry = (group, *options)
            check, target = names.get(entry, (group, name(entry)))
            return [cli.VerificationReport(check=check, target=target, cutoffs={},
                                           status="fail")]
        return reports

    monkeypatch.setattr(cli, "GROUPS", {g: stub(g) for g in cli.GROUPS})
    code, out, _ = run(capsys, "--format", "json", "suite", "all")
    docs = json.loads(out)
    assert code == 1
    assert [(d["check"], d["target"]) for d in docs] == \
        [names.get(e, (e[0], name(e))) for e in cli.REGISTRY]
    # only the refuted claims are findings, each with its reason
    assert [(d["check"], d["target"]) for d in docs if d["status"] == "finding"] == \
        list(REFUTED)
    assert all(d["details"] == [REFUTED[d["check"], d["target"]][0]]
               for d in docs if d["status"] == "finding")


def test_standalone_and_suite_reports_agree(monkeypatch, capsys):
    # an established claim and a refuted one get the same verdict either way
    from hopfforge import cli
    cuts = ("--format", "json", "--h-order", "4", "--word-cutoff", "8")
    for name, status in (("sd_line", "pass"), ("sd_hp", "finding")):
        code, alone, _ = run(capsys, *cuts, "check", "confluence", name)
        assert code == 0
        monkeypatch.setattr(cli, "REGISTRY", (("confluence", name),))
        code, suite, _ = run(capsys, *cuts, "suite", "all")
        assert code == 0
        assert _without_wall_time(alone) == _without_wall_time(suite)
        assert [d["status"] for d in json.loads(suite)] == [status]


def test_jobs_is_accepted_and_changes_nothing(capsys):
    cuts = ("--format", "json", "--h-order", "4", "--word-cutoff", "8")
    _, one, _ = run(capsys, *cuts, "--jobs", "1", "check", "confluence", "sd_reference")
    code, two, _ = run(capsys, *cuts, "--jobs", "2", "check", "confluence", "sd_reference")
    assert code == 0 and json.loads(two)[0]["status"] == "finding"
    assert _without_wall_time(one) == _without_wall_time(two)


@pytest.mark.parametrize("w", range(7))
def test_duality_needs_word_cutoff_at_least_tensor_degree_plus_two(capsys, w):
    # at the default D = 4; below W = 6 the check used to report a false FAIL
    code, out, err = run(capsys, "--word-cutoff", str(w), "check", "duality")
    if w >= 6:
        assert code == 0
    else:
        assert code == 2 and not out
        assert "--word-cutoff >= --tensor-degree + 2" in err


@pytest.mark.parametrize("w", [0, 1])
def test_build_double_needs_word_cutoff_at_least_one(capsys, w):
    code, out, err = run(capsys, "--word-cutoff", str(w), "build", "double")
    if w:
        assert code == 0
    else:
        assert code == 2 and not out
        assert "--word-cutoff >= 1" in err


def test_suite_all_rejects_inconsistent_cutoffs_before_running(monkeypatch, capsys):
    from hopfforge import cli
    monkeypatch.setattr(cli, "GROUPS", {})  # no entry may run
    code, out, err = run(capsys, "--word-cutoff", "5", "suite", "all")
    assert code == 2 and not out
    assert "--word-cutoff >= --tensor-degree + 2" in err


@pytest.mark.parametrize("argv", [
    ("--h-order", "-1", "check", "hopf", "ptsa_q"),
    ("--word-cutoff", "-1", "check", "hopf", "ptsa_q"),
    ("--tensor-degree", "-3", "check", "duality"),
    ("--tensor-degree", "-1", "check", "rmatrix", "--which", "colaws"),
])
def test_negative_cutoff_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert f"argument {argv[0]}: expected a non-negative integer, got '{argv[1]}'" in err


@pytest.mark.parametrize("argv", [
    ("suite", "all"),
    ("check", "bialgebra", "newquant"),
    ("check", "bialgebra", "variety3d"),
    ("check", "bialgebra", "variety3d", "--mixed", "h1=1,h2=2"),
    ("check", "family", "variety_3d", "--limit", "first-order"),
    ("check", "family", "variety_3d", "--limit", "field"),
])
def test_checks_that_read_h1_need_h_order_at_least_one(monkeypatch, capsys, argv):
    # at N = 0 the h^1 coefficient is unknown; read as zero, it gave false
    # verdicts both ways (a dropped delta(tau), a passing mixed cocycle)
    from hopfforge import cli
    monkeypatch.setattr(cli, "GROUPS", {})  # no entry may run
    code, out, err = run(capsys, "--h-order", "0", *argv)
    assert code == 2 and not out
    assert "--h-order >= 1, not N=0" in err


def test_suite_all_at_h_order_one_passes(capsys):
    code, out, _ = run(capsys, "--h-order", "1", "suite", "all")
    assert code == 0 and "FAIL" not in out


# ------------------------------------------- shared state across commands

def _workload_argvs(name):
    """The command lines of one of the benchmark's workloads, at seed 1."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)  # its dataclasses look their module up
    return [list(argv) for argv in workloads.get(name, 1).argvs()]


_EACH_FRESH = """\
import contextlib, io, json, sys
from hopfforge import cli, shared
outs = []
for argv in json.loads(sys.argv[1]):
    shared.clear()  # nothing kept from the command before
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    outs.append([code, out.getvalue()])
print(json.dumps(outs))
"""


def _reports(code, out):
    return code, _without_wall_time(out)


@pytest.mark.parametrize("workload", ["catalog", "double", "rmatrix"])
def test_commands_sharing_one_process_report_as_fresh_ones(capsys, workload):
    argvs = _workload_argvs(workload)
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", _EACH_FRESH, json.dumps(argvs)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    fresh = [_reports(code, out) for code, out in json.loads(done.stdout)]
    for _ in range(2):  # the second pass finds every engine, HopfOps and pairing kept
        assert [_reports(*run(capsys, *argv)[:2]) for argv in argvs] == fresh


def test_a_data_file_rewritten_in_place_is_parsed_again(tmp_path, capsys):
    line = "S = exp(h*T/2) (x) S + S (x) exp(-h*T/2)"
    text = (data_dir() / "ptsa_q.hopf").read_text()
    assert line in text
    path = tmp_path / "ptsa_q.hopf"
    cuts = ("--format", "json", "--h-order", "3", "--word-cutoff", "6")
    for edited, want in ((text, "pass"), (text.replace(line, line.replace("+", "-")), "fail"),
                         (text, "pass")):
        path.write_text(edited)
        code, out, _ = run(capsys, *cuts, "check", "hopf", str(path))
        assert (code, json.loads(out)[0]["status"]) == (int(want == "fail"), want)


def test_the_kept_parser_takes_each_command_afresh(monkeypatch, capsys):
    from hopfforge import cli
    run(capsys, "check", "hopf", "brst_q")  # the parser exists from here on
    assert run(capsys, "check", "nonsense")[0] == 2
    assert run(capsys, "--h-order", "-1", "check", "hopf", "brst_q")[0] == 2
    code, out, _ = run(capsys, "--format", "json", "check", "hopf", "brst_q")
    assert code == 0 and json.loads(out)[0]["status"] == "pass"
    code, out, _ = run(capsys, "--format", "text", "check", "hopf", "brst_q")
    assert code == 0 and out.startswith("[PASS   ] hopf-axioms :: brst_q")
    # the subcommands look their functions up when they run
    monkeypatch.setattr(cli, "cmd_suite_all", lambda args: 7)
    monkeypatch.setattr(cli, "cmd_check_family", lambda args: 8)
    assert main(["suite", "all"]) == 7
    assert main(["check", "family", "sd_line"]) == 8
