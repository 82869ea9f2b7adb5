"""Command-line verifier: load presentations, run check suites, emit reports.

Every check group is defined once, in the registry below.  Each ``check`` and
``build`` subcommand runs one registry entry; ``suite all`` runs every entry in
registry order.  Every report an entry gives goes through ``report.judged``,
which turns a refuted claim's failure into a finding, alone and in ``suite
all`` alike.  Checks run serially: ``--jobs K`` (K >= 1) is accepted for
compatibility and has no effect.

Exit status: 0 when every check passes (findings count as non-failures), 1 when
at least one check fails, 2 on usage or input errors.  Reports are
deterministic given inputs, cutoffs and seed.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from . import families
from .bialgebra import check_cocycle, check_cojacobi, check_jacobi, from_family
from .double import (derive_double_presentation, verify_route_equivalence,
                     verify_universal_identity)
from .hopf import verify_hopf
from .lang import ParseError, parse_expr_text
from .pairing import verify_duality
from .pbw import Cutoffs, shared_engine
from .presentation import PresentationError, emit_presentation, load_presentation
from .report import FAIL, VerificationReport, audited, judged, reports_to_json
from .rmatrix import (RMatrixContext, build_R, check_triangularity, verify_auxiliary,
                      verify_coproduct_laws, verify_intertwining)

__all__ = ["main"]

SHIPPED = ("ptsa_q", "brst_q", "brst_q_alpha2", "sd_reference", "sd_hp", "sd_line",
           "h0_point", "d0_variety", "h1_point", "d1_variety", "variety_3d", "newquant")


def _cutoffs(args) -> Cutoffs:
    return Cutoffs(args.h_order, args.word_cutoff)


def _emit(reports, args) -> int:
    reports = list(reports)
    if args.format == "json":
        print(reports_to_json(reports))
    else:
        for r in reports:
            print(r.text())
    return 1 if any(r.status == FAIL for r in reports) else 0


# ---------------------------------------------------------------- check groups
# Each group maps the parsed arguments and its own options to a report list.
# Every check makes, fails and times its report in VerificationReport.timed();
# the groups pass the reports that carry a stability audit through audited(),
# with a re-run at Cutoffs.bumped(), or on the (D+1, N+1) R-matrix context.

def _audited_hopf(pres, cut):
    return audited(verify_hopf(pres, cut), lambda: verify_hopf(pres, cut.bumped()))


def _hopf(args, name):
    return [_audited_hopf(load_presentation(name), _cutoffs(args))]


def _confluence(args, name):
    cut = _cutoffs(args)
    pres = load_presentation(name)
    with VerificationReport.timed("confluence", pres.name, cut.as_dict()) as rep:
        ok, failures, checked = shared_engine(pres, cut).check_confluence()
        rep.details.append(f"{checked} overlaps checked")
        if not ok:
            rep.fail(f"overlap {'*'.join(failures[0][0])}")
    return [rep]


def _duality(args, literal):
    """The pairing certification; with literal, the (h/2) scaling diagnostic
    too.  The re-run finds the convention lock that the main run computed
    and the process keeps (``pairing.shared_lock``)."""
    cut, degree = _cutoffs(args), args.tensor_degree + 2
    reports = [audited(verify_duality(cut, max_degree=degree),
                       lambda: verify_duality(cut.bumped(), max_degree=degree))]
    if literal:
        reports.append(verify_duality(Cutoffs(4, 8), max_degree=3, alpha2=False))
    return reports


def _double(args, emit=None):
    cut = _cutoffs(args)
    derived, report, dbl = derive_double_presentation(cut)
    reports = [audited(report, lambda: derive_double_presentation(cut.bumped())[1])]
    if derived is not None:
        reports.append(verify_route_equivalence(dbl, count=20, max_degree=3,
                                                seed=args.seed))
        if emit:
            with open(emit, "w") as fh:
                fh.write(emit_presentation(derived))
            report.details.append(f"derived presentation written to {emit}")
    return reports


def _rmatrix(args, which):
    ctx = RMatrixContext(args.tensor_degree, min(args.h_order, 4))

    def on_both(check):
        """check(ctx), audited by check(ctx.audit_context)."""
        return audited(check(ctx), lambda: check(ctx.audit_context))

    def with_R(check, variant):
        return lambda c: check(c, build_R(c, variant), variant)

    reports = []
    if which in ("all", "intertwine"):
        reports.append(on_both(with_R(verify_intertwining, "canonical")))
        reports.append(on_both(with_R(verify_intertwining, "closed-form")))
    if which in ("all", "colaws"):
        reports.append(on_both(with_R(verify_coproduct_laws, "canonical")))
    if which in ("all", "aux"):
        reports.append(on_both(verify_auxiliary))
    if which in ("all", "triangular"):
        reports.append(check_triangularity(ctx, ctx.canonical, "canonical"))
    if which in ("all", "universal"):
        reports.append(verify_universal_identity(
            ctx.dbl, ctx.canonical, max_degree=3, compare_degree=ctx.degree))
    return reports


# The limits that exist for one family only.
LIMIT_TARGETS = {"h0": "sd_line", "h1": "sd_line", "field": "variety_3d"}


def _family(args, fam=None, limit=None, bindings=None):
    """The inter-family relations, or one family's Hopf check or limit."""
    cut = _cutoffs(args)
    if fam is None:
        return families.verify_family_relations(cut)
    if limit == "h0":
        return [families.compare_limit_with(fam, "h0_point", cut)]
    if limit == "h1":
        return [families.verify_h1_limit(cut)]
    if limit == "field":
        return [families.verify_deforming_field(cut)]
    return [_audited_hopf(families.instantiate(fam, bindings), cut)]


def _first_order(args, fam, mixed=False):
    """Graded Jacobi, co-Jacobi and 1-cocycle at one frozen coordinate; mixed
    takes the bracket and the cobracket from two different coordinates."""
    fam = {"variety3d": "variety_3d"}.get(fam, fam)
    mode = "zero" if fam in ("d0_variety", "d1_variety", "newquant") else "abstract"
    co = "h" if fam == "newquant" else "theta"

    def extract(atoms=("a", "b")):
        return from_family(fam, "mu", co, h_mode=mode, cutoffs=_cutoffs(args),
                           atom_names=atoms)

    if mixed:
        return [check_cocycle(extract(("a1", "b1")), cobracket_from=extract(("a2", "b2")))]
    b = extract()
    return [check_jacobi(b), check_cojacobi(b), check_cocycle(b)]


GROUPS = {"hopf": _hopf, "confluence": _confluence, "duality": _duality,
          "double": _double, "rmatrix": _rmatrix, "family": _family,
          "bialgebra": _first_order}

# Every check entry as (group, *options), in the order `suite all` reports them.
REGISTRY = (
    *(("hopf", name) for name in SHIPPED),
    *(("confluence", name) for name in SHIPPED),
    ("duality", True),  # with the literal-scaling diagnostic
    ("double",),
    ("rmatrix", "all"),
    ("family",),
    ("bialgebra", "variety_3d"),
    ("bialgebra", "variety_3d", True),  # bracket and cobracket from two coordinates
)


def _check_cutoffs(args, entry):
    """Reject cutoffs at which the central T vanishes but its dual tau does
    not, and an h-order that leaves unknown the h^1 coefficients an entry reads:
    the first-order structures, the family relations and the deforming field."""
    group, *options = entry
    W, D = args.word_cutoff, args.tensor_degree
    if group == "duality" and W < D + 2:
        raise PresentationError(f"duality pairs up to degree D + 2 and needs "
                                f"--word-cutoff >= --tensor-degree + 2, not W={W}, D={D}")
    if group == "double" and W < 1:
        raise PresentationError(f"the double needs --word-cutoff >= 1, not W={W}")
    reads_h1 = group == "bialgebra" or (group == "family" and
                                        (not options or options[1] == "field"))
    if reads_h1 and args.h_order < 1:
        raise PresentationError(f"these checks read h^1 coefficients and need "
                                f"--h-order >= 1, not N={args.h_order}")


def run_entry(args, entry):
    _check_cutoffs(args, entry)
    group, *options = entry
    return [judged(r) for r in GROUPS[group](args, *options)]


# ----------------------------------------------------------------- subcommands

def _mixed(value) -> bool:
    """Whether ``--mixed`` was given; its VALUE must read h1=<expr>,h2=<expr>."""
    if value is None:
        return False
    m = re.fullmatch(r"h1=([^,]*),h2=([^,]*)", value)
    if m is None:
        raise PresentationError(f"--mixed takes h1=<expr>,h2=<expr>, not {value!r}")
    for name, text in zip(("h1", "h2"), m.groups()):
        try:
            parse_expr_text(text)
        except ParseError as e:
            raise PresentationError(f"--mixed {name}: {e}") from None
    return True


def cmd_check_family(args) -> int:
    if args.bind and args.limit:
        # no limit reads bindings; running it would pass with them ignored
        raise PresentationError(f"--limit {args.limit} takes no --bind")
    bindings = {}
    for item in args.bind or []:
        if "=" not in item:
            raise PresentationError(f"bad binding {item!r}")
        k, v = item.split("=", 1)
        if k in bindings:
            raise PresentationError(f"--bind {k} given twice")
        bindings[k] = v
    only = LIMIT_TARGETS.get(args.limit)
    if only and args.id != only:
        raise PresentationError(f"--limit {args.limit} applies to {only} only, "
                                f"not {args.id!r}")
    entry = (("bialgebra", args.id) if args.limit == "first-order"
             else ("family", args.id, args.limit, bindings or None))
    return _emit(run_entry(args, entry), args)


def cmd_suite_all(args) -> int:
    for entry in REGISTRY:
        _check_cutoffs(args, entry)
    return _emit([r for entry in REGISTRY for r in run_entry(args, entry)], args)


# ------------------------------------------------------------------ entrypoint

def _non_negative(text: str, least: int = 0) -> int:
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        kind = "positive" if least else "non-negative"
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
    return value


def _positive(text: str) -> int:
    return _non_negative(text, 1)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hopfforge",
        description="verify the quantized proper-time/BRST double and its families")
    ap.add_argument("--h-order", type=_non_negative, default=6, metavar="N",
                    help="series truncation order in h (default 6)")
    ap.add_argument("--word-cutoff", type=_non_negative, default=10, metavar="W",
                    help="filtration degree cutoff (default 10)")
    ap.add_argument("--tensor-degree", type=_non_negative, default=4, metavar="D",
                    help="tensor comparison degree (default 4)")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--jobs", type=_positive, default=1, metavar="K",
                    help="accepted for compatibility; checks run serially")
    ap.add_argument("--seed", type=int, default=0)
    sub = ap.add_subparsers(dest="command", required=True)

    def entry_parser(parent, name, entry):
        """A subcommand that runs the registry entry entry(args)."""
        p = parent.add_parser(name)
        p.set_defaults(func=lambda a: _emit(run_entry(a, entry(a)), a))
        return p

    check = sub.add_parser("check", help="run one check group")
    chsub = check.add_subparsers(dest="what", required=True)
    p = entry_parser(chsub, "hopf", lambda a: ("hopf", a.file))
    p.add_argument("file")
    p = entry_parser(chsub, "confluence", lambda a: ("confluence", a.file))
    p.add_argument("file")
    p = entry_parser(chsub, "duality", lambda a: ("duality", a.literal))
    p.add_argument("--literal", action="store_true",
                   help="also diagnose the literal (h/2) scaling")
    p = entry_parser(chsub, "rmatrix", lambda a: ("rmatrix", a.which or "all"))
    p.add_argument("--which", choices=("intertwine", "colaws", "aux",
                                       "triangular", "universal", "all"))
    p = chsub.add_parser("family")
    p.add_argument("id")
    p.add_argument("--bind", action="append", metavar="k=v")
    p.add_argument("--limit", choices=("h0", "h1", "field", "first-order"))
    p.set_defaults(func=lambda a: cmd_check_family(a))
    p = entry_parser(chsub, "bialgebra", lambda a: ("bialgebra", a.id, _mixed(a.mixed)))
    p.add_argument("id")
    p.add_argument("--mixed", metavar="h1=EXPR,h2=EXPR",
                   help="run only the 1-cocycle check, with the bracket frozen at "
                        "coordinate h1 and the cobracket at h2; each coordinate is "
                        "abstracted to its own indeterminates (a1, b1 and a2, b2), "
                        "so the check is generic in both: each EXPR must parse, and "
                        "its value does not change the verdict")

    b = sub.add_parser("build", help="construct derived objects")
    bsub = b.add_subparsers(dest="what", required=True)
    p = entry_parser(bsub, "double", lambda a: ("double", a.emit))
    p.add_argument("--emit", metavar="FILE")

    s = sub.add_parser("suite", help="run a full suite")
    ssub = s.add_subparsers(dest="what", required=True)
    p = ssub.add_parser("all")
    p.set_defaults(func=lambda a: cmd_suite_all(a))
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process, on the first call of main.  Its
    actions name the functions they run, looked up when they run."""
    return build_parser()


def main(argv=None) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (PresentationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
