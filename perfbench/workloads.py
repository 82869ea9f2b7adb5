"""The benchmark's workloads and the verdict each of their reports must carry.

A workload is a fixed list of ``hopfforge`` command lines that one client
issues in order, each after the previous verdict (a closed loop with one
client).  The expected verdicts below are written from the claims the project
documents in README.md ("What the suite establishes") and PAPER.md, not from a
run of the code: ESTABLISHED means the claim holds and the report must say
``pass``; REFUTED means the published form of the claim is false and the
report must say ``fail`` or ``finding``.  Either spelling of a refutation is
accepted, so relabelling a standalone failure as a finding neither breaks nor
satisfies the table.
"""

from __future__ import annotations

from dataclasses import dataclass

ESTABLISHED, REFUTED = "established", "refuted"
STATUSES = {ESTABLISHED: ("pass",), REFUTED: ("fail", "finding")}

# the twelve presentations shipped in src/hopfforge/data
SHIPPED = ("ptsa_q", "brst_q", "brst_q_alpha2", "sd_reference", "sd_hp", "sd_line",
           "h0_point", "d0_variety", "h1_point", "d1_variety", "variety_3d", "newquant")

# Every command runs with JSON output on one worker, so its reports can be read
# back and no thread pool shares the CPU with the measured work.
BASE_ARGS = ("--format", "json", "--jobs", "1")


@dataclass(frozen=True)
class Expected:
    check: str
    target: str
    claim: str   # ESTABLISHED or REFUTED
    audit: str   # the report's stability_audit field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seeded: bool   # False: the commands, and so the reports, ignore --seed
    commands: tuple  # ((argv, (Expected, ...)), ...)

    def argvs(self):
        return [argv for argv, _ in self.commands]


def _first_order(target: str):
    # graded Jacobi, co-Jacobi and the 1-cocycle condition hold exactly at any
    # fixed coordinate of the 3-dimensional variety
    return tuple(Expected(check, target, ESTABLISHED, "not-run")
                 for check in ("lie-jacobi", "lie-cojacobi", "lie-cocycle"))


def catalog() -> Workload:
    cmds = []
    for f in SHIPPED:
        # all twelve presentations pass the Hopf axiom suite, audits included
        cmds.append((BASE_ARGS + ("check", "hopf", f),
                     (Expected("hopf-axioms", f, ESTABLISHED, "pass"),)))
        # the S*tau*xi overlap resolves only on the alpha = 2 slice, so the
        # published double and the symbolic-alpha family are not confluent
        claim = REFUTED if f in ("sd_reference", "sd_hp") else ESTABLISHED
        cmds.append((BASE_ARGS + ("check", "confluence", f),
                     (Expected("confluence", f, claim, "not-run"),)))
    cmds += [
        # the h -> 0 limit of the line is the quantized semidirect product
        (BASE_ARGS + ("check", "family", "sd_line", "--limit", "h0"),
         (Expected("limit-h0", "sd_line -> h0_point", ESTABLISHED, "not-run"),)),
        # the h -> 1 structure lands factor by factor on the exact endpoint
        (BASE_ARGS + ("check", "family", "sd_line", "--limit", "h1"),
         (Expected("limit-h1", "sd_line -> h1_point", ESTABLISHED, "not-run"),)),
        # the flow field matches the published first-order term
        (BASE_ARGS + ("check", "family", "variety_3d", "--limit", "field"),
         (Expected("deforming-field", "variety_3d at h=0", ESTABLISHED, "not-run"),)),
        (BASE_ARGS + ("check", "family", "variety_3d", "--limit", "first-order"),
         _first_order("variety_3d")),
        (BASE_ARGS + ("check", "bialgebra", "variety3d"), _first_order("variety_3d")),
        # bracket and cobracket from two coordinates leave the residual
        # (a1*b2 - a2*b1) * T (x) xi: no super Lie bialgebra
        (BASE_ARGS + ("check", "bialgebra", "variety3d", "--mixed", "h1=1,h2=2"),
         (Expected("lie-cocycle", "variety_3d x variety_3d", REFUTED, "not-run"),)),
    ]
    return Workload(
        "catalog",
        "many fresh engines over symbolic parameters with cold product caches "
        "and short words; never enters pairing, double or rmatrix",
        False, tuple(cmds))


def double(seed: int) -> Workload:
    cmds = (
        # exactly one convention gives a consistent pairing, under [tau,xi] = h*xi;
        # the literal (h/2) scaling admits no rational pairing at all, so its
        # report names only the dual side that has no partner.  Tensor degree 7
        # (pairing up to degree 9) makes the seed-free pairing work outweigh the
        # route check, whose cost varies 1-5 s with the pairs the seed draws.
        (BASE_ARGS + ("--tensor-degree", "7", "check", "duality", "--literal"),
         (Expected("duality", "ptsa_q / brst_q_alpha2", ESTABLISHED, "pass"),
          Expected("duality", "brst_q", REFUTED, "not-run"))),
        # the contraction and structure-constant routes agree and reproduce the
        # published cross relations; the seed draws the 20 random basis pairs
        (BASE_ARGS + ("--seed", str(seed), "build", "double"),
         (Expected("double-reconstruction", "SD(ptsa_q, brst_q_alpha2)",
                   ESTABLISHED, "pass"),
          Expected("double-route-equivalence",
                   f"20 random pairs of degree <= 3 (seed {seed})",
                   ESTABLISHED, "not-run"))),
    )
    return Workload(
        "double",
        "recursive pairing with a warm memo and both cross-product routes over "
        "rational h-series; the seed picks the route-check pairs",
        True, cmds)


def rmatrix() -> Workload:
    cmds = (
        (BASE_ARGS + ("check", "rmatrix"), (
            # the canonical element intertwines the coproduct at (D,N)=(4,4)
            Expected("rmatrix-intertwining[canonical]", "all four generators",
                     ESTABLISHED, "pass"),
            # the published closed form lacks e^{hT/2} and fails at order h^2
            Expected("rmatrix-intertwining[closed-form]", "all four generators",
                     REFUTED, "skipped"),
            Expected("rmatrix-coproduct-laws[canonical]", "both coproduct laws",
                     ESTABLISHED, "pass"),
            # the 3-leg exponential identity holds under the rescaled normalization
            Expected("rmatrix-auxiliary-identity", "3-leg exponential rearrangement",
                     ESTABLISHED, "pass"),
            # the double is quasitriangular, not triangular
            Expected("rmatrix-triangularity[canonical]", "triangularity readings",
                     REFUTED, "not-run"),
            Expected("universal-identity", "basis elements of degree <= 3",
                     ESTABLISHED, "not-run"),
        )),
    )
    return Workload(
        "rmatrix",
        "one large double engine straightens words of up to 16 letters with a "
        "warm product cache; three audits each build their own context",
        False, cmds)


NAMES = ("catalog", "double", "rmatrix")


def get(name: str, seed: int) -> Workload:
    if name == "catalog":
        return catalog()
    if name == "double":
        return double(seed)
    if name == "rmatrix":
        return rmatrix()
    raise KeyError(name)
