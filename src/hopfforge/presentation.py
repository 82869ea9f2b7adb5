"""Presentation objects: generators, oriented relations, Hopf structure maps.

A presentation file carries everything needed to build the algebra: parameter
declarations, graded generators (with filtration degree), bracket relations
``[a,b] = rhs`` / ``{a,b} = rhs``, and the generator images of the coproduct,
counit and antipode.  Generator pairs without a declared bracket supercommute,
which is how the source material writes families (only nonzero compositions are
exposed).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from .lang import (
    Add, Div, Gen, HVar, Mul, Neg, Node, Num, Param, ParseError, Pow,
    SeriesCall, Tensor, ast_atoms, ast_map, expr_to_text, parse_expr_text,
    parse_expr_tokens, tokenize,
)
from .shared import shared

__all__ = [
    "PresentationError", "PresentationSyntaxError", "UnknownGeneratorError",
    "ParityMismatchError", "NonCentralSeriesError", "GeneratorDecl", "Relation", "HopfPresentation",
    "parse_presentation", "emit_presentation", "load_presentation", "data_dir",
]

EVEN, ODD = 0, 1

SECTIONS = ("params", "generators", "relations", "coproduct", "counit", "antipode")


class PresentationError(ValueError):
    pass


class PresentationSyntaxError(PresentationError, ParseError):
    """Malformed HOPF-PRES text; ``line`` and ``col`` locate it."""


class UnknownGeneratorError(PresentationError):
    pass


class ParityMismatchError(PresentationError):
    pass


class NonCentralSeriesError(PresentationError):
    pass


@dataclass(frozen=True)
class GeneratorDecl:
    name: str
    parity: int  # 0 even, 1 odd
    degree: int  # filtration weight


@dataclass(frozen=True)
class Relation:
    kind: str  # "comm" for [a,b], "anti" for {a,b}
    a: str
    b: str
    rhs: Node


@dataclass(frozen=True)
class HopfPresentation:
    name: str
    params: tuple
    generators: tuple
    relations: tuple
    coproduct: tuple  # ((gen name, Node), ...) in generator order
    counit: tuple
    antipode: tuple
    bindings: tuple = ()  # ((parameter, Node), ...): values substituted after evaluation

    # -- lookups -------------------------------------------------------------
    def gen_names(self):
        return tuple(g.name for g in self.generators)

    def gen(self, name: str) -> GeneratorDecl:
        return self.generators[self.gen_index(name)]

    def gen_index(self, name: str) -> int:
        for i, g in enumerate(self.generators):
            if g.name == name:
                return i
        raise UnknownGeneratorError(f"unknown generator {name!r}")

    def parity(self, name: str) -> int:
        return self.gen(name).parity

    def structure_map(self, which: str, name: str) -> Node:
        table = {"coproduct": self.coproduct, "counit": self.counit, "antipode": self.antipode}[which]
        for n, node in table:
            if n == name:
                return node
        raise PresentationError(f"missing {which} for generator {name!r}")

    def bracket(self, a: str, b: str):
        """Declared relation for the unordered pair, or None (supercommuting)."""
        for rel in self.relations:
            if {rel.a, rel.b} == {a, b} or (rel.a == a and rel.b == b):
                return rel
        return None

    def is_central(self, name: str) -> bool:
        g = self.gen(name)
        if g.parity != EVEN:
            return False
        for other in self.generators:
            if other.name == name:
                continue
            rel = self.bracket(name, other.name)
            if rel is not None and not _ast_is_zero(rel.rhs):
                return False
        return True

    def bind(self, values: dict, name: str | None = None) -> "HopfPresentation":
        """Bind parameters to numbers or expressions (text or ASTs) in h and
        the parameters left free; otherwise PresentationError.

        The bound names move from ``params`` to ``bindings``, and no tree is
        rewritten: the engine evaluates with them symbolic and substitutes
        afterwards (``Engine._words``), so a removable singularity such as
        d1_variety's ``2*(mu/theta)*sinh(theta*T/2)`` at theta = 0 is mu*T.
        """
        nodes = {}
        for key, val in values.items():
            if key not in self.params:
                raise PresentationError(f"cannot bind {key!r}: not a parameter of {self.name}")
            if isinstance(val, Node):
                nodes[key] = val
            elif isinstance(val, str):
                try:
                    nodes[key] = parse_expr_text(val)
                except ParseError as e:
                    raise PresentationError(f"bad binding {key}={val!r}: {e}") from None
            else:
                nodes[key] = Num(Fraction(val))
        return validate(replace(
            self, name=name or self.name,
            params=tuple(p for p in self.params if p not in nodes),
            bindings=self.bindings + tuple((p, nodes[p]) for p in self.params if p in nodes)))


def _ast_is_zero(node: Node) -> bool:
    return isinstance(node, Num) and node.value == 0


# ----------------------------------------------------------------- validation

def _resolve_idents(node: Node, params: set, gens: set) -> Node:
    def fix(n):
        if isinstance(n, Gen):
            if n.name in gens:
                return n
            if n.name in params:
                return Param(n.name)
            raise UnknownGeneratorError(f"unknown generator {n.name!r}")
        return n

    return ast_map(node, fix)


def ast_parity(node: Node, parity_of: dict):
    """Parity of an expression: 0, 1, or None for an exact zero (any parity)."""
    if isinstance(node, (Num,)):
        return None if node.value == 0 else 0
    if isinstance(node, (Param, HVar)):
        return 0
    if isinstance(node, Gen):
        return parity_of[node.name]
    if isinstance(node, SeriesCall):
        p = ast_parity(node.arg, parity_of)
        if p == 1:
            raise ParityMismatchError("series function of an odd argument")
        return 0
    if isinstance(node, Neg):
        return ast_parity(node.arg, parity_of)
    if isinstance(node, Pow):
        p = ast_parity(node.base, parity_of)
        return None if p is None else (p * node.exp) % 2
    if isinstance(node, (Mul, Tensor)):
        parts = node.factors if isinstance(node, Mul) else node.legs
        total = 0
        for part in parts:
            p = ast_parity(part, parity_of)
            if p is None:
                return None
            total ^= p
        return total
    if isinstance(node, Div):
        return ast_parity(node.num, parity_of)
    if isinstance(node, Add):
        parities = {ast_parity(t, parity_of) for t in node.terms}
        parities.discard(None)
        if len(parities) > 1:
            raise ParityMismatchError("sum mixes parities")
        return parities.pop() if parities else None
    raise TypeError(node)


def _tensor_legs(node: Node) -> int:
    """Leg count of an expression: 1 for algebra elements, 2/3 for tensors."""
    counts = set()
    for n in ast_atoms(node):
        if isinstance(n, Tensor):
            counts.add(len(n.legs))
    if not counts:
        return 1
    if len(counts) > 1:
        raise PresentationError("mixed tensor leg counts in one expression")
    return counts.pop()


def validate(p: HopfPresentation) -> HopfPresentation:
    names = [g.name for g in p.generators]
    if len(set(names)) != len(names):
        raise PresentationError("duplicate generator names")
    reserved = {"h", "exp", "sinh", "cosh", "name"} | set(SECTIONS)
    bound = [n for n, _ in p.bindings]
    for n in list(names) + list(p.params) + bound:
        if n in reserved:
            raise PresentationError(f"identifier {n!r} is reserved")
    if set(names) & (set(p.params) | set(bound)):
        raise PresentationError("a name cannot be both parameter and generator")
    for n, v in p.bindings:
        if any(isinstance(a, (Gen, Param)) and a.name not in p.params for a in ast_atoms(v)):
            raise PresentationError(f"bad binding {n}={expr_to_text(v)}: a bound value "
                                    f"names only h and the parameters left free")
    bindings = tuple((n, _resolve_idents(v, set(p.params), set())) for n, v in p.bindings)
    # the expressions read a bound name as a symbolic parameter
    gens, params = set(names), set(p.params) | set(bound)
    parity_of = {g.name: g.parity for g in p.generators}

    def resolved(node):
        return _resolve_idents(node, params, gens)

    relations = []
    seen_pairs = set()
    for rel in p.relations:
        for side in (rel.a, rel.b):
            if side not in gens:
                raise UnknownGeneratorError(f"unknown generator {side!r} in relation")
        pa, pb = parity_of[rel.a], parity_of[rel.b]
        if rel.kind == "anti" and (pa, pb) != (ODD, ODD):
            raise ParityMismatchError(f"anticommutator {{{rel.a},{rel.b}}} needs two odd generators")
        if rel.kind == "comm" and (pa, pb) == (ODD, ODD):
            raise ParityMismatchError(f"commutator [{rel.a},{rel.b}] of two odd generators; use {{,}}")
        key = frozenset((rel.a, rel.b))
        if key in seen_pairs:
            raise PresentationError(f"duplicate relation for pair ({rel.a},{rel.b})")
        seen_pairs.add(key)
        rhs = resolved(rel.rhs)
        if _tensor_legs(rhs) != 1:
            raise PresentationError("tensor expression in an algebra relation")
        rp = ast_parity(rhs, parity_of)
        if rp is not None and rp != (pa + pb) % 2:
            raise ParityMismatchError(f"relation ({rel.a},{rel.b}): sides have different parity")
        relations.append(Relation(rel.kind, rel.a, rel.b, rhs))

    def check_total(table, which):
        have = [n for n, _ in table]
        if sorted(have) != sorted(names):
            missing = set(names) - set(have)
            extra = set(have) - set(names)
            raise PresentationError(f"{which}: missing {sorted(missing)}, unknown {sorted(extra)}")

    coproduct, counit, antipode = [], [], []
    check_total(p.coproduct, "coproduct")
    check_total(p.counit, "counit")
    check_total(p.antipode, "antipode")
    for n, node in p.coproduct:
        node = resolved(node)
        if _tensor_legs(node) != 2 and not _ast_is_zero(node):
            raise PresentationError(f"coproduct of {n} must be a 2-leg tensor expression")
        cp = ast_parity(node, parity_of)
        if cp is not None and cp != parity_of[n]:
            raise ParityMismatchError(f"coproduct of {n} has wrong parity")
        coproduct.append((n, node))
    for n, node in p.counit:
        node = resolved(node)
        if any(isinstance(a, (Gen, Tensor)) for a in ast_atoms(node)):
            raise PresentationError(f"counit of {n} must be a scalar expression")
        counit.append((n, node))
    for n, node in p.antipode:
        node = resolved(node)
        if _tensor_legs(node) != 1:
            raise PresentationError(f"antipode of {n} must be an algebra expression")
        ap = ast_parity(node, parity_of)
        if ap is not None and ap != parity_of[n]:
            raise ParityMismatchError(f"antipode of {n} has wrong parity")
        antipode.append((n, node))

    out = HopfPresentation(
        p.name, tuple(p.params), tuple(p.generators), tuple(relations),
        tuple(coproduct), tuple(counit), tuple(antipode), bindings,
    )

    # series functions only on scalars times a single central generator
    for _, node in list(out.coproduct) + list(out.antipode) + [(r.a, r.rhs) for r in out.relations]:
        for a in ast_atoms(node):
            if isinstance(a, SeriesCall):
                arg_gens = {g.name for g in ast_atoms(a.arg) if isinstance(g, Gen)}
                if len(arg_gens) > 1:
                    raise NonCentralSeriesError("series function of more than one generator")
                for gname in arg_gens:
                    if not out.is_central(gname):
                        raise NonCentralSeriesError(
                            f"series function on non-central generator {gname!r}")
    return out


# -------------------------------------------------------------- file handling

def parse_presentation(text: str) -> HopfPresentation:
    """Parse and validate a HOPF-PRES v1 document.

    Syntax errors raise PresentationSyntaxError with the line number.
    """
    try:
        pres = _parse(text)
    except ParseError as e:
        raise PresentationSyntaxError(e.msg, e.line, e.col) from None
    return validate(pres)


def _parse(text: str) -> HopfPresentation:
    name = "unnamed"
    sections = {s: [] for s in SECTIONS}
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]") and line[1:-1] in SECTIONS:
            current = line[1:-1]
            continue
        if current is None:
            parts = line.split()
            if len(parts) == 2 and parts[0] == "name":
                name = parts[1]
                continue
            raise ParseError("expected a section header", line_no, 1)
        sections[current].append((line_no, line))

    params = []
    for line_no, line in sections["params"]:
        toks = tokenize(line, line_no)
        if len(toks) != 1 or toks[0].kind != "ident":
            raise ParseError("parameter line must be a single identifier", line_no, 1)
        params.append(toks[0].text)

    generators = []
    for line_no, line in sections["generators"]:
        parts = line.split()
        if len(parts) != 3 or parts[1] not in ("even", "odd") or not parts[2].isdigit():
            raise ParseError("generator line must be '<name> even|odd <degree>'", line_no, 1)
        generators.append(GeneratorDecl(parts[0], EVEN if parts[1] == "even" else ODD, int(parts[2])))

    relations = []
    for line_no, line in sections["relations"]:
        toks = tokenize(line, line_no)
        if len(toks) < 7 or toks[0].text not in "[{":
            raise ParseError("relation must be '[a,b] = rhs' or '{a,b} = rhs'", line_no, 1)
        kind = "comm" if toks[0].text == "[" else "anti"
        closing = "]" if kind == "comm" else "}"
        if (toks[1].kind, toks[2].text, toks[3].kind, toks[4].text, toks[5].text) != (
                "ident", ",", "ident", closing, "="):
            raise ParseError("relation must be '[a,b] = rhs' or '{a,b} = rhs'", line_no, 1)
        rhs = parse_expr_tokens(toks[6:], line_no)
        relations.append(Relation(kind, toks[1].text, toks[3].text, rhs))

    def parse_assignments(which):
        out = []
        for line_no, line in sections[which]:
            toks = tokenize(line, line_no)
            if len(toks) < 3 or toks[0].kind != "ident" or toks[1].text != "=":
                raise ParseError(f"{which} line must be '<generator> = expr'", line_no, 1)
            out.append((toks[0].text, parse_expr_tokens(toks[2:], line_no)))
        return out

    return HopfPresentation(
        name, tuple(params), tuple(generators), tuple(relations),
        tuple(parse_assignments("coproduct")),
        tuple(parse_assignments("counit")),
        tuple(parse_assignments("antipode")),
    )


def emit_presentation(p: HopfPresentation) -> str:
    """Render back to HOPF-PRES v1 text; parse(emit(p)) == p."""
    if p.bindings:  # the format has none
        raise PresentationError(f"cannot emit {p.name}: it binds {p.bindings[0][0]}")
    lines = [f"name {p.name}", ""]
    lines.append("[params]")
    lines.extend(p.params)
    lines.append("")
    lines.append("[generators]")
    for g in p.generators:
        lines.append(f"{g.name} {'even' if g.parity == EVEN else 'odd'} {g.degree}")
    lines.append("")
    lines.append("[relations]")
    for r in p.relations:
        br = f"[{r.a},{r.b}]" if r.kind == "comm" else f"{{{r.a},{r.b}}}"
        lines.append(f"{br} = {expr_to_text(r.rhs)}")
    for which, table in (("coproduct", p.coproduct), ("counit", p.counit), ("antipode", p.antipode)):
        lines.append("")
        lines.append(f"[{which}]")
        for n, node in table:
            lines.append(f"{n} = {expr_to_text(node)}")
    return "\n".join(lines) + "\n"


def data_dir() -> Path:
    override = os.environ.get("HOPFFORGE_DATA_DIR")
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


def load_presentation(name: str) -> HopfPresentation:
    """Load a shipped presentation by bare name ('ptsa_q') or a path to a file.
    The file is read on every call; each distinct text is parsed once per
    process (``shared``), so a rewritten file is parsed again."""
    path = Path(name)
    if not path.suffix:
        path = data_dir() / f"{name}.hopf"
    if not path.exists() and not path.is_absolute():
        candidate = data_dir() / path
        if candidate.exists():
            path = candidate
    return _parsed(path.read_text())


_parsed = shared(parse_presentation)
