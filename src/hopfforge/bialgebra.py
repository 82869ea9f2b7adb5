"""Classical-level structures: Lie superbialgebras extracted at first order.

Both tables are read from ``hopf.structure()``: the bracket is the first-order
term of each graded commutator ``bracket (a,b)`` in the quantization parameter
(with the dual parameter switched off), the cobracket the first-order term of
(Delta - Delta^op)/2 of each ``coproduct of g`` in the dual parameter.  Either
parameter may be h or one the presentation declares; one rule reads both, and
every first-order term must be linear in the generators.  Scalar
combinations of the frozen deformation coordinate are abstracted to the
independent indeterminates ``a`` (the coordinate itself) and ``b`` (the
coordinate times (1-coordinate)/sinh(coordinate)); every check is an exact
polynomial identity in all parameters, and any check that would need a
relation among the abstracted combos reports that relation instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .hopf import structure
from .pbw import Cutoffs, Engine
from .presentation import PresentationError, load_presentation
from .report import VerificationReport
from .scalars import ParamPoly, Scalar, ScalarError, series_fn

__all__ = ["LieSuperBialgebra", "from_family", "check_jacobi", "check_cojacobi",
           "check_cocycle", "compare_bialgebras"]


@dataclass
class LieSuperBialgebra:
    name: str
    basis: tuple            # generator names
    parities: tuple
    bracket: dict           # (i, j) -> {k: ParamPoly}, all ordered pairs
    cobracket: dict         # i -> {(j, k): ParamPoly}

    def parity(self, i):
        return self.parities[i]

    def bracket_of(self, i, j) -> dict:
        return self.bracket.get((i, j), {})

    def serialize(self) -> str:
        bits = []
        for (i, j), val in sorted(self.bracket.items()):
            if val and i <= j:
                terms = " + ".join(f"({p!r})*{self.basis[k]}" for k, p in sorted(val.items()))
                br = "{%s,%s}" % (self.basis[i], self.basis[j]) \
                    if self.parities[i] and self.parities[j] else \
                    f"[{self.basis[i]},{self.basis[j]}]"
                bits.append(f"{br} = {terms}")
        for i, val in sorted(self.cobracket.items()):
            if val:
                terms = " + ".join(f"({p!r})*{self.basis[j]}(x){self.basis[k]}"
                                   for (j, k), p in sorted(val.items()))
                bits.append(f"delta({self.basis[i]}) = {terms}")
        return "; ".join(bits) if bits else "(abelian, coabelian)"


# ------------------------------------------------------------------ extraction

def _poly_coeff_of_param(poly: ParamPoly, pname: str, order: int) -> ParamPoly:
    """Coefficient of pname^order, as a polynomial in the other parameters."""
    out = {}
    for key, q in poly.terms.items():
        d = dict(key)
        if d.pop(pname, 0) == order:
            out[tuple(sorted(d.items()))] = q
    return ParamPoly(out)


def _scalar_coeff_of_param(c: Scalar, pname: str, order: int) -> Scalar:
    if pname not in c.names():
        return c if order == 0 else Scalar.zero(c.trunc)
    return Scalar({k: _poly_coeff_of_param(c.coeff(k), pname, order)
                   for k in c.exponents()}, c.trunc)


def _first_order(c: Scalar, param: str, h_mode: str, atoms, where: str) -> ParamPoly:
    """The first-order part of c in param (h or a parameter) over the atom
    table; a nonzero zeroth-order part is rejected."""
    if param == "h":
        zeroth, first = c.coeff(0), Scalar.from_poly(c.coeff(1))
    else:
        zeroth, first = (_scalar_coeff_of_param(c, param, k) for k in (0, 1))
    if not zeroth.is_zero():
        raise PresentationError(f"{where}: nonzero zeroth-order term in {param}")
    return _abstract_scalar(first, h_mode, atoms, where)


def _linear(el, param: str, h_mode: str, atoms, where: str) -> dict:
    """The first-order parts of a PbwElement or TensorElement, keyed by the
    generator index of each leg (``el._key`` of the indices); a nonzero part
    on a key that is not one generator per leg is rejected."""
    out = {}
    for key, c in el.terms.items():
        p = _first_order(c, param, h_mode, atoms, where)
        if p.is_zero():
            continue
        legs = el._legs(key)
        if any(sum(m) != 1 for m in legs):
            raise PresentationError(f"{where}: first-order term is not linear")
        out[el._key(tuple(m.index(1) for m in legs))] = p
    return out


def _abstract_scalar(c: Scalar, h_mode: str, atoms, where: str) -> ParamPoly:
    """Map an h-series coefficient to a polynomial over the atom indeterminates."""
    if h_mode == "zero":
        return c.coeff(0)
    if c.exponents() in ([], [0]):
        return c.coeff(0)
    for name, series in atoms.items():
        try:
            q = c.div(series)
        except ScalarError:
            continue
        if q.exponents() == [0] and not q.names():
            return ParamPoly.var(name) * q.coeff(0).constant
    raise PresentationError(f"{where}: coefficient {c!r} is not a recognized "
                            f"combination of the frozen coordinate")


def _atom_table(cutoffs: Cutoffs, a_name: str = "a", b_name: str = "b"):
    N = cutoffs.h_order + 3
    h = Scalar.h()
    b = (h * (Scalar.one() - h)).div(series_fn("sinh", h, order=N))
    return {a_name: h, b_name: b.truncate(cutoffs.h_order)}


def from_family(pres, bracket_param: str = "mu", cobracket_param: str = "theta",
                h_mode: str = "zero", cutoffs: Cutoffs = Cutoffs(),
                atom_names=("a", "b")) -> LieSuperBialgebra:
    """Extract (bracket, cobracket) at first order in the two parameters.

    h_mode 'zero' evaluates the deformation variable at 0 (endpoint families);
    'abstract' freezes it as the indeterminates of the atom table (interior
    points of the 3-dimensional variety).
    """
    if isinstance(pres, str):
        pres = load_presentation(pres)
    for param in (bracket_param, cobracket_param):
        if param != "h" and param not in pres.params:
            raise PresentationError(f"{pres.name} has no parameter {param!r}")
    # each table is read with the other parameter switched off
    bracket_off, cobracket_off = ({} if p == "h" else {p: 0}
                                  for p in (bracket_param, cobracket_param))
    eng = Engine(pres, cutoffs)
    data = structure(eng)
    atoms = _atom_table(cutoffs, *atom_names)
    names, parities = eng.gen_names, eng.parities
    bracket, cobracket = {}, {}
    for i, a in enumerate(names):
        for j in range(i, eng.n):
            label = f"bracket ({a},{names[j]})"
            val = _linear(data[label].substitute(cobracket_off), bracket_param, h_mode,
                          atoms, label)
            if val:
                bracket[(i, j)] = val
                # graded antisymmetry fills the other order: [y,x] = -(-1)^{|x||y|}[x,y]
                s = 1 if parities[i] and parities[j] else -1
                bracket[(j, i)] = {k: p * s for k, p in val.items()}
        two = data[f"coproduct of {a}"]
        anti = (two - two.flip_adjacent(0)).scale(Fraction(1, 2)).map_coeffs(
            lambda c: c.substitute(bracket_off))
        val = _linear(anti, cobracket_param, h_mode, atoms, f"cobracket of {a}")
        if val:
            cobracket[i] = val
    return LieSuperBialgebra(pres.name, tuple(names), tuple(parities), bracket, cobracket)


# ----------------------------------------------------------------------- checks

def _bracket_elements(b: LieSuperBialgebra, x: dict, y: dict) -> dict:
    out = {}
    for i, ci in x.items():
        for j, cj in y.items():
            for k, p in b.bracket_of(i, j).items():
                out[k] = out.get(k, ParamPoly()) + ci * cj * p
    return {k: v for k, v in out.items() if not v.is_zero()}


def check_jacobi(b: LieSuperBialgebra) -> VerificationReport:
    """Graded Jacobi identity as an exact polynomial identity."""
    with VerificationReport.timed("lie-jacobi", b.name, {}) as rep:
        for x, y, z in product(range(len(b.basis)), repeat=3):
            acc = {}
            for (p, q, r) in ((x, y, z), (y, z, x), (z, x, y)):
                sgn = -1 if (b.parity(p) and b.parity(r)) else 1
                term = _bracket_elements(b, {p: ParamPoly.const(1)}, b.bracket_of(q, r))
                for k, v in term.items():
                    acc[k] = acc.get(k, ParamPoly()) + v * sgn
            bad = {k: v for k, v in acc.items() if not v.is_zero()}
            if bad:
                k, v = next(iter(bad.items()))
                rep.fail(f"Jacobi({b.basis[x]},{b.basis[y]},{b.basis[z]}) = "
                         f"({v!r})*{b.basis[k]} + ...")
                return rep
        rep.details.append(b.serialize())
    return rep


def _cyclic3(terms: dict, parities) -> dict:
    """Graded cyclic shift u(x)v(x)w -> w(x)u(x)v with sign (-1)^{|w|(|u|+|v|)}."""
    out = {}
    for (i, j, k), p in terms.items():
        sgn = -1 if parities[k] and (parities[i] ^ parities[j]) else 1
        key = (k, i, j)
        out[key] = out.get(key, ParamPoly()) + (p * sgn if sgn == -1 else p)
    return out


def check_cojacobi(b: LieSuperBialgebra) -> VerificationReport:
    """(id + zeta + zeta^2)(delta (x) id) delta = 0 on each basis element."""
    with VerificationReport.timed("lie-cojacobi", b.name, {}) as rep:
        par = [b.parity(i) for i in range(len(b.basis))]
        for x in range(len(b.basis)):
            three = {}
            for (j, k), p in b.cobracket.get(x, {}).items():
                for (u, v), q in b.cobracket.get(j, {}).items():
                    key = (u, v, k)
                    three[key] = three.get(key, ParamPoly()) + p * q
            total = {}
            t1 = three
            t2 = _cyclic3(t1, par)
            t3 = _cyclic3(t2, par)
            for part in (t1, t2, t3):
                for key, p in part.items():
                    total[key] = total.get(key, ParamPoly()) + p
            bad = {k: v for k, v in total.items() if not v.is_zero()}
            if bad:
                key, v = next(iter(bad.items()))
                rep.fail(f"co-Jacobi({b.basis[x]}): ({v!r})*"
                         + "(x)".join(b.basis[i] for i in key))
                break
    return rep


def _adjoint_on_tensor(b: LieSuperBialgebra, x: int, two: dict) -> dict:
    """x . (u (x) v) = [x,u] (x) v + (-1)^{|x||u|} u (x) [x,v]."""
    out = {}
    for (u, v), p in two.items():
        for k, q in b.bracket_of(x, u).items():
            key = (k, v)
            out[key] = out.get(key, ParamPoly()) + p * q
        sgn = -1 if (b.parity(x) and b.parity(u)) else 1
        for k, q in b.bracket_of(x, v).items():
            key = (u, k)
            out[key] = out.get(key, ParamPoly()) + p * q * sgn
    return out


def check_cocycle(b: LieSuperBialgebra, cobracket_from: LieSuperBialgebra | None = None
                  ) -> VerificationReport:
    """delta([x,y]) = x.delta(y) - (-1)^{|x||y|} y.delta(x), exactly.

    Passing a second structure mixes the bracket of ``b`` with the cobracket of
    ``cobracket_from`` (the mixed-coordinate test).
    """
    co = (cobracket_from or b).cobracket
    target = b.name if cobracket_from is None else f"{b.name} x {cobracket_from.name}"
    with VerificationReport.timed("lie-cocycle", target, {}) as rep:
        for x, y in product(range(len(b.basis)), repeat=2):
            diff = {}
            for k, p in b.bracket_of(x, y).items():
                for key, q in co.get(k, {}).items():
                    diff[key] = diff.get(key, ParamPoly()) + p * q
            rhs = _adjoint_on_tensor(b, x, co.get(y, {}))
            sgn = -1 if (b.parity(x) and b.parity(y)) else 1
            for key, p in _adjoint_on_tensor(b, y, co.get(x, {})).items():
                rhs[key] = rhs.get(key, ParamPoly()) - p * sgn
            for key, p in rhs.items():
                diff[key] = diff.get(key, ParamPoly()) - p
            bad = {k: v for k, v in diff.items() if not v.is_zero()}
            if bad:
                key, v = next(iter(bad.items()))
                rep.fail(f"cocycle({b.basis[x]},{b.basis[y]}): ({v!r})*"
                         + "(x)".join(b.basis[i] for i in key))
                break
    return rep


def _entries(b: LieSuperBialgebra) -> dict:
    """Every bracket entry (i, j, k) and cobracket entry ("co", i, j, k) of b."""
    out = {(i, j, k): p for (i, j), val in b.bracket.items() for k, p in val.items()}
    out.update((("co", i, j, k), p) for i, val in b.cobracket.items()
               for (j, k), p in val.items())
    return out


def compare_bialgebras(b1: LieSuperBialgebra, b2: LieSuperBialgebra) -> VerificationReport:
    """Exact equality: the same basis and parities, and every bracket and
    cobracket entry present in both with the same polynomial."""
    with VerificationReport.timed("bialgebra-compare", f"{b1.name} vs {b2.name}", {}) as rep:
        if b1.basis != b2.basis or b1.parities != b2.parities:
            rep.fail("different bases")
            return rep
        e1, e2 = _entries(b1), _entries(b2)
        for key in sorted(e1.keys() | e2.keys(), key=lambda k: (k[0] == "co", k)):
            co = key[0] == "co"
            i, j, k = (b1.basis[t] for t in key[-3:])
            at = f"delta({i})" if co else f"[{i},{j}] -> {k}"
            kind = "cobracket" if co else "bracket"
            p1, p2 = e1.get(key), e2.get(key)
            if p1 is None or p2 is None:
                rep.fail(f"{kind} support differs at {at}")
                break
            if p1 != p2:
                rep.fail(f"{kind} entry differs at {at}: ({p1!r}) vs ({p2!r})")
                break
    return rep
