"""Classical-level structures: Lie superbialgebras extracted at first order.

The bracket is the first-order term of the (anti)commutators in the
quantization parameter (with the dual parameter switched off), the cobracket
the first-order term of (Delta - Delta^op)/2 in the dual parameter.  Scalar
combinations of the frozen deformation coordinate are abstracted to the
independent indeterminates ``a`` (the coordinate itself) and ``b`` (the
coordinate times (1-coordinate)/sinh(coordinate)); every check is an exact
polynomial identity in all parameters, and any check that would need a
relation among the abstracted combos reports that relation instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .pbw import Cutoffs, Engine
from .presentation import PresentationError, load_presentation
from .report import FAIL, PASS, Timer, VerificationReport
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
    return Scalar({k: p for k, p in
                   ((k, _poly_coeff_of_param(poly, pname, order))
                    for k, poly in c.coeffs.items()) if not p.is_zero()}, c.trunc)


def _first_order(el_terms: dict, pname: str, h_mode: str, atoms, where: str):
    """Linearize coefficients in pname and express them over the atom table."""
    out = {}
    for mono, c in el_terms.items():
        zero_part = _scalar_coeff_of_param(c, pname, 0) if pname != "h" else None
        if pname == "h":
            lin = c.coeff(1)  # h^1 coefficient, a ParamPoly
            if not c.coeff(0).is_zero():
                raise PresentationError(f"{where}: nonzero zeroth-order term")
            out[mono] = ParamPoly(dict(lin.terms))
            continue
        if not zero_part.is_zero():
            raise PresentationError(f"{where}: nonzero zeroth-order term in {pname}")
        lin = _scalar_coeff_of_param(c, pname, 1)
        out[mono] = _abstract_scalar(lin, h_mode, atoms, where)
    return {m: p for m, p in out.items() if not p.is_zero()}


def _abstract_scalar(c: Scalar, h_mode: str, atoms, where: str) -> ParamPoly:
    """Map an h-series coefficient to a polynomial over the atom indeterminates."""
    if h_mode == "zero":
        return c.coeff(0)
    if set(c.coeffs) == {0} or c.is_zero():
        return c.coeff(0)
    for name, series in atoms.items():
        try:
            q = c.div(series)
        except ScalarError:
            continue
        if not q.is_zero() and set(q.coeffs) == {0} and q.coeff(0).is_constant():
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
    eng = Engine(pres, cutoffs)
    from .hopf import HopfOps
    ops = HopfOps(eng)
    atoms = _atom_table(cutoffs, *atom_names)
    basis = eng.gen_names
    parities = eng.parities
    n = eng.n

    def as_linear(terms: dict, where: str) -> dict:
        out = {}
        for mono, p in terms.items():
            letters = [i for i, e in enumerate(mono) for _ in range(e)]
            if len(letters) != 1:
                raise PresentationError(f"{where}: first-order term is not linear")
            out[letters[0]] = out.get(letters[0], ParamPoly()) + p
        return {k: v for k, v in out.items() if not v.is_zero()}

    bind_off = {cobracket_param: 0} if cobracket_param in pres.params else {}
    bracket = {}
    for i in range(n):
        for j in range(n):
            if j < i:
                continue
            if i == j and parities[i] == 0:
                continue
            gi, gj = basis[i], basis[j]
            pa, pb = parities[i], parities[j]
            sign = -1 if (pa and pb) else 1
            val = eng.multiply(eng.generator(gi), eng.generator(gj)) \
                - eng.multiply(eng.generator(gj), eng.generator(gi)).scale(sign)
            val = val.substitute(bind_off)
            terms = _first_order(val.terms, bracket_param, h_mode, atoms,
                                 f"bracket({gi},{gj})")
            lin = as_linear(terms, f"bracket({gi},{gj})")
            if lin:
                bracket[(i, j)] = lin
    # graded antisymmetry fills the other order: [y,x] = -(-1)^{|x||y|}[x,y]
    for (i, j), val in list(bracket.items()):
        if i != j:
            s = -1 if not (parities[i] and parities[j]) else 1
            bracket[(j, i)] = {k: p * s for k, p in val.items()}

    bind_mu = {bracket_param: 0} if bracket_param in pres.params else {}
    cobracket = {}
    for i in range(n):
        g = eng.generator(basis[i])
        two = ops.coproduct(g)
        anti = (two - two.flip_adjacent(0)).scale(Fraction(1, 2)).map_coeffs(
            lambda c: c.substitute(bind_mu))
        terms = {}
        for (m1, m2), c in anti.terms.items():
            l1 = [k for k, e in enumerate(m1) for _ in range(e)]
            l2 = [k for k, e in enumerate(m2) for _ in range(e)]
            if not l1 and not l2:
                continue
            key_terms = {(tuple(m1), tuple(m2)): c}
            if cobracket_param == "h":
                lin = c.coeff(1)
                if not c.coeff(0).is_zero():
                    raise PresentationError(f"cobracket({basis[i]}): zeroth order")
                p = ParamPoly(dict(lin.terms))
            else:
                if not _scalar_coeff_of_param(c, cobracket_param, 0).is_zero():
                    raise PresentationError(f"cobracket({basis[i]}): zeroth order")
                p = _abstract_scalar(_scalar_coeff_of_param(c, cobracket_param, 1),
                                     h_mode, atoms, f"cobracket({basis[i]})")
            if len(l1) != 1 or len(l2) != 1:
                if not p.is_zero():
                    raise PresentationError(f"cobracket({basis[i]}): not linear")
                continue
            if not p.is_zero():
                key = (l1[0], l2[0])
                terms[key] = terms.get(key, ParamPoly()) + p
        terms = {k: v for k, v in terms.items() if not v.is_zero()}
        if terms:
            cobracket[i] = terms
    return LieSuperBialgebra(pres.name, tuple(basis), tuple(parities), bracket, cobracket)


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
    with Timer() as t:
        status, residual = PASS, None
        n = len(b.basis)
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    acc = {}
                    for (p, q, r) in ((x, y, z), (y, z, x), (z, x, y)):
                        sgn = -1 if (b.parity(p) and b.parity(r)) else 1
                        inner = b.bracket_of(q, r)
                        term = _bracket_elements(b, {p: ParamPoly.const(1)}, inner)
                        for k, v in term.items():
                            acc[k] = acc.get(k, ParamPoly()) + v * sgn
                    bad = {k: v for k, v in acc.items() if not v.is_zero()}
                    if bad:
                        status = FAIL
                        k, v = next(iter(bad.items()))
                        residual = (f"Jacobi({b.basis[x]},{b.basis[y]},{b.basis[z]}) = "
                                    f"({v!r})*{b.basis[k]} + ...")
                        break
                if status == FAIL:
                    break
            if status == FAIL:
                break
    return VerificationReport(
        check="lie-jacobi", target=b.name, cutoffs={}, status=status,
        residual=residual, details=[b.serialize()] if status == PASS else [],
        wall_time=t.elapsed)


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
    with Timer() as t:
        status, residual = PASS, None
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
                status = FAIL
                key, v = next(iter(bad.items()))
                residual = (f"co-Jacobi({b.basis[x]}): ({v!r})*"
                            + "(x)".join(b.basis[i] for i in key))
                break
    return VerificationReport(
        check="lie-cojacobi", target=b.name, cutoffs={}, status=status,
        residual=residual, wall_time=t.elapsed)


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
    with Timer() as t:
        status, residual = PASS, None
        n = len(b.basis)
        for x in range(n):
            for y in range(n):
                lhs = {}
                for k, p in b.bracket_of(x, y).items():
                    for key, q in co.get(k, {}).items():
                        lhs[key] = lhs.get(key, ParamPoly()) + p * q
                rhs = _adjoint_on_tensor(b, x, co.get(y, {}))
                sgn = -1 if (b.parity(x) and b.parity(y)) else 1
                for key, p in _adjoint_on_tensor(b, y, co.get(x, {})).items():
                    rhs[key] = rhs.get(key, ParamPoly()) - p * sgn
                diff = dict(lhs)
                for key, p in rhs.items():
                    diff[key] = diff.get(key, ParamPoly()) - p
                bad = {k: v for k, v in diff.items() if not v.is_zero()}
                if bad:
                    status = FAIL
                    key, v = next(iter(bad.items()))
                    residual = (f"cocycle({b.basis[x]},{b.basis[y]}): ({v!r})*"
                                + "(x)".join(b.basis[i] for i in key))
                    break
            if status == FAIL:
                break
    return VerificationReport(
        check="lie-cocycle", target=target, cutoffs={}, status=status,
        residual=residual, wall_time=t.elapsed)


def compare_bialgebras(b1: LieSuperBialgebra, b2: LieSuperBialgebra,
                       param_map=None) -> VerificationReport:
    """Structural equality up to a diagonal basis rescaling.

    param_map renames indeterminates of b2 before comparing (e.g. the dual
    parameter of one family against the deformation variable of another).
    """
    with Timer() as t:
        status, residual = PASS, None
        details = []
        if b1.basis != b2.basis or b1.parities != b2.parities:
            return VerificationReport(
                check="bialgebra-compare", target=f"{b1.name} vs {b2.name}",
                cutoffs={}, status=FAIL, residual="different bases",
                wall_time=t.elapsed)

        def rename(p: ParamPoly) -> ParamPoly:
            if not param_map:
                return p
            out = {}
            for key, q in p.terms.items():
                nk = tuple(sorted((param_map.get(nm, nm), e) for nm, e in key))
                out[nk] = out.get(nk, Fraction(0)) + q
            return ParamPoly({k: v for k, v in out.items() if v})

        # collect multiplicative constraints lambda_i lambda_j / lambda_k = r
        constraints = []
        n = len(b1.basis)
        for i in range(n):
            for j in range(n):
                v1 = b1.bracket_of(i, j)
                v2 = {k: rename(p) for k, p in b2.bracket_of(i, j).items()}
                for k in set(v1) | set(v2):
                    p1, p2 = v1.get(k), v2.get(k)
                    if p1 is None or p2 is None:
                        status = FAIL
                        residual = (f"bracket support differs at [{b1.basis[i]},"
                                    f"{b1.basis[j]}] -> {b1.basis[k]}")
                        break
                    ratio = p2.divide_exact(p1)
                    if ratio is None or not ratio.is_constant():
                        status = FAIL
                        residual = (f"bracket entry ratio not constant at "
                                    f"[{b1.basis[i]},{b1.basis[j]}] -> {b1.basis[k]}")
                        break
                    constraints.append(((i, j, k), ratio.constant))
                if status == FAIL:
                    break
            if status == FAIL:
                break
        if status == PASS:
            for i in range(n):
                v1 = b1.cobracket.get(i, {})
                v2 = {k: rename(p) for k, p in b2.cobracket.get(i, {}).items()}
                for key in set(v1) | set(v2):
                    p1, p2 = v1.get(key), v2.get(key)
                    if p1 is None or p2 is None:
                        status = FAIL
                        residual = f"cobracket support differs at delta({b1.basis[i]})"
                        break
                    ratio = p2.divide_exact(p1)
                    if ratio is None or not ratio.is_constant():
                        status = FAIL
                        residual = f"cobracket ratio not constant at delta({b1.basis[i]})"
                        break
                    constraints.append((("co", i) + key, ratio.constant))
                if status == FAIL:
                    break
        scaling = None
        if status == PASS:
            scaling = _solve_rescaling(constraints, n)
            if scaling is None:
                status = FAIL
                residual = "no diagonal rescaling satisfies all entry ratios"
            else:
                details.append("rescaling found: " + ", ".join(
                    f"{b1.basis[i]} -> {scaling[i]}*{b1.basis[i]}" for i in range(n)))
    return VerificationReport(
        check="bialgebra-compare", target=f"{b1.name} vs {b2.name}", cutoffs={},
        status=status, residual=residual, details=details, wall_time=t.elapsed)


def _factorize(q: Fraction):
    """(sign, {prime: exponent}) of a nonzero rational."""
    sign = 1 if q > 0 else -1
    out = {}
    for value, s in ((abs(q.numerator), 1), (q.denominator, -1)):
        d = 2
        while d * d <= value:
            while value % d == 0:
                out[d] = out.get(d, 0) + s
                value //= d
            d += 1
        if value > 1:
            out[value] = out.get(value, 0) + s
    return sign, {p: e for p, e in out.items() if e}


def _solve_rescaling(constraints, n):
    """lambda with prod_t lambda_t^{e_t} = r per constraint; rational solutions.

    Solved in prime-exponent space: each lambda_t is a sign times a product of
    prime powers, so the multiplicative system becomes a linear system over Q
    per prime plus a GF(2) system for the signs.  Free unknowns default to 1;
    fractional prime exponents mean no rational rescaling exists.
    """
    eqs = []
    primes = set()
    for key, r in constraints:
        if r == 0:
            return None
        exp = [0] * n
        if key[0] == "co":
            _, i, j, k = key
            exp[i] += 1
            exp[j] -= 1
            exp[k] -= 1
        else:
            i, j, k = key
            exp[i] += 1
            exp[j] += 1
            exp[k] -= 1
        sign, fac = _factorize(Fraction(r))
        primes |= set(fac)
        eqs.append((exp, sign, fac))
    primes = sorted(primes)
    # row reduce the exponent matrix once; carry all right-hand sides along
    rows = [list(map(Fraction, exp)) + [Fraction(fac.get(p, 0)) for p in primes]
            + [Fraction(0 if sign == 1 else 1)] for exp, sign, fac in eqs]
    ncols = n
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    # consistency: zero rows must have zero right-hand side (sign bit mod 2)
    for row in rows[r:]:
        if any(row[ncols:-1]) or (row[-1] % 2) != 0:
            return None
    # back out lambda: free unknowns = 1
    lam_exp = {c: [Fraction(0)] * len(primes) for c in range(n)}
    lam_sign = {c: 0 for c in range(n)}
    for i, c in enumerate(pivots):
        lam_exp[c] = rows[i][ncols:-1]
        sbit = rows[i][-1]
        if sbit.denominator != 1:
            return None
        lam_sign[c] = int(sbit) % 2
    lam = []
    for c in range(n):
        val = Fraction(1)
        for p, e in zip(primes, lam_exp[c]):
            if e.denominator != 1:
                return None
            val *= Fraction(p) ** int(e)
        lam.append(-val if lam_sign[c] else val)
    # final verification against every original constraint
    for exp, sign, fac in eqs:
        val = Fraction(1)
        for t in range(n):
            if exp[t]:
                val *= lam[t] ** exp[t]
        want = Fraction(1)
        for p, e in fac.items():
            want *= Fraction(p) ** e
        if val != (want if sign == 1 else -want):
            return None
    return lam
