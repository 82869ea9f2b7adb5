"""The universal element of the double and its quasi-triangularity checks.

Two builds are available: the published closed form (1 (x) 1 + S (x) xi) e^{T (x) tau}
("closed-form"), and the canonical element computed from the pairing by solving
for the dual basis degree by degree ("canonical").  The canonical build needs no closed-form input; it
comes out as (1 (x) 1 + S e^{hT/2} (x) xi) e^{T (x) tau}, which differs from the
published form by the e^{hT/2} factor.  Every check reports which build it ran
on, and failures carry the first residual term.
"""

from __future__ import annotations

from functools import cached_property

from .double import Double
from .hopf import first_residual, shared_ops
from .pairing import _h_basis, standard_pair
from .pbw import Cutoffs, PbwElement
from .report import VerificationReport
from .scalars import Scalar, gauss_jordan, series_fn
from .tensors import TensorElement, exp_tensor, tensor_mul, tensor_of

__all__ = ["RMatrixContext", "build_R", "verify_intertwining",
           "verify_coproduct_laws", "verify_auxiliary", "check_triangularity"]


class RMatrixContext:
    """The double's engine plus pairing data at R-matrix cutoffs.

    The engine is the Double's, on ``double_presentation`` built directly: the
    reconstruction that certifies it (``derive_double_presentation``, run by
    ``build double``) is not repeated here, and a wrong double shows in the
    R-matrix checks themselves.

    The canonical R and ``audit_context``, the context at (D+1, N+1), are
    built on first use and kept here, so the checks of one command and their
    re-runs at bumped cutoffs share them, and they go when the context goes.
    The engines, HopfOps and pairing under a context are the process's shared
    ones (``shared``): they stay after it, for the next context at the same
    cutoffs.
    """

    def __init__(self, degree: int, h_order: int):
        self.degree = degree
        self.h_order = h_order
        # internal expansion order: the element is complete in the quotient by
        # central degree > D_int, so identities hold exactly there
        self.d_int = degree + h_order + 2
        cut = Cutoffs(h_order, self.d_int)
        self.dbl = Double(standard_pair(cut))
        self.engine = self.dbl.engine
        self.ops = shared_ops(self.engine)

    @cached_property
    def canonical(self) -> TensorElement:
        """The canonical R; the checks read it and never mutate it."""
        return _canonical_element(self)

    @cached_property
    def audit_context(self) -> "RMatrixContext":
        """The context at (D+1, N+1) that checks re-run in at bumped cutoffs."""
        return RMatrixContext(self.degree + 1, self.h_order + 1)

    @property
    def report_cutoffs(self) -> dict:
        """The cutoffs as an R-matrix report states them."""
        return {"D": self.degree, "N": self.h_order, "D_int": self.d_int}


def build_R(ctx: RMatrixContext, variant: str = "closed-form") -> TensorElement:
    """The universal element, to the context's internal expansion order."""
    eng = ctx.engine
    if variant == "closed-form":
        E = exp_tensor(tensor_of(eng.generator("T"), eng.generator("tau")), ctx.d_int)
        S_xi = tensor_of(eng.generator("S"), eng.generator("xi"))
        return tensor_mul(TensorElement.unit((eng, eng)) + S_xi, E)
    if variant == "canonical":
        return ctx.canonical
    raise ValueError(f"unknown R variant {variant!r}")


def _canonical_element(ctx: RMatrixContext) -> TensorElement:
    """sum_s e_s (x) e^s from the pairing, by inverting the Gram matrix."""
    dbl = ctx.dbl
    H, K = dbl.H, dbl.K
    pair = dbl.pairing
    out = TensorElement((ctx.engine, ctx.engine), {})
    for par in (0, 1):
        # _h_basis is in (degree, monomial) order, and so is each parity's part
        rows = [m for m in _h_basis(H, ctx.d_int) if H.monomial_parity(m) == par]
        cols = [m for m in _h_basis(K, ctx.d_int) if K.monomial_parity(m) == par]
        if len(rows) != len(cols):
            raise RuntimeError("canonical element: pairing blocks are not square")
        # [G | 1] reduces to [1 | G^-1]
        n = len(rows)
        A = [[pair.pair_mono(r, c) for c in cols]
             + [Scalar.one() if i == j else Scalar.zero() for j in range(n)]
             for i, r in enumerate(rows)]
        if gauss_jordan(A, ctx.h_order) != list(range(n)):
            raise RuntimeError("canonical element: Gram pivot not invertible")
        for k, mh in enumerate(rows):
            dual = PbwElement(K, {mk: A[j][n + k] for j, mk in enumerate(cols)
                                  if not A[j][n + k].is_zero()})
            out = out + tensor_of(PbwElement(H, {mh: Scalar.one()}).moved_to(ctx.engine),
                                  dual.moved_to(ctx.engine))
    return out


def verify_intertwining(ctx: RMatrixContext, R: TensorElement,
                        variant: str) -> VerificationReport:
    """R Delta(x) = Delta^op(x) R for every generator."""
    with VerificationReport.timed(f"rmatrix-intertwining[{variant}]", "all four generators",
                                  ctx.report_cutoffs) as rep:
        D = ctx.degree
        for name in ctx.engine.gen_names:
            g = ctx.engine.generator(name)
            two = ctx.ops.coproduct(g)
            # residuals are read at total degree <= D, where the windowed
            # products are exact
            diff = (tensor_mul(R, two, D) - tensor_mul(two.flip_adjacent(0), R, D)) \
                .truncate_degree(D)
            if not diff.is_zero():
                rep.fail(f"on {name}: {first_residual(diff)}")
                return rep
            rep.details.append(f"intertwines the coproduct of {name}")
    return rep


def verify_coproduct_laws(ctx: RMatrixContext, R: TensorElement,
                          variant: str) -> VerificationReport:
    """(Delta (x) id) R = R13 R23 and (id (x) Delta) R = R13 R12."""
    with VerificationReport.timed(f"rmatrix-coproduct-laws[{variant}]", "both coproduct laws",
                                  ctx.report_cutoffs) as rep:
        eng = ctx.engine
        D = ctx.degree
        # the engine's weight is one the coproduct never lowers either, so a
        # key of R outside the window reaches no term of degree <= D
        R = R.window(D)
        R13 = R.insert_unit_leg(1, eng)
        R23 = R.insert_unit_leg(0, eng)
        R12 = R.insert_unit_leg(2, eng)
        for leg, lhs, rhs, other in ((0, "(Delta (x) id) R", "R13 R23", R23),
                                     (1, "(id (x) Delta) R", "R13 R12", R12)):
            expanded = R.expand_leg(leg, ctx.ops.coproduct_mono)
            diff = (expanded - tensor_mul(R13, other, D)).truncate_degree(D)
            if not diff.is_zero():
                rep.fail(f"{lhs} - {rhs}: {first_residual(diff)}")
                return rep
            rep.details.append(f"{lhs} = {rhs}")
    return rep


def verify_auxiliary(ctx: RMatrixContext) -> VerificationReport:
    """The 3-leg exponential rearrangement identity behind the coproduct law.

    lhs = (1 + g(T) (x) xi (x) xi) exp(T (x) 1 (x) tau + T (x) tau (x) 1) with the
    published prefactor g = (e^{2hT} - 1)/(e^h - e^{-h}); rhs is the exponential
    with the extra (h/sinh h) T (x) xi (x) xi term.  On mismatch the corrected
    prefactor series is solved for and reported.
    """
    with VerificationReport.timed("rmatrix-auxiliary-identity",
                                  "3-leg exponential rearrangement",
                                  ctx.report_cutoffs) as rep:
        eng = ctx.engine
        N = ctx.h_order
        T = eng.generator("T")
        tau, xi, one = eng.generator("tau"), eng.generator("xi"), eng.one()
        h = Scalar.h()
        sinh_h = series_fn("sinh", h, order=N + 3)
        gamma = h.truncate(N + 3).div(sinh_h)

        X = tensor_of(T, one, tau) + tensor_of(T, tau, one)
        # the comparison lives at total degree <= D, and windowed products and
        # exponentials are exact there
        D = ctx.degree
        E = exp_tensor(X, ctx.d_int + 2, D)
        g_elem = (eng.central_series("exp", h * 2, "T", order=N + 3) - eng.one()) \
            .scale(Scalar.one().div(sinh_h * 2))
        lhs = tensor_mul(TensorElement.unit((eng,) * 3) + tensor_of(g_elem, xi, xi), E, D)
        Y = X + tensor_of(T, xi, xi).scale(gamma.truncate(N))
        rhs = exp_tensor(Y, ctx.d_int + 2, D)
        diff = (rhs - lhs).truncate_degree(D)
        if diff.is_zero():
            rep.details.append("published prefactor (e^{2hT}-1)/(e^h-e^{-h}) confirmed "
                               "exactly under the alpha=2 scaling")
        else:
            rep.fail(first_residual(diff))
            corrected = _solve_prefactor(ctx, exp_tensor(Y, ctx.d_int + 2))
            rep.details.append(f"published prefactor fails; corrected prefactor: {corrected}")
    return rep


def _solve_prefactor(ctx: RMatrixContext, rhs: TensorElement):
    """g with rhs = (1 + g (x) xi (x) xi) E, E = exp(T (x) 1 (x) tau + T (x) tau (x) 1);
    returns the series string."""
    eng = ctx.engine
    Einv = exp_tensor(_neg_exponent(ctx), ctx.d_int + 2)
    prod = tensor_mul(rhs, Einv) - TensorElement.unit((eng,) * 3)
    # expect support on (T^k, xi, xi) only
    ixi = eng.presentation.gen_index("xi")
    xi_mono = tuple(1 if i == ixi else 0 for i in range(eng.n))
    terms = {m1: c for (m1, m2, m3), c in prod.terms.items() if m2 == m3 == xi_mono}
    stray = prod._new({k: c for k, c in prod.terms.items() if not k[1] == k[2] == xi_mono})
    if not stray.is_zero():
        return f"(no pure prefactor: stray term {first_residual(stray)})"
    return repr(PbwElement(eng, terms))


def _neg_exponent(ctx: RMatrixContext) -> TensorElement:
    eng = ctx.engine
    T, tau, one = eng.generator("T"), eng.generator("tau"), eng.one()
    return (tensor_of(T, one, tau) + tensor_of(T, tau, one)).scale(-1)


def check_triangularity(ctx: RMatrixContext, R: TensorElement, variant: str) -> VerificationReport:
    """R21 R versus 1 (x) 1, and R^-1 versus R21; records both readings."""
    with VerificationReport.timed(f"rmatrix-triangularity[{variant}]",
                                  "triangularity readings", ctx.report_cutoffs) as rep:
        eng = ctx.engine
        D = ctx.degree
        unit = TensorElement.unit((eng, eng))
        # comparisons live at total degree <= D, and windowed products are
        # exact there
        R = R.window(D)
        R21 = R.flip_adjacent(0)
        prod = tensor_mul(R21, R, D)
        triangular = (prod - unit).truncate_degree(D).is_zero()
        Rinv = _invert(R, unit, D)
        inv_is_r21 = (Rinv - R21).truncate_degree(D).is_zero()
        rep.details += [
            f"R21 R == 1 (x) 1: {triangular}",
            f"R^-1 == R21: {inv_is_r21}",
            f"R R^-1 == 1 (x) 1: "
            f"{(tensor_mul(R, Rinv, D) - unit).truncate_degree(D).is_zero()}",
        ]
        if not triangular:
            rep.fail(f"R21 R - 1: {first_residual((prod - unit).truncate_degree(D))}")
    return rep


def _invert(R: TensorElement, unit: TensorElement, max_degree: int) -> TensorElement:
    """R^-1 in the window of max_degree, as the Neumann series sum_k (-Y)^k
    with Y = R - 1.  Every term of Y must weigh at least 1 or carry a factor
    h: then each factor of (-Y)^k raises the weight or the h-order, the
    series leaves the window after finitely many terms, and the windowed sum
    is exact."""
    Y = (R - unit).window(max_degree)
    if any(Y.weight_of_key(k) < 1 and c.valuation() < 1 for k, c in Y.terms.items()):
        raise RuntimeError("R - 1 has an h-free term of weight 0: "
                           "its Neumann series does not terminate")
    out = unit
    power = unit
    while True:
        power = tensor_mul(power, Y, max_degree).scale(-1)
        if power.is_zero():
            return out
        out = out + power
