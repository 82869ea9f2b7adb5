"""The Drinfeld superdouble of the proper-time/BRST dual pair.

Cross multiplication x*f (x in the algebra H, f in the dual K) is computed two
independent ways:

* contraction route: build the 3-leg tensors Phi(f) = (id (x) flip) Delta^2_K(f)
  and Psi(x) = (flip (x) id)(id (x) flip)(id (x) id (x) S^-1) Delta^2_H(x), pair
  leg 1 with leg 1 and leg 2 with leg 2, multiply the third legs (dual letter
  left), and apply the global sign (-1)^{|x||f|};

* structure-constant route: the explicit quintuple sum with coefficient arrays
  extracted from the iterated coproducts, the antipode-inverse matrix, the sign
  (-1)^{sigma_n(sigma_l+sigma_k) + sigma_u sigma_k + sigma_s sigma_t}, and all
  index contractions running through the pairing Gram matrix, each contracted
  once: the k contraction once per (term of x, index k), the S^-1 contraction
  of the n index once per (j, n).

``double_presentation`` is the double's presentation: both halves, with the
published double's (sd_reference's) relations for the four cross pairs.  Each
Double builds it and takes the shared engine on it (``shared_engine``): the
cross products (normal ordered, dual letters left), the reconstruction, its
Hopf axiom check and the R-matrix context all use that engine.
``derive_double_presentation`` certifies it: both routes must agree term by
term on each cross bracket, each derived bracket must equal the presentation's
graded commutator, the presentation must pass the Hopf axiom suite, and its
coproducts and antipodes must be the published ones.

Both routes, and Psi, Phi and the raw iterated coproducts that they read, take
basis monomials (exponent tuples) of H and of K, as the structure constants
are defined on basis elements.  Each 3-leg tensor is built once per (kind,
monomial) and kept on the Double: the route check draws its pairs from a few
basis monomials, and the generator brackets, which sum a route over the
generators' monomials, reuse the generators.  The kept tensors are shared and
never mutated.  A pairing value that is a zero known to h^N is skipped, N the
double's h-order: every other factor of a route's sum is pole-free.
"""

from __future__ import annotations

import random

from .hopf import differences, first_residual, verify_hopf
from .pairing import Pairing, _h_basis, standard_pair
from .pbw import Cutoffs, Engine, PbwElement, _droppable, shared_engine
from .presentation import HopfPresentation, load_presentation, validate
from .report import PASS, VerificationReport
from .scalars import Scalar
from .shared import Memo
from .tensors import TensorElement, evaluate_tensor, tensor_mul, tensor_of

__all__ = ["Double", "double_presentation", "derive_double_presentation",
           "verify_universal_identity"]


class Double:
    """Cross-multiplication machinery over a calibrated pairing.  The tensors
    and both routes take basis monomials (exponent tuples) of H and of K."""

    def __init__(self, pairing: Pairing):
        self.pairing = pairing
        self.H, self.K = pairing.H, pairing.K
        self.h_ops, self.k_ops = pairing.h_ops, pairing.k_ops
        self.cutoffs = Cutoffs(min(self.H.cutoffs.h_order, self.K.cutoffs.h_order),
                               min(self.H.cutoffs.word_degree, self.K.cutoffs.word_degree))
        # cross products are written in this engine as normal-ordered words
        # (dual letters left), which its cross relations leave as they are
        self.presentation = double_presentation(self)
        self.engine = shared_engine(self.presentation, self.cutoffs)
        self._tensors = Memo(self._build)  # {(kind, monomial): 3-leg tensor}

    # -- the 3-leg tensors ----------------------------------------------------------
    def _build(self, key) -> TensorElement:
        """The tensor of key = (kind, monomial), kind "delta2_h", "delta2_k",
        "phi" or "psi" (see the methods of those names below)."""
        kind, m = key
        if kind == "delta2_h":
            return self.h_ops.iterated_coproduct(PbwElement(self.H, {m: Scalar.one()}), "left")
        if kind == "delta2_k":
            return self.k_ops.iterated_coproduct(PbwElement(self.K, {m: Scalar.one()}), "left")
        if kind == "phi":
            return self.iterated_dual(m).flip_adjacent(1)
        three = self.iterated_primal(m).apply_leg(2, self.h_ops.antipode_inverse_mono)
        return three.flip_adjacent(1).flip_adjacent(0)

    def iterated_primal(self, mh) -> TensorElement:
        """(Delta_H (x) id) Delta_H of the monomial mh of H."""
        return self._tensors["delta2_h", mh]

    def iterated_dual(self, mk) -> TensorElement:
        """(Delta_K (x) id) Delta_K of the monomial mk of K."""
        return self._tensors["delta2_k", mk]

    def phi(self, mk) -> TensorElement:
        """(id (x) graded flip) of the iterated dual coproduct."""
        return self._tensors["phi", mk]

    def psi(self, mh) -> TensorElement:
        """Leg-3 antipode inverse, then legs 2,3 and 1,2 graded flips."""
        return self._tensors["psi", mh]

    def _signed(self, acc: dict, mh, mk) -> PbwElement:
        """The accumulated x*f times the global sign (-1)^{|x||f|}."""
        out = PbwElement(self.engine, {m: c for m, c in acc.items() if not c.is_zero()})
        odd = self.H.monomial_parity(mh) and self.K.monomial_parity(mk)
        return out.scale(-1 if odd else 1)

    # -- route 1: contraction ------------------------------------------------------
    def cross_product(self, mh, mk) -> PbwElement:
        """x*f for the basis monomials x = mh of H and f = mk of K."""
        N = self.cutoffs.h_order
        # Phi's terms by their first leg, so each <k1, l1> is read once per Psi term
        phi_by_l1: dict = {}
        for (l1, l2, l3), cphi in self.phi(mk).terms.items():
            phi_by_l1.setdefault(l1, []).append((l2, l3, cphi))
        acc: dict = {}
        for (k1, k2, k3), cpsi in self.psi(mh).terms.items():
            for l1, rest in phi_by_l1.items():
                v1 = self.pairing.pair_mono(k1, l1)
                if _droppable(v1, N):
                    continue
                for l2, l3, cphi in rest:
                    v2 = self.pairing.pair_mono(k2, l2)
                    if _droppable(v2, N):
                        continue
                    coeff = (cpsi * cphi * v1 * v2).truncate(N)
                    mono = l3 + k3
                    prev = acc.get(mono)
                    acc[mono] = coeff if prev is None else prev + coeff
        return self._signed(acc, mh, mk)

    # -- route 2: explicit structure-constant sum ------------------------------------
    def cross_product_via_structure_constants(self, mh, mk) -> PbwElement:
        """x*f for the basis monomials x = mh of H and f = mk of K.  Each index
        is contracted once: f's terms are grouped by their k index, so each
        <e_k, e^k'> is read once per term of x's, and each S^-1 contraction
        sum_j' A^j'_j <e_j', e^n> is formed once per (j, n)."""
        H, K = self.H, self.K
        N = self.cutoffs.h_order
        pair = self.pairing.pair_mono
        # m^t_{nuk}: raw iterated coproduct of f over K, by its k index
        groups: dict = {}
        for (n_k, u_k, k_k), c_m in self.iterated_dual(mk).terms.items():
            groups.setdefault(k_k, []).append(
                (n_k, u_k, c_m, K.monomial_parity(n_k), K.monomial_parity(u_k)))
        by_k = [(k_k, K.monomial_parity(k_k), terms) for k_k, terms in groups.items()]
        # {(j, n): the S^-1 contraction, or None when skipped}
        s_inv = Memo(lambda key: self._contract_s_inv(*key))
        acc: dict = {}
        # mu_s^{klj}: raw iterated coproduct of x over H
        for (k_h, l_h, j_h), c_mu in self.iterated_primal(mh).terms.items():
            pl = H.monomial_parity(l_h)
            for k_k, pk, terms in by_k:
                # contract k: <e_{k_h}, e^{k_k}>
                gk = pair(k_h, k_k)
                if _droppable(gk, N):
                    continue
                for n_k, u_k, c_m, pn, pu in terms:
                    gn = s_inv[j_h, n_k]
                    if gn is None:
                        continue
                    coeff = (c_mu * c_m * gk * gn).truncate(N)
                    if (pn * (pl + pk) + pu * pk) % 2:
                        coeff = -coeff
                    mono = u_k + l_h
                    prev = acc.get(mono)
                    acc[mono] = coeff if prev is None else prev + coeff
        return self._signed(acc, mh, mk)

    def _contract_s_inv(self, j_h, n_k):
        """Contract n with the antipode-inverse matrix on the j index, S^-1 e_j:
        sum_{j'} A^{j'}_j <e_{j'}, e^{n_k}>, or None when that is a zero known
        to h^N."""
        N = self.cutoffs.h_order
        gn = Scalar.zero(N)
        for jp, a in self.h_ops.antipode_inverse_mono(j_h).terms.items():
            v = self.pairing.pair_mono(jp, n_k)
            if not _droppable(v, N):
                gn = gn + (a * v).truncate(N)
        return None if _droppable(gn, N) else gn

    # -- generator-level relations ------------------------------------------------
    def cross_bracket(self, hgen: str, kgen: str, route: str = "contraction") -> PbwElement:
        """x*f -+ f*x as an element of the double (the derived bracket rhs).  The
        route's x*f is summed over the monomials of the two generators, so a
        generator that the cutoff prunes gives zero."""
        x = self.H.generator(hgen)
        f = self.K.generator(kgen)
        cross = (self.cross_product if route == "contraction"
                 else self.cross_product_via_structure_constants)
        xf = self.engine.zero()
        for mh in x.terms:
            for mk in f.terms:
                xf = xf + cross(mh, mk)
        ph = self.H.presentation.parity(hgen)
        pk = self.K.presentation.parity(kgen)
        sign = -1 if (ph and pk) else 1
        fx = self.engine.multiply(
            f.moved_to(self.engine), x.moved_to(self.engine))  # already normal ordered
        return xf - fx.scale(sign)


# the cross pairs (algebra generator, dual generator), in the order they are
# derived, reported and emitted
CROSS_PAIRS = (("T", "tau"), ("T", "xi"), ("S", "tau"), ("S", "xi"))


def double_presentation(dbl: Double) -> HopfPresentation:
    """The presentation of the double: dual generators first, then algebra
    generators; both halves' relations and structure maps, and sd_reference's
    own relation for each cross pair that it declares."""
    k, h = dbl.K.presentation, dbl.H.presentation
    reference = load_presentation("sd_reference")
    cross = [reference.bracket(hg, kg) for hg, kg in CROSS_PAIRS]
    return validate(HopfPresentation(
        name="sd_derived",
        params=tuple(dict.fromkeys(k.params + h.params)),
        generators=tuple(k.generators) + tuple(h.generators),
        relations=tuple(k.relations) + tuple(h.relations)
        + tuple(rel for rel in cross if rel is not None),
        coproduct=tuple(k.coproduct) + tuple(h.coproduct),
        counit=tuple(k.counit) + tuple(h.counit),
        antipode=tuple(k.antipode) + tuple(h.antipode),
    ))


def derive_double_presentation(cutoffs: Cutoffs = Cutoffs()):
    """Derive the cross brackets both ways and certify the double's presentation
    against them and against the published double.

    Returns (the presentation, or None when a step fails; VerificationReport; Double).
    """
    with VerificationReport.timed("double-reconstruction", "SD(ptsa_q, brst_q_alpha2)",
                                  cutoffs.as_dict()) as rep:
        dbl = Double(standard_pair(cutoffs, alpha2=True))
        derived = dbl.presentation
        for diffs, passed in _reconstruction_steps(dbl):
            if diffs:
                rep.fail(diffs[0])
                rep.details += diffs
                derived = None
                break
            rep.details += passed
        # the dual-subalgebra normalization difference is a finding, not a failure
        rep.details.append("finding: published [tau,xi] = (h/2)*xi is the alpha=1 scaling; "
                           "the pairing-consistent double carries [tau,xi] = h*xi (alpha=2)")
    return derived, rep, dbl


def _reconstruction_steps(dbl: Double):
    """Each step as (differences, details when there are none), computed only
    when the steps before it have passed."""
    derived, d_eng = dbl.presentation, dbl.engine
    labels = {(hg, kg): "{%s,%s}" % (hg, kg)
              if derived.parity(hg) and derived.parity(kg) else f"[{hg},{kg}]"
              for hg, kg in CROSS_PAIRS}
    contraction = {label: dbl.cross_bracket(hg, kg, "contraction")
                   for (hg, kg), label in labels.items()}
    via_constants = {label: dbl.cross_bracket(hg, kg, "structure-constants")
                     for (hg, kg), label in labels.items()}
    yield (differences(via_constants, contraction, "differs between the routes"),
           ["contraction and structure-constant routes agree on all generator pairs"])
    published = {label: d_eng.graded_commutator(hg, kg) for (hg, kg), label in labels.items()}
    yield (differences(contraction, published, "differs from the published double"),
           [f"derived {label} matches the published double" for label in labels.values()])
    hopf_rep = verify_hopf(derived, dbl.cutoffs)
    yield ([] if hopf_rep.status == PASS else
           [f"derived double fails Hopf axioms: {hopf_rep.residual}"],
           ["derived double passes the full Hopf axiom suite"])
    reference = load_presentation("sd_reference")
    yield (differences(_coproducts_and_antipodes(d_eng, derived),
                       _coproducts_and_antipodes(d_eng, reference), "differs from reference"),
           ["coproducts and antipodes match the published double"])


def _coproducts_and_antipodes(eng: Engine, pres: HopfPresentation) -> dict:
    """Each generator's coproduct and antipode as ``pres`` writes them,
    evaluated in ``eng``."""
    out = {}
    for g in eng.gen_names:
        out[f"coproduct of {g}"] = evaluate_tensor(eng, pres.structure_map("coproduct", g), 2)
        out[f"antipode of {g}"] = eng.evaluate(pres.structure_map("antipode", g))
    return out


def verify_route_equivalence(dbl: Double, count: int = 20, max_degree: int = 3,
                             seed: int = 0) -> VerificationReport:
    """Contraction route versus structure-constant route on random pairs."""
    rng = random.Random(seed)
    hb, kb = _h_basis(dbl.H, max_degree), _h_basis(dbl.K, max_degree)
    with VerificationReport.timed(
            "double-route-equivalence",
            f"{count} random pairs of degree <= {max_degree} (seed {seed})",
            dbl.cutoffs.as_dict()) as rep:
        for _ in range(count):
            mh, mk = rng.choice(hb), rng.choice(kb)
            d = dbl.cross_product(mh, mk) - dbl.cross_product_via_structure_constants(mh, mk)
            if not d.is_zero():
                rep.fail(f"routes disagree at ({dbl.H.monomial_str(mh)}, "
                         f"{dbl.K.monomial_str(mk)}): {d!r}")
                break
    return rep


def verify_universal_identity(dbl: Double, r_matrix: TensorElement, max_degree: int = 3, *,
                              compare_degree: int) -> VerificationReport:
    """(m (x) id)[(1 (x) R1 (x) R2) Psi(e_s)] = (1 (x) e_s) R for basis e_s,
    computed in R's engine, whose cutoffs the report states, and compared at
    tensor degree <= compare_degree."""
    d_eng = r_matrix.engines[0]
    with VerificationReport.timed("universal-identity",
                                  f"basis elements of degree <= {max_degree}",
                                  {**d_eng.cutoffs.as_dict(), "D": max_degree}) as rep:
        D = compare_degree
        # products of windowed factors are exact at degree <= D, and so is
        # the multiplication of legs, which never lowers weight either
        r_matrix = r_matrix.window(D)
        checked = 0
        r13 = r_matrix.insert_unit_leg(0, d_eng)  # 1 (x) R1 (x) R2
        for mono in _h_basis(dbl.H, max_degree):
            # Psi over H, embedded into the double
            emb = dbl.psi(mono).moved_to((d_eng,) * 3)
            lhs = tensor_mul(r13, emb, D).multiply_legs(0)
            x_d = PbwElement(dbl.H, {mono: Scalar.one()}).moved_to(d_eng)
            rhs_t = tensor_mul(tensor_of(d_eng.one(), x_d), r_matrix, D)
            diff = (lhs - rhs_t).truncate_degree(D)
            checked += 1
            if not diff.is_zero():
                rep.fail(f"universal identity fails on {dbl.H.monomial_str(mono)}: "
                         f"{first_residual(diff)}")
                break
        rep.details.append(f"{checked} basis elements checked")
    return rep
