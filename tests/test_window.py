"""The weight window: windowed products equal full products cut to degree <= D.

Each engine fixes a generator weight that rewriting and the coproduct never
lower.  ``tensor_mul(a, b, D)`` must then be exactly the window of the full
product, and every windowed result must agree with the full one after
``truncate_degree(D)``: same keys, same coefficients, same ``trunc``.
"""

import functools
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hopfforge.hopf import HopfOps
from hopfforge.pairing import _h_basis
from hopfforge.pbw import Cutoffs, Engine
from hopfforge.presentation import load_presentation, parse_presentation
from hopfforge.rmatrix import RMatrixContext, build_R
from hopfforge.scalars import Scalar, series_fn
from hopfforge.tensors import TensorElement, exp_tensor, tensor_mul, tensor_of

SHIPPED = ("ptsa_q", "brst_q", "brst_q_alpha2", "sd_reference", "sd_hp", "sd_line",
           "h0_point", "d0_variety", "h1_point", "d1_variety", "variety_3d", "newquant")
DOUBLES = ((4, 4), (5, 5))


@functools.cache
def double_context(cut) -> RMatrixContext:
    return RMatrixContext(*cut)


@functools.cache
def hopf_ops(name) -> HopfOps:
    """HopfOps of a shipped presentation at (N, W) = (3, 6), or of the R-matrix
    double at (D, N)."""
    if isinstance(name, tuple):
        return double_context(name).ops
    return HopfOps(Engine(load_presentation(name), Cutoffs(3, 6)))


def same(x, y) -> bool:
    """Identical keys, coefficients and trunc (Scalar == compares only the
    common known range)."""
    return x.terms.keys() == y.terms.keys() and all(
        x.terms[k].coeffs == y.terms[k].coeffs and x.terms[k].trunc == y.terms[k].trunc
        for k in x.terms)


@st.composite
def tensors(draw, engine, legs):
    """A few terms whose keys hold at most three letters in all, so that the
    products reach the low degrees a window keeps; coefficients c*h^k, some
    truncated."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        key = [[0] * engine.n for _ in range(legs)]
        for leg, i in draw(st.lists(st.tuples(st.integers(0, legs - 1),
                                              st.integers(0, engine.n - 1)), max_size=3)):
            key[leg][i] = 1 if engine.parities[i] else key[leg][i] + 1
        c = Scalar.from_fraction(F(draw(st.integers(-3, 3)) or 1, draw(st.integers(1, 3))))
        c = c * Scalar.h(draw(st.integers(0, 2)))
        terms[tuple(map(tuple, key))] = c.truncate(draw(st.sampled_from([None, 2, 3])))
    return TensorElement((engine,) * legs, terms)


ENGINES = pytest.mark.parametrize("name", SHIPPED + DOUBLES, ids=str)
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@ENGINES
@SETTINGS
@given(data=st.data())
def test_windowed_product_is_the_window_of_the_full_product(name, data):
    eng = hopf_ops(name).engine
    legs = data.draw(st.sampled_from([2, 3]))
    D = data.draw(st.integers(0, 4))
    a, b = data.draw(tensors(eng, legs)), data.draw(tensors(eng, legs))
    full = tensor_mul(a, b)
    windowed = tensor_mul(a, b, D)
    assert same(windowed, full.window(D))
    assert same(windowed.truncate_degree(D), full.truncate_degree(D))


@ENGINES
@SETTINGS
@given(data=st.data())
def test_windowed_coproduct_leg_is_exact(name, data):
    ops = hopf_ops(name)
    legs = data.draw(st.sampled_from([1, 2]))
    pos = data.draw(st.integers(0, legs - 1))
    D = data.draw(st.integers(0, 4))
    t = data.draw(tensors(ops.engine, legs))
    full = t.expand_leg(pos, ops.coproduct_mono).truncate_degree(D)
    windowed = t.window(D).expand_leg(pos, ops.coproduct_mono).truncate_degree(D)
    assert same(windowed, full)


def test_double_weight_prunes_the_coproduct_law_product():
    ctx = RMatrixContext(4, 4)
    eng = ctx.engine
    assert dict(zip(eng.gen_names, eng.weight)) == {"xi": 1, "tau": 0, "S": 0, "T": 1}
    R = build_R(ctx, "canonical")
    R13, R23 = R.insert_unit_leg(1, eng), R.insert_unit_leg(0, eng)
    full = tensor_mul(R13, R23)
    windowed = tensor_mul(R13, R23, ctx.degree)
    assert len(windowed.terms) < len(full.terms)
    assert same(windowed.truncate_degree(ctx.degree), full.truncate_degree(ctx.degree))


def auxiliary_exponents(ctx):
    """The 2-leg exponent T (x) tau of the closed form, and the 3-leg exponents X
    and Y and the published prefactor g of ``verify_auxiliary``."""
    eng = ctx.engine
    N = ctx.h_order
    T, tau, xi, one = eng.generator("T"), eng.generator("tau"), eng.generator("xi"), eng.one()
    h = Scalar.h()
    sinh_h = series_fn("sinh", h, order=N + 3)
    X = tensor_of(T, one, tau) + tensor_of(T, tau, one)
    Y = X + tensor_of(T, xi, xi).scale(h.truncate(N + 3).div(sinh_h).truncate(N))
    g = (eng.central_series("exp", h * 2, "T", order=N + 3) - one) \
        .scale(Scalar.one().div(sinh_h * 2))
    return tensor_of(T, tau), X, Y, g


@pytest.mark.parametrize("cut", DOUBLES, ids=str)
def test_windowed_exponential_is_the_window_of_the_full_exponential(cut):
    ctx = double_context(cut)
    two, X, Y, _ = auxiliary_exponents(ctx)
    for x in (two, X, Y):
        full = exp_tensor(x, ctx.d_int + 2)
        for D in range(ctx.degree + 1):
            windowed = exp_tensor(x, ctx.d_int + 2, D)
            assert same(windowed, full.window(D)), D
            assert len(windowed.terms) < len(full.terms)


@pytest.mark.parametrize("cut", DOUBLES, ids=str)
def test_windowed_auxiliary_difference_matches_the_full_one(cut):
    ctx = double_context(cut)
    eng = ctx.engine
    D, n = ctx.degree, ctx.d_int + 2
    _, X, Y, g = auxiliary_exponents(ctx)
    xi, unit = eng.generator("xi"), TensorElement.unit((eng,) * 3)
    E, rhs = exp_tensor(X, n), exp_tensor(Y, n)
    E_w, rhs_w = exp_tensor(X, n, D), exp_tensor(Y, n, D)
    # the published prefactor (the identity holds) and a wrong one (it fails)
    for prefactor in (g, g.scale(2)):
        one_plus = unit + tensor_of(prefactor, xi, xi)
        full = (rhs - tensor_mul(one_plus, E)).truncate_degree(D)
        windowed = (rhs_w - tensor_mul(one_plus, E_w, D)).truncate_degree(D)
        assert same(windowed, full)
    assert full.terms and not windowed.is_zero()


def test_universal_identity_lhs_is_one_windowed_product():
    # tensor_mul(1 (x) R, Psi(e_s), D) equals the sum of the products of its
    # one-term pieces, as verify_universal_identity once built it
    ctx = double_context((4, 4))
    D = ctx.degree
    r = ctx.canonical.window(D)
    eng = r.engines[0]
    one, legs = (0,) * eng.n, (eng,) * 3
    basis = _h_basis(ctx.dbl.H, 3)
    for mono in basis:
        emb = ctx.dbl.psi(mono).moved_to(legs)
        pieces = TensorElement(legs, {})
        for (r1, r2), rc in r.terms.items():
            pieces = pieces + tensor_mul(TensorElement(legs, {(one, r1, r2): rc}), emb, D)
        assert same(tensor_mul(r.insert_unit_leg(0, eng), emb, D), pieces), mono
    assert len(basis) == 7


ZERO_ONLY = """
name zero_only
[generators]
x even 1
y even 1
[relations]
[y,x] = 1
[coproduct]
x = x (x) 1 + 1 (x) x
y = y (x) 1 + 1 (x) y
[counit]
x = 0
y = 0
[antipode]
x = -x
y = -y
"""


def test_zero_weight_prunes_nothing():
    # [y,x] = 1 lowers any positive weight of the pair to 0
    eng = Engine(parse_presentation(ZERO_ONLY), Cutoffs(3, 6))
    assert eng.weight == (0, 0) and eng.weight_ratio == 0
    x, y, one = eng.generator("x"), eng.generator("y"), eng.one()
    a = tensor_of(x * x, y) + tensor_of(y, one)
    b = tensor_of(y * y, x * y) + tensor_of(x, x)
    assert same(a.window(0), a)
    assert same(tensor_mul(a, b, 0), tensor_mul(a, b))


RATIO = """
name ratio
[generators]
S odd 2
T even 3
[relations]
{S,S} = 2*T
[S,T] = 0
[coproduct]
S = S (x) 1 + 1 (x) S
T = T (x) 1 + 1 (x) T + h*S (x) S
[counit]
S = 0
T = 0
[antipode]
S = -S
T = -T
"""


def test_a_window_bound_that_is_not_an_integer():
    # {S,S} = 2*T and the h*S (x) S term of Delta(T) force w_T = 2*w_S, and
    # w_T <= d_T = 3, so the weight is (1, 2) and the ratio max(1/2, 2/3)
    eng = Engine(parse_presentation(RATIO), Cutoffs(3, 12))
    assert eng.weight == (1, 2) and eng.weight_ratio == F(2, 3)
    S, T, one = eng.generator("S"), eng.generator("T"), eng.one()
    a = tensor_of(S, one) + tensor_of(T, S).scale(Scalar.h()) + tensor_of(one, T) + tensor_of(S, S)
    b = tensor_of(S, T) + tensor_of(T * T, one) + tensor_of(one, S) + tensor_of(S, one)
    assert a.weight_bound(4) == 2
    full = tensor_mul(a, b)
    for D in range(6):
        assert a.weight_bound(D) == 2 * D // 3
        windowed = tensor_mul(a, b, D)
        assert same(windowed, full.window(D)), D
        assert list(windowed.terms) == list(full.window(D).terms), D
    assert len(tensor_mul(a, b, 0).terms) < len(tensor_mul(a, b, 5).terms) < len(full.terms)
