import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holocycle.geometry import (
    DifferentialForm,
    DimensionMismatchError,
    FlatTorus,
    InvalidInputError,
    TrigPolynomial,
    form_basis,
    frequency_modes,
    gram_volume,
)

T2 = FlatTorus(2)
T3 = FlatTorus(3)


def random_trig(rng, d, n_terms=3, cutoff=2):
    terms = {}
    for _ in range(n_terms):
        m = tuple(int(rng.integers(-cutoff, cutoff + 1)) for _ in range(d))
        terms[m] = (float(rng.normal()), float(rng.normal()))
    return TrigPolynomial(d, terms)


def random_form(rng, torus, degree, n_coeffs=2):
    import itertools
    idxs = list(itertools.combinations(range(torus.dim), degree))
    coeffs = {}
    for idx in rng.choice(len(idxs), size=min(n_coeffs, len(idxs)), replace=False):
        coeffs[idxs[idx]] = random_trig(rng, torus.dim)
    return DifferentialForm(torus, degree, coeffs)


# -- gram volumes -----------------------------------------------------

def test_gram_volume_orthonormal():
    assert gram_volume(np.array([[[1.0, 0], [0, 1]]]))[0] == pytest.approx(1.0)


def test_gram_volume_degenerate():
    assert gram_volume(np.array([[[1.0, 0], [2, 0]]]))[0] == pytest.approx(0.0, abs=1e-12)


def test_gram_volume_shear():
    assert gram_volume(np.array([[[1.0, 1, 0], [0, 1, 0]]]))[0] == pytest.approx(1.0)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_gram_volume_hadamard(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    d = int(rng.integers(n, 5))
    v = rng.normal(size=(1, n, d))
    vol = gram_volume(v)[0]
    assert vol <= np.prod(np.linalg.norm(v[0], axis=1)) + 1e-10


# -- dimension checks -------------------------------------------------

def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        gram_volume(np.eye(3)[:, :2])
    with pytest.raises(DimensionMismatchError):
        TrigPolynomial(2, {(1, 0, 0): (1.0, 0.0)})
    dx = DifferentialForm.monomial(T2, TrigPolynomial.constant(2, 1.0), (0,))
    dz = DifferentialForm.monomial(T3, TrigPolynomial.constant(3, 1.0), (2,))
    with pytest.raises(DimensionMismatchError):
        dx.wedge(dz)


# -- trig polynomial calculus ----------------------------------------

def test_trig_product_matches_pointwise():
    rng = np.random.default_rng(3)
    a = random_trig(rng, 2)
    b = random_trig(rng, 2)
    x = rng.random((64, 2))
    assert np.allclose((a * b)(x), a(x) * b(x), atol=1e-12)


def test_partial_derivative_exact():
    # d/dx2 of sin(2 pi x2) is 2 pi cos(2 pi x2)
    a = TrigPolynomial.mode(2, (0, 1), kind="sin")
    x = np.random.default_rng(0).random((32, 2))
    assert np.allclose(a.partial(1)(x), 2 * math.pi * np.cos(2 * math.pi * x[:, 1]))


def test_partial_matches_sympy_oracle():
    import sympy

    rng = np.random.default_rng(7)
    a = random_trig(rng, 2)
    x1, x2 = sympy.symbols("x1 x2")
    expr = 0
    for (m1, m2), (c, s) in a.terms.items():
        phase = 2 * sympy.pi * (m1 * x1 + m2 * x2)
        expr += c * sympy.cos(phase) + s * sympy.sin(phase)
    deriv = sympy.lambdify((x1, x2), sympy.diff(expr, x1), "numpy")
    pts = rng.random((40, 2))
    assert np.allclose(a.partial(0)(pts), deriv(pts[:, 0], pts[:, 1]), atol=1e-9)


def test_sup_bound_is_upper_bound():
    rng = np.random.default_rng(11)
    a = random_trig(rng, 2)
    x = rng.random((500, 2))
    assert np.max(np.abs(a(x))) <= a.sup_bound() + 1e-12


# -- differential forms ----------------------------------------------

def test_evaluate_volume_form():
    w = DifferentialForm(T2, 2, {(0, 1): TrigPolynomial.constant(2, 1.0)})
    x = np.array([[0.0, 0.0]])
    assert w.evaluate(x, np.array([[[1.0, 0], [0, 1]]]))[0] == pytest.approx(1.0)
    assert w.evaluate(x, np.array([[[0.0, 1], [1, 0]]]))[0] == pytest.approx(-1.0)


def test_evaluate_trig_coefficient():
    w = DifferentialForm(T2, 2, {(0, 1): TrigPolynomial.mode(2, (1, 0), kind="sin")})
    x = np.array([[0.25, 0.0]])
    assert w.evaluate(x, np.array([[[1.0, 0], [0, 1]]]))[0] == pytest.approx(1.0)


def test_exterior_derivative_derived_example():
    # d(sin(2 pi x2) dx1) = -2 pi cos(2 pi x2) dx1 ^ dx2
    w = DifferentialForm(T2, 1, {(0,): TrigPolynomial.mode(2, (0, 1), kind="sin")})
    dw = w.exterior_derivative()
    x = np.random.default_rng(0).random((32, 2))
    v = np.tile(np.eye(2), (32, 1, 1))
    assert np.allclose(dw.evaluate(x, v), -2 * math.pi * np.cos(2 * math.pi * x[:, 1]))


def test_exterior_derivative_top_degree_rejected():
    w = DifferentialForm(T2, 2, {(0, 1): TrigPolynomial.constant(2, 1.0)})
    with pytest.raises(InvalidInputError):
        w.exterior_derivative()


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_d_squared_zero_coefficient_exact(seed):
    rng = np.random.default_rng(seed)
    f = random_form(rng, T3, int(rng.integers(0, 2)))
    # mixed second partials agree only to rounding in the last bits, so the
    # coefficient residue floor is a few ulps of the (2 pi m)^2 scale
    assert f.exterior_derivative().exterior_derivative().is_zero(tol=1e-10)


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_leibniz_rule(seed):
    rng = np.random.default_rng(seed)
    w = random_form(rng, T3, 1)
    e = random_form(rng, T3, 1)
    lhs = w.wedge(e).exterior_derivative()
    rhs_a = w.exterior_derivative().wedge(e)
    rhs_b = w.wedge(e.exterior_derivative())
    x = rng.random((20, 3))
    v = rng.normal(size=(20, 3, 3))
    lv = lhs.evaluate(x, v)
    rv = rhs_a.evaluate(x, v) - rhs_b.evaluate(x, v)
    assert np.allclose(lv, rv, atol=1e-10)


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_alternating_evaluation(seed):
    rng = np.random.default_rng(seed)
    w = random_form(rng, T3, 2)
    x = rng.random((10, 3))
    v = rng.normal(size=(10, 3, 3))
    vswap = v.copy()
    vswap[:, [0, 1]] = vswap[:, [1, 0]]
    assert np.allclose(w.evaluate(x, v), -w.evaluate(x, vswap), atol=1e-10)


def test_wedge_self_constant_one_form_vanishes():
    w = DifferentialForm(T2, 1, {(0,): TrigPolynomial.constant(2, 1.0),
                                 (1,): TrigPolynomial.constant(2, 0.5)})
    assert w.wedge(w).is_zero()


def test_wedge_derived_example():
    w1 = DifferentialForm(T2, 1, {(0,): TrigPolynomial.mode(2, (1, 0), kind="sin")})
    w2 = DifferentialForm(T2, 1, {(1,): TrigPolynomial.constant(2, 1.0)})
    ww = w1.wedge(w2)
    x = np.array([[0.25, 0.0]])
    assert ww.evaluate(x, np.array([[[1.0, 0], [0, 1]]]))[0] == pytest.approx(1.0)


def test_wedge_degree_overflow_rejected():
    w = DifferentialForm(T2, 2, {(0, 1): TrigPolynomial.constant(2, 1.0)})
    e = DifferentialForm(T2, 1, {(0,): TrigPolynomial.constant(2, 1.0)})
    with pytest.raises(InvalidInputError):
        w.wedge(e)


# -- form basis -------------------------------------------------------

def test_form_basis_counts():
    assert len(form_basis(T2, 0, 0)) == 1
    assert len(form_basis(T2, 1, 0)) == 2
    # m in {-1,0,1}^2 with first-nonzero-positive canonicalization gives 4
    # nonzero modes + zero mode = 5 cos functions and 4 sin functions, so
    # 9 coefficient functions and 9 * 2 index choices = 18 one-forms.
    assert len(frequency_modes(2, 1)) == 9
    assert len(form_basis(T2, 1, 1)) == 18


def test_form_basis_enumeration_oracle():
    # brute-force dedup of {cos, sin}(2 pi m . x) over |m|_inf <= 1 by value
    rng = np.random.default_rng(5)
    x = rng.random((40, 2))
    seen = []
    for m1 in (-1, 0, 1):
        for m2 in (-1, 0, 1):
            for kind in ("cos", "sin"):
                phase = 2 * math.pi * (m1 * x[:, 0] + m2 * x[:, 1])
                vals = np.cos(phase) if kind == "cos" else np.sin(phase)
                if not any(np.allclose(vals, s) or np.allclose(vals, -s) for s in seen):
                    if not np.allclose(vals, 0):
                        seen.append(vals)
    assert len(form_basis(T2, 1, 1)) == 2 * len(seen)


def test_form_basis_deterministic():
    a = form_basis(T3, 1, 2)
    b = form_basis(T3, 1, 2)
    assert [(f.degree, f.coeffs) for f in a] == [(f.degree, f.coeffs) for f in b]
