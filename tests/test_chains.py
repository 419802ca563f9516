import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holocycle.geometry import DifferentialForm, FlatTorus, InvalidInputError, TrigPolynomial
from holocycle.chains import (
    AffineMap,
    Box,
    Cell,
    Chain,
    ClippedBox,
    ExprMap,
    SimplexDomain,
    boundary,
    cell_measure,
    chain_from_dict,
    chain_measure,
    chain_to_dict,
    clip_polygon_halfspace,
    is_cycle,
    polygon_area,
    reparameterize_mass_matched,
)

T2 = FlatTorus(2)


def random_one_form(rng):
    def trig(cut=1):
        terms = {}
        for _ in range(2):
            m = tuple(int(rng.integers(-cut, cut + 1)) for _ in range(2))
            terms[m] = (float(rng.normal()), float(rng.normal()))
        return TrigPolynomial(2, terms)
    return DifferentialForm(T2, 1, {(0,): trig(), (1,): trig()})


# -- quadrature and measures -----------------------------------------

def test_cell_measure_constant_derivative():
    c = Cell(T2, Box((0.0,), (1.0,)), AffineMap([0, 0], [[1.0, 0.7]]), 40)
    mu = cell_measure(c)
    assert mu.total_mass() == pytest.approx(1.0)
    assert np.allclose(mu.v.reshape(-1, 2), [1.0, 0.7])


def test_cell_measure_mass_is_volume_times_gram():
    V = np.array([[1.0, 0.2], [0.1, 1.0]])
    c = Cell(T2, Box((0.0, 0.0), (0.5, 0.4)), AffineMap([0, 0], V), 10)
    mu = cell_measure(c)
    from holocycle.geometry import gram_volume

    vol = gram_volume(V[None])[0]
    assert mu.mass() == pytest.approx(0.2 * vol)


def test_cell_measure_clipped_triangle_exact_area():
    dom = ClippedBox(Box((0.0, 0.0), (1.0, 1.0)), (((1.0, 1.0), 1.0),))
    c = Cell(T2, dom, AffineMap([0, 0], 0.3 * np.eye(2)), 16)
    assert cell_measure(c).total_mass() == pytest.approx(0.5, abs=1e-12)


def test_chain_measure_linearity_and_cancellation():
    c = Cell(T2, Box((0.0,), (1.0,)), AffineMap([0, 0], [[1.0, 0.0]]), 20)
    w = random_one_form(np.random.default_rng(0))
    double = chain_measure(Chain(((2.0, c),)))
    single = chain_measure(Chain(((1.0, c),)))
    assert double.pair(w) == pytest.approx(2 * single.pair(w))
    cancel = chain_measure(Chain(((1.0, c), (-1.0, c))))
    assert cancel.pair(w) == pytest.approx(0.0, abs=1e-12)


def test_mixed_sign_chain_total_mass():
    c = Cell(T2, Box((0.0,), (0.5,)), AffineMap([0, 0], [[1.0, 0.0]]), 10)
    mu = chain_measure(Chain(((1.0, c), (-0.5, c))))
    assert mu.total_mass() == pytest.approx(0.25)


# -- boundary and Stokes ---------------------------------------------

def test_boundary_of_segment():
    c = Cell(T2, Box((0.0,), (0.5,)), AffineMap([0, 0], [[1.0, 0.0]]), 10)
    b = boundary(Chain(((1.0, c),)))
    assert len(b.terms) == 2
    signs = sorted(a for a, _ in b.terms)
    assert signs == [-1.0, 1.0]
    pts = {a: cell.map.x0.tolist() for a, cell in b.terms}
    assert pts[1.0] == [0.5, 0.0] and pts[-1.0] == [0.0, 0.0]


def test_square_boundary_four_edges_and_dd_zero():
    c = Cell(T2, Box((0.0, 0.0), (0.3, 0.3)), AffineMap([0.1, 0.1], np.eye(2)), 12)
    b = boundary(Chain(((1.0, c),)))
    assert len(b.terms) == 4
    bb = boundary(b)
    f = DifferentialForm(T2, 0, {(): TrigPolynomial.mode(2, (1, 1), kind="sin")})
    assert chain_measure(bb).pair(f) == pytest.approx(0.0, abs=1e-10)


def test_closed_loop_boundary_telescopes():
    # loop t -> (t, 2t) split into 4 cells with matching endpoints
    cells = []
    for i in range(4):
        m = AffineMap([i / 4, (2 * i / 4) % 1.0], [[1.0, 2.0]])
        cells.append((1.0, Cell(T2, Box((0.0,), (0.25,)), m, 20)))
    b = boundary(Chain(tuple(cells)))
    f = DifferentialForm(T2, 0, {(): TrigPolynomial.mode(2, (1, 1), kind="cos")})
    assert chain_measure(b).pair(f) == pytest.approx(0.0, abs=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_stokes_consistency_order(seed):
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(2, 2)) * 0.3
    if abs(np.linalg.det(V)) < 0.01:
        V = V + 0.2 * np.eye(2)
    w = random_one_form(rng)
    gaps = []
    for res in (8, 64):
        c = Cell(T2, Box((0.0, 0.0), (0.5, 0.5)), AffineMap(rng.random(2), V), res)
        lhs = cell_measure(c).pair(w.exterior_derivative())
        rhs = chain_measure(boundary(Chain(((1.0, c),)))).pair(w)
        gaps.append(abs(lhs - rhs))
    # midpoint rule is second order; the two sides carry independent
    # quadrature errors that occasionally cancel at coarse resolution, so
    # check convergence against an absolute second-order budget
    assert gaps[1] <= max(1e-4, gaps[0])


def test_stokes_n1_trig_function():
    c = Cell(T2, Box((0.0,), (1.0,)), AffineMap([0, 0], [[1.0, 0.3]]), 400)
    f = TrigPolynomial.mode(2, (1, 1), kind="sin")
    w0 = DifferentialForm(T2, 0, {(): f})
    lhs = cell_measure(c).pair(w0.exterior_derivative())
    rhs = chain_measure(boundary(Chain(((1.0, c),)))).pair(w0)
    assert lhs == pytest.approx(rhs, abs=2e-4)


# -- cycle testing ---------------------------------------------------

def test_closed_geodesic_is_cycle():
    c = Cell(T2, Box((0.0,), (1.0,)), AffineMap([0, 0], [[1.0, 2.0]]), 200)
    ok, res = is_cycle(Chain(((1.0, c),)), 2, 1e-8)
    assert ok and res <= 1e-10


def test_open_segment_not_cycle():
    c = Cell(T2, Box((0.0,), (0.25,)), AffineMap([0, 0], [[1.0, 0.0]]), 400)
    ok, res = is_cycle(Chain(((1.0, c),)), 1, 1e-8)
    assert not ok
    assert res >= 1 / (4 * math.pi)


def test_empty_chain_is_cycle():
    ok, res = is_cycle(Chain(()))
    assert ok and res == 0.0


# -- reparameterization ----------------------------------------------

def test_reparameterize_unit_speed_unchanged():
    c = Cell(T2, Box((0.0,), (1.0,)), AffineMap([0, 0], [[1.0, 0.0]]), 20)
    r = reparameterize_mass_matched(c)
    mu = cell_measure(r)
    assert mu.total_mass() == pytest.approx(1.0)
    assert np.abs(np.linalg.norm(mu.v, axis=2) - 1).max() < 1e-12


def test_reparameterize_fast_segment():
    c = Cell(T2, Box((0.0,), (0.1,)), AffineMap([0, 0], [[10.0, 0.0]]), 20)
    r = reparameterize_mass_matched(c)
    mu = cell_measure(r)
    assert mu.total_mass() == pytest.approx(mu.mass(), rel=1e-12)
    assert np.abs(mu.v).max() <= 2.0


def test_reparameterize_thin_two_cell():
    c = Cell(T2, Box((0.0, 0.0), (1.0, 1.0)),
             AffineMap([0, 0], [[0.5, 0.0], [0.0, 0.005]]), 8)
    r = reparameterize_mass_matched(c)
    mu = cell_measure(r)
    assert mu.total_mass() == pytest.approx(mu.mass(), rel=0.05)
    assert np.linalg.norm(mu.v, axis=(1, 2)).max() <= 2.0
    # same image mass
    assert mu.mass() == pytest.approx(cell_measure(c).mass(), rel=1e-10)


def test_reparameterize_rejects_degenerate():
    c = Cell(T2, Box((0.0,), (1.0,)), AffineMap([0, 0], [[0.0, 0.0]]), 4)
    with pytest.raises(InvalidInputError):
        reparameterize_mass_matched(c)


# -- polygon helpers --------------------------------------------------

def test_clip_polygon_halfspace_square():
    sq = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])
    half = clip_polygon_halfspace(sq, np.array([1.0, 0.0]), 0.5)
    assert polygon_area(half) == pytest.approx(0.5)
    gone = clip_polygon_halfspace(sq, np.array([1.0, 0.0]), -0.5)
    assert len(gone) == 0


def test_simplex_domain_volume():
    s = SimplexDomain(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    assert s.volume() == pytest.approx(0.5)


# -- expression maps and serialization -------------------------------

def test_expr_map_matches_affine():
    e = ExprMap(["0.1 + t1", "0.2 + 0.5*t1"], 1)
    a = AffineMap([0.1, 0.2], [[1.0, 0.5]])
    t = np.linspace(0.05, 0.9, 7).reshape(-1, 1)
    assert np.allclose(e(t), a(t))
    assert np.allclose(e.jacobian(t), a.jacobian(t), atol=1e-7)


def test_expr_map_evaluates_like_numpy_and_round_trips():
    e = ExprMap(["t1", "2*t1", "-sin(2*pi*t1) / 3 + t1 ** 2"], 1)
    t = np.linspace(0.05, 0.9, 7).reshape(-1, 1)
    expect = np.stack([t[:, 0], 2 * t[:, 0],
                       -np.sin(2 * math.pi * t[:, 0]) / 3 + t[:, 0] ** 2], axis=1)
    assert np.array_equal(e(t), expect)
    ch = Chain(((1.0, Cell(FlatTorus(3), Box((0.0,), (1.0,)), e, 16)),))
    back = chain_from_dict(json.loads(json.dumps(chain_to_dict(ch))))
    ma, mb = chain_measure(ch), chain_measure(back)
    assert np.array_equal(ma.x, mb.x)
    assert np.array_equal(ma.v, mb.v)
    assert np.array_equal(ma.w, mb.w)


@pytest.mark.parametrize("expr", ["__import__('os')", "t1.__class__", "t2 + 1",
                                  "t1[0]", "lambda: t1", "[t1 for _ in t1]", "1 +"])
def test_expr_map_rejects_unlisted_constructs(expr):
    with pytest.raises(InvalidInputError):
        ExprMap([expr], 1)


def test_chain_json_round_trip():
    c1 = Cell(T2, Box((0.0, 0.0), (0.5, 0.4)),
              AffineMap([0.1, 0.2], [[1.0, 0.2], [0.1, 1.0]]), 9)
    dom = ClippedBox(Box((0.0, 0.0), (1.0, 1.0)), (((1.0, 1.0), 1.0),))
    c2 = Cell(T2, dom, AffineMap([0, 0], 0.3 * np.eye(2)), 7)
    ch = Chain(((1.0, c1), (-0.5, c2)))
    back = chain_from_dict(chain_to_dict(ch))
    ma, mb = chain_measure(ch), chain_measure(back)
    assert np.array_equal(ma.x, mb.x)
    assert np.array_equal(ma.w, mb.w)
    assert np.array_equal(ma.v, mb.v)
