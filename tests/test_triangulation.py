import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holocycle.geometry import FlatTorus, InvalidInputError
from holocycle.chains import AffineMap, Box, Cell, Chain, PolygonDomain, cell_measure
from holocycle.triangulation import (
    Simplex,
    TorusTriangulation,
    TransversalityError,
    boundary_balance,
    facet_pieces,
    locate_simplex,
    slice_measure,
    u_gradient,
    u_value,
)

T2 = FlatTorus(2)
T3 = FlatTorus(3)

TRI2 = TorusTriangulation(T2, 1)
TRI3 = TorusTriangulation(T3, 1)


# -- mesh combinatorics ----------------------------------------------

def test_counts_d2_level1():
    assert len(TRI2.top_simplices) == 8
    assert len(TRI2.skeleton(1)) == 12
    assert len(TRI2.skeleton(0)) == 4
    # flat torus has Euler characteristic zero
    assert 4 - 12 + 8 == 0


def test_counts_d3_level1():
    assert len(TRI3.top_simplices) == 48
    assert len(TRI3.skeleton(2)) == 96
    assert len(TRI3.skeleton(1)) == 56
    assert len(TRI3.skeleton(0)) == 8
    assert 8 - 56 + 96 - 48 == 0


def test_counts_scale_with_level():
    t = TorusTriangulation(T2, 3)
    assert len(t.top_simplices) == 2 * 4 ** 3
    assert t.diameter == pytest.approx(math.sqrt(2) / 8)


def test_every_interior_face_has_two_sides():
    for tri in (TRI2, TorusTriangulation(T2, 2), TRI3):
        adj = tri.face_adjacency()
        assert all(len(v) == 2 for v in adj.values())


def test_top_simplices_tile_unit_volume():
    vol = sum(s.volume() for s in TRI3.top_simplices)
    assert vol == pytest.approx(1.0)


def test_size_guard():
    with pytest.raises(InvalidInputError):
        TorusTriangulation(T3, 5, max_top_simplices=10_000)


# -- point location and charts ---------------------------------------

@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_locate_contains_and_index_agree(seed):
    rng = np.random.default_rng(seed)
    tri = TRI2 if seed % 2 else TRI3
    x = rng.random(tri.torus.dim)
    s = tri.locate(x)
    assert s.contains(x, tol=1e-9)
    assert tri.top_simplices[tri.locate_index(x)].key() == s.key()


def test_locate_matches_free_function():
    x = np.array([0.31, 0.72, 0.05])
    assert TRI3.locate(x).key() == locate_simplex(T3, 1, x).key()


def test_chart_round_trip():
    s = TRI2.locate([0.3, 0.1])
    ch = TRI2.chart(s)
    x = np.array([0.31, 0.07])
    lam = ch.to_chart(x)
    assert np.allclose(ch.from_chart(lam), x)
    # barycentric coordinates of an interior point of the simplex
    assert lam.min() > 0 and lam.sum() < 1


# -- nested chains ----------------------------------------------------

def test_nested_chain_counts():
    assert len(TRI2.nested_chains(1)) == 8
    assert len(TRI2.nested_chains(2)) == 8 * 3
    assert len(TRI3.nested_chains(2)) == 48 * 4
    chains = TRI2.nested_chains(2)
    assert all(c[1].dim == 1 and c[0].dim == 2 for c in chains)


def test_nested_chain_faces_belong_to_parent():
    for c in TRI3.nested_chains(2)[:12]:
        parent = set(c[0].vertices)
        assert set(c[1].vertices) < parent


# -- collar functions -------------------------------------------------

def test_u_raw_signs():
    s = TRI2.top_simplices[0]
    bary = s.barycenter()
    assert u_value(s, bary)[0] > 0
    for v in s.vertices:
        assert u_value(s, np.array(v))[0] == pytest.approx(0.0, abs=1e-12)
    far = bary + np.array([0.4, 0.0])
    assert u_value(s, far)[0] < 0


def test_u_raw_is_distance_for_full_simplex():
    # equidistance at the incenter of the right triangle with legs 1/2
    s = Simplex(1, ((0.0, 0.0), (0.5, 0.0), (0.5, 0.5)))
    r = (0.5 + 0.5 - math.sqrt(0.5)) / 2
    inc = np.array([0.5 - r, r])
    pieces, _ = facet_pieces(s)
    vals = [(inc - p) @ n for n, p in pieces]
    assert np.allclose(vals, r)
    assert u_value(s, inc)[0] == pytest.approx(r)


def test_u_on_lower_dimensional_face():
    e = TRI3.skeleton(1)[0]
    mid = e.barycenter()
    # positive on the relative interior, zero at the endpoints
    assert u_value(e, mid)[0] > 0
    assert abs(u_value(e, np.array(e.vertices[0]))[0]) < 1e-12


def test_u_clamped_and_smoothed_profile():
    s = TRI2.top_simplices[0]
    eps = 0.05
    bary = s.barycenter()
    assert u_value(s, bary, "clamped", eps)[0] == 1.0
    assert u_value(s, bary, "smoothed", eps)[0] == pytest.approx(1.0)
    # smoothed version is within eps of the clamp everywhere
    rng = np.random.default_rng(3)
    xs = rng.random((64, 2))
    gap = np.abs(u_value(s, xs, "smoothed", eps) - u_value(s, xs, "clamped", eps))
    assert gap.max() <= 1.0 + 1e-12
    assert np.median(gap) < 0.5


def test_u_gradient_matches_finite_differences():
    s = TRI2.top_simplices[1]
    eps = 0.08
    rng = np.random.default_rng(7)
    pts = s.barycenter()[None] + 0.03 * rng.normal(size=(20, 2))
    for variant in ("raw", "smoothed"):
        g = u_gradient(s, pts, variant, eps)
        h = 1e-6
        for j in range(2):
            dx = np.zeros(2)
            dx[j] = h
            fd = (u_value(s, pts + dx, variant, eps)
                  - u_value(s, pts - dx, variant, eps)) / (2 * h)
            assert np.abs(g[:, j] - fd).max() < 1e-5


def test_u_requires_eps():
    s = TRI2.top_simplices[0]
    with pytest.raises(InvalidInputError):
        u_value(s, s.barycenter(), "clamped")


# -- slicing and boundary balance -------------------------------------

def entering_segment():
    V = TRI2.top_simplices[0]
    bary = V.barycenter()
    out = bary + np.array([0.3, 0.1])
    cell = Cell(T2, Box((0.0,), (1.0,)), AffineMap(out, [(bary - out)]), 10)
    return V, Chain(((1.0, cell),))


def kronecker_loop():
    cells = []
    for i in range(4):
        m = AffineMap([0.123 + i / 4, (0.321 + 2 * i / 4) % 1.0], [[1.0, 2.0]])
        cells.append((1.0, Cell(T2, Box((0.0,), (0.25,)), m, 50)))
    return Chain(tuple(cells))


def test_entering_curve_balance_is_two():
    V, ch = entering_segment()
    assert boundary_balance(ch, (V,)) == pytest.approx(2.0)


def test_leaving_curve_balance_is_minus_two():
    V, ch = entering_segment()
    cell = ch.terms[0][1]
    rev = Cell(T2, cell.domain, AffineMap(cell.map(np.array([[1.0]]))[0],
                                          -cell.map.V), 10)
    assert boundary_balance(Chain(((1.0, rev),)), (V,)) == pytest.approx(-2.0)


def test_cycle_balances_vanish():
    loop = kronecker_loop()
    for tp in TRI2.top_simplices:
        assert boundary_balance(loop, (tp,)) == pytest.approx(0.0, abs=1e-12)


def test_closed_sheet_balances_vanish():
    sheet = Cell(T3, Box((0.0, 0.0), (1.0, 1.0)),
                 AffineMap([0.03, 0.07, 0.37], [[1, 0, 0], [0, 1, 0]]), 8)
    ch = Chain(((1.0, sheet),))
    vals = [boundary_balance(ch, nc) for nc in TRI3.nested_chains(2)]
    assert np.abs(vals).max() == 0.0


def test_open_sheet_crossing_counts_four():
    # flat patch over the vertical lattice edge at (1/2, 1/2)
    patch = Cell(T3, Box((0.0, 0.0), (1.0, 1.0)),
                 AffineMap([0.30, 0.30, 0.25],
                           0.4 * np.array([[1, 0, 0], [0, 1, 0]])), 8)
    ch = Chain(((1.0, patch),))
    vals = np.array([boundary_balance(ch, nc) for nc in TRI3.nested_chains(2)])
    nz = vals[np.abs(vals) > 1e-9]
    assert set(np.round(nz, 9)) == {-4.0, 4.0}
    # the two nested chains through neighbouring faces pair with opposite
    # sign, so the total over all chains still cancels
    assert vals.sum() == pytest.approx(0.0, abs=1e-12)


def test_slice_measure_linearity():
    V, ch = entering_segment()
    single = slice_measure(ch, (V,), T2)
    double = slice_measure(ch.scaled(2.0), (V,), T2)
    assert double.total_mass() == pytest.approx(2 * single.total_mass())
    assert len(single.w) == 1


def test_trace_slice_of_closed_sheet_has_unit_order_mass():
    sheet = Cell(T3, Box((0.0, 0.0), (1.0, 1.0)),
                 AffineMap([0.03, 0.07, 0.37], [[1, 0, 0], [0, 1, 0]]), 8)
    ch = Chain(((1.0, sheet),))
    total = sum(slice_measure(ch, (tp,), T3, resolution=16).total_mass()
                for tp in TRI3.top_simplices)
    # co-area: the sheet meets the collars of all 48 tetrahedra with total
    # normalized trace mass 2 * area (each point lies in the band of the
    # facet pieces of exactly two facets on average)
    assert total > 1.0


def test_polygon_cell_slices_like_equal_box_cell():
    # every n = 2 pipeline cell has a PolygonDomain; a unit-square one must
    # slice like the Box cell over the same square
    amap = AffineMap([0.30, 0.30, 0.25], 0.4 * np.array([[1, 0, 0], [0, 1, 0]]))
    square = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
    box = Chain(((1.0, Cell(T3, Box((0.0, 0.0), (1.0, 1.0)), amap, 8)),))
    poly = Chain(((1.0, Cell(T3, PolygonDomain(square), amap, 8)),))
    balances = [(boundary_balance(poly, nc), boundary_balance(box, nc))
                for nc in TRI3.nested_chains(2)]
    assert any(abs(want) > 1.0 for _, want in balances)
    for got, want in balances:
        assert got == pytest.approx(want, abs=1e-12)
    masses = [(slice_measure(poly, (tp,), T3).total_mass(),
               slice_measure(box, (tp,), T3).total_mass())
              for tp in TRI3.top_simplices]
    assert sum(want for _, want in masses) > 0.0
    for got, want in masses:
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_atom_cloud_balance_extrapolates_to_exact():
    V, ch = entering_segment()
    exact = boundary_balance(ch, (V,))
    mu = cell_measure(Cell(T2, ch.terms[0][1].domain, ch.terms[0][1].map, 40000))
    sched = [2.0 ** -k for k in (4, 5, 6)]
    approx = boundary_balance(mu, (V,), eps_schedule=sched)
    assert approx == pytest.approx(exact, abs=0.05)


def test_degenerate_crossing_raises():
    # the segment crosses the plane of a facet exactly at a mesh vertex
    V = TRI2.locate([0.3, 0.05])
    cell = Cell(T2, Box((0.0,), (1.0,)),
                AffineMap([0.7, 0.0], [[-0.4, 0.0]]), 10)
    with pytest.raises(TransversalityError):
        boundary_balance(Chain(((1.0, cell),)), (V,))


def test_nested_chain_length_validation():
    with pytest.raises(InvalidInputError):
        TRI2.nested_chains(0)
    with pytest.raises(InvalidInputError):
        TRI2.nested_chains(3)
