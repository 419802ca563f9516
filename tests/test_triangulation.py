import collections
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
    _band_value,
    boundary_balance,
    facet_pieces,
    locate_simplex,
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
    # the facet keys pair_cells groups traces by: each names exactly two tops
    for tri in (TRI2, TorusTriangulation(T2, 2), TRI3):
        sides = collections.Counter(
            key for i in range(len(tri.top_simplices))
            for key in tri.top_halfspaces(i)[1])
        assert len(sides) == len(tri.skeleton(tri.torus.dim - 1))
        assert set(sides.values()) == {2}


def test_top_simplices_tile_unit_volume():
    vol = sum(s.volume() for s in TRI3.top_simplices)
    assert vol == pytest.approx(1.0)


def test_size_guard():
    with pytest.raises(InvalidInputError):
        TorusTriangulation(T3, 5, max_top_simplices=10_000)


# -- point location ---------------------------------------------------

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


# -- facet pieces -----------------------------------------------------
# the raw collar function u_V is the least inward margin over the facet
# pieces, which is what _band_value reads in the unwrapped frame

def test_u_raw_signs():
    s = TRI2.top_simplices[0]
    bary = s.barycenter()
    assert _band_value(s, bary) > 0
    for v in s.vertices:
        assert _band_value(s, np.array(v)) == pytest.approx(0.0, abs=1e-12)
    far = bary + np.array([0.4, 0.0])
    assert _band_value(s, far) < 0


def test_u_raw_is_distance_for_full_simplex():
    # equidistance at the incenter of the right triangle with legs 1/2
    s = Simplex(1, ((0.0, 0.0), (0.5, 0.0), (0.5, 0.5)))
    r = (0.5 + 0.5 - math.sqrt(0.5)) / 2
    inc = np.array([0.5 - r, r])
    pieces, _ = facet_pieces(s)
    vals = [(inc - p) @ n for n, p in pieces]
    assert np.allclose(vals, r)
    assert _band_value(s, inc) == pytest.approx(r)


def test_u_on_lower_dimensional_face():
    e = TRI3.skeleton(1)[0]
    mid = e.barycenter()
    # positive on the relative interior, zero at the endpoints
    assert _band_value(e, mid) > 0
    assert abs(_band_value(e, np.array(e.vertices[0]))) < 1e-12


# -- boundary balance -------------------------------------------------

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
    # linear in the chain coefficients
    assert boundary_balance(ch.scaled(2.0), (V,)) == pytest.approx(4.0)


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


def test_surface_balances_on_t2():
    # n = d = 2: the last simplex of each nested chain is an edge, whose
    # facets are vertices
    square = Box((0.0, 0.0), (1.0, 1.0))
    closed = Chain(((1.0, Cell(T2, square, AffineMap([0.03, 0.07], np.eye(2)), 8)),))
    # a patch over the lattice vertex (1/2, 1/2) and no other vertex
    patch = Chain(((1.0, Cell(T2, square,
                              AffineMap([0.4, 0.4], 0.2 * np.eye(2)), 8)),))
    for level in (1, 2):
        chains = TorusTriangulation(T2, level).nested_chains(2)
        assert all(boundary_balance(closed, nc) == 0.0 for nc in chains)
        vals = np.array([boundary_balance(patch, nc) for nc in chains])
        assert set(vals[vals != 0.0]) == {-4.0, 4.0}
        assert vals.sum() == 0.0


def test_balance_needs_a_chain():
    V, ch = entering_segment()
    with pytest.raises(InvalidInputError):
        boundary_balance(cell_measure(ch.terms[0][1]), (V,))


def test_polygon_cell_slices_like_equal_box_cell():
    # every n = 2 pipeline cell has a PolygonDomain; a unit-square one must
    # balance like the Box cell over the same square
    amap = AffineMap([0.30, 0.30, 0.25], 0.4 * np.array([[1, 0, 0], [0, 1, 0]]))
    square = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
    box = Chain(((1.0, Cell(T3, Box((0.0, 0.0), (1.0, 1.0)), amap, 8)),))
    poly = Chain(((1.0, Cell(T3, PolygonDomain(square), amap, 8)),))
    balances = [(boundary_balance(poly, nc), boundary_balance(box, nc))
                for nc in TRI3.nested_chains(2)]
    assert any(abs(want) > 1.0 for _, want in balances)
    for got, want in balances:
        assert got == pytest.approx(want, abs=1e-12)


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
