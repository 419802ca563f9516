import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holocycle.geometry import DifferentialForm, FlatTorus, InvalidInputError, TrigPolynomial
from holocycle.measures import DiscreteMeasure
from holocycle.chains import (
    AffineMap,
    Box,
    Cell,
    Chain,
    ClippedBox,
    ExprMap,
    PolygonDomain,
    SimplexDomain,
    _TRI5_BARY,
    _TRI5_W,
    _quad_nodes,
    boundary,
    cell_measure,
    chain_atoms,
    chain_from_dict,
    chain_measure,
    chain_to_dict,
    clip_polygon_halfspace,
    is_cycle,
    polygon_area,
    polygon_centroid,
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


# -- one atom table for chains that share cells -----------------------

def reference_chain_measure(alpha):
    """chain_measure before atom tables: one weighted cell_measure per
    term, concatenated over the terms that have atoms."""
    parts = [p for p in (cell_measure(c, a) for a, c in alpha.terms) if len(p.w)]
    if not parts:
        raise InvalidInputError("nothing to concatenate")
    return DiscreteMeasure(parts[0].torus, parts[0].n,
                           np.concatenate([p.x for p in parts]),
                           np.concatenate([p.v for p in parts]),
                           np.concatenate([p.w for p in parts]),
                           positive=all(p.positive for p in parts))


def assert_same_measure(got, want):
    for a, b in ((got.x, want.x), (got.v, want.v), (got.w, want.w)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got.positive == want.positive


def assert_atoms_match_fresh(prefix, chain, factor):
    """A prefix of chain, chain and chain scaled by factor, weighted from
    chain's atom table, equal their own fresh quadrature bit for bit."""
    atoms = chain_atoms(chain)
    for alpha in (prefix, chain, chain.scaled(factor)):
        got = chain_measure(alpha, atoms)
        assert_same_measure(got, chain_measure(alpha))
        assert_same_measure(got, reference_chain_measure(alpha))
        # the frames are the table's, shared and read-only
        assert np.shares_memory(got.v, atoms[1].v)
        assert not got.v.flags.writeable


def mixed_cells():
    T3 = FlatTorus(3)
    ones = [Cell(T2, Box((0.0,), (0.7,)), AffineMap([0.9, 0.1], [[1.0, 0.3]]), 5),
            Cell(T2, Box((-0.2,), (0.4,)), ExprMap(["t1", "sin(2*pi*t1)"], 1), 7),
            Cell(T2, SimplexDomain(((0.1,), (0.6,))),
                 AffineMap([-0.3, 0.99], [[0.5, -1.0]]), 3)]
    twos = [Cell(T3, Box((0.0, 0.0), (0.5, 0.4)),
                 AffineMap([0.95, 0.0, 0.3], [[1.0, 0.2, 0.0], [0.1, 1.0, 0.5]]), 4),
            Cell(T3, ClippedBox(Box((0.0, 0.0), (1.0, 1.0)), (((1.0, 1.0), 1.2),)),
                 AffineMap([0.0, 0.99, 0.0], [[0.3, 0.0, 0.1], [0.0, 0.3, 0.0]]), 6),
            Cell(T3, PolygonDomain(((0.0, 0.0), (0.4, 0.1), (0.5, 0.5), (0.1, 0.3))),
                 AffineMap([0.5, 0.5, 0.999], np.eye(2, 3)), 9)]
    return ones, twos


@pytest.mark.parametrize("dim", [1, 2])
def test_chain_atoms_serve_prefixes_and_rescalings(dim):
    cells = mixed_cells()[dim - 1]
    # mixed signs, a zero coefficient and one cell twice
    chain = Chain(((0.5, cells[0]), (-1.25, cells[1]), (0.0, cells[2]),
                   (0.3, cells[0])))
    assert_atoms_match_fresh(Chain(chain.terms[:2]), chain, 1.0 / 3.0)
    assert_atoms_match_fresh(Chain(chain.terms[:1]), chain, -2.0)


def test_chain_atoms_reject_cells_not_in_the_table():
    cells = mixed_cells()[0]
    chain = Chain(((1.0, cells[0]), (1.0, cells[1])))
    atoms = chain_atoms(chain)
    twin = Cell(cells[1].torus, cells[1].domain, cells[1].map, cells[1].resolution)
    assert twin == cells[1]  # equal, but not the table's object
    for alpha in (Chain(((1.0, cells[1]),)), Chain(((1.0, cells[0]), (1.0, twin))),
                  Chain(chain.terms + ((1.0, cells[2]),))):
        with pytest.raises(InvalidInputError, match="not a prefix"):
            chain_measure(alpha, atoms)


def test_chain_atoms_keep_the_empty_errors():
    cells = mixed_cells()[0]
    atoms = chain_atoms(Chain(((1.0, cells[0]),)))
    for call in (lambda: chain_measure(Chain(())),
                 lambda: chain_measure(Chain(()), atoms),
                 lambda: chain_atoms(Chain(()))):
        with pytest.raises(InvalidInputError, match="empty chain"):
            call()
    # resolution 0 gives a cell without atoms
    with np.errstate(invalid="ignore", divide="ignore"):
        bare = Cell(T2, Box((0.0,), (1.0,)), AffineMap([0, 0], [[1.0, 0.0]]), 0)
        empty = Chain(((1.0, bare), (-1.0, bare)))
        for call in (lambda: reference_chain_measure(empty),
                     lambda: chain_measure(empty),
                     lambda: chain_measure(empty, chain_atoms(empty))):
            with pytest.raises(InvalidInputError, match="nothing to concatenate"):
                call()
        # a negative term without atoms does not make the measure signed
        mixed = Chain(((-1.0, bare), (1.0, cells[0]), (-2.0, bare)))
        assert_atoms_match_fresh(Chain(mixed.terms[:2]), mixed, 0.5)
        assert chain_measure(mixed).positive


def test_chain_atoms_buffers_are_read_only():
    cells = mixed_cells()[1]
    chain = Chain(tuple((1.0, c) for c in cells))
    atoms = chain_atoms(chain)
    mu = chain_measure(chain, atoms)
    with pytest.raises(ValueError):
        mu.v[0, 0, 0] = 0.5
    with pytest.raises(ValueError):
        mu.v *= 2.0
    for arr in (atoms[1].x, atoms[1].v, atoms[1].w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert_same_measure(chain_measure(chain, atoms), reference_chain_measure(chain))


# -- fan refinement of polygon domains --------------------------------

def roll_area(vertices):
    if len(vertices) < 3:
        return 0.0
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def roll_centroid(vertices):
    a = roll_area(vertices)
    if abs(a) < 1e-300:
        return vertices.mean(axis=0)
    x, y = vertices[:, 0], vertices[:, 1]
    cx = np.sum((x + np.roll(x, -1)) * (x * np.roll(y, -1) - np.roll(x, -1) * y))
    cy = np.sum((y + np.roll(y, -1)) * (x * np.roll(y, -1) - np.roll(x, -1) * y))
    return np.array([cx, cy]) / (6.0 * a)


def reference_refine(tri, depth):
    """Uniform 4-way refinement of a triangle, depth times, as a list."""
    tris = [np.asarray(tri, float)]
    for _ in range(depth):
        nxt = []
        for t in tris:
            m01, m12, m20 = 0.5 * (t[0] + t[1]), 0.5 * (t[1] + t[2]), 0.5 * (t[2] + t[0])
            nxt.extend([np.array([t[0], m01, m20]), np.array([m01, t[1], m12]),
                        np.array([m20, m12, t[2]]), np.array([m01, m12, m20])])
        tris = nxt
    return tris


def reference_polygon_nodes(domain, resolution):
    """The polygon branch of _quad_nodes, one sub-triangle at a time."""
    poly = domain.polygon()
    center = roll_centroid(poly)
    diam = float(np.linalg.norm(poly.max(axis=0) - poly.min(axis=0)))
    target = diam / max(resolution, 1)
    nodes, weights = [], []
    k = len(poly)
    for i in range(k):
        tri = np.array([center, poly[i], poly[(i + 1) % k]])
        e1, e2 = tri[1] - tri[0], tri[2] - tri[0]
        area2 = abs(float(e1[0] * e2[1] - e1[1] * e2[0]))
        if area2 <= 1e-15:
            continue
        longest = max(float(np.linalg.norm(tri[a] - tri[b]))
                      for a, b in ((0, 1), (1, 2), (2, 0)))
        depth = max(0, int(math.ceil(math.log2(max(longest / max(target, 1e-12), 1.0)))))
        depth = min(depth, 7)
        for sub in reference_refine(tri, depth):
            pts = _TRI5_BARY @ sub
            s1, s2 = sub[1] - sub[0], sub[2] - sub[0]
            a2 = abs(float(s1[0] * s2[1] - s1[1] * s2[0]))
            nodes.append(pts)
            weights.append(_TRI5_W * (0.5 * a2))
    if not nodes:
        raise InvalidInputError("degenerate 2-d domain")
    return np.concatenate(nodes), np.concatenate(weights)


def quadrature_or_error(fn, domain, resolution):
    try:
        return fn(domain, resolution)
    except InvalidInputError as exc:
        return str(exc)


def assert_fan_like_reference(domain, resolution):
    got = quadrature_or_error(_quad_nodes, domain, resolution)
    want = quadrature_or_error(reference_polygon_nodes, domain, resolution)
    if isinstance(want, str):
        assert got == want
        return None
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    return got


COORD = st.integers(-64, 64).map(lambda i: i / 32.0) | st.floats(-2.0, 2.0)


@st.composite
def polygon_domains(draw):
    kind = draw(st.sampled_from(["simplex", "clipped", "polygon", "flat"]))
    if kind == "simplex":
        return SimplexDomain(tuple(draw(st.tuples(COORD, COORD)) for _ in range(3)))
    if kind == "clipped":
        lo = draw(st.tuples(COORD, COORD))
        size = draw(st.tuples(st.floats(0.01, 2.0), st.floats(0.01, 2.0)))
        rows = draw(st.lists(st.tuples(st.tuples(COORD, COORD), COORD), max_size=3))
        return ClippedBox(Box(lo, (lo[0] + size[0], lo[1] + size[1])), tuple(rows))
    if kind == "flat":
        # every vertex on one line: each fan triangle has zero area
        p, d = draw(st.tuples(COORD, COORD)), draw(st.tuples(COORD, COORD))
        ts = draw(st.lists(COORD, min_size=3, max_size=5))
        return PolygonDomain(tuple((p[0] + t * d[0], p[1] + t * d[1]) for t in ts))
    k = draw(st.integers(3, 8))
    angles = sorted(draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=k,
                                  max_size=k, unique=True)))
    center, radius = draw(st.tuples(COORD, COORD)), draw(st.floats(1e-3, 2.0))
    verts = [(center[0] + radius * math.cos(a), center[1] + radius * math.sin(a))
             for a in angles]
    if draw(st.booleans()):
        # a repeated vertex: the fan triangle on it is skipped
        j = draw(st.integers(0, k - 1))
        verts.insert(j, verts[j])
    return PolygonDomain(tuple(verts))


@given(polygon_domains(), st.integers(0, 24))
@settings(max_examples=120, deadline=None)
def test_fan_refinement_matches_reference(domain, resolution):
    assert_fan_like_reference(domain, resolution)
    try:
        poly = domain.polygon()
    except InvalidInputError:
        return
    for verts in (poly, poly[:2], poly[::-1]):
        assert polygon_area(verts) == roll_area(verts)
        assert np.array_equal(polygon_centroid(verts), roll_centroid(verts))


@pytest.mark.parametrize("resolution, subs", [
    (0, 3), (1, 3), (2, 3 * 4), (3, 3 * 4 ** 2), (6, 3 * 4 ** 3), (16, 3 * 4 ** 4),
    (32, 3 * 4 ** 5), (64, 3 * 4 ** 6), (100, 3 * 4 ** 7), (1000, 3 * 4 ** 7)])
def test_fan_refinement_depths(resolution, subs):
    # the unit right triangle: three fan triangles, each refined to the same
    # depth, 0 through 7; resolution 1000 asks for 10 and is clamped to 7
    domain = SimplexDomain(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    t, w = assert_fan_like_reference(domain, resolution)
    assert len(t) == len(w) == 7 * subs
    assert float(np.sum(w)) == pytest.approx(0.5, rel=1e-12)


def test_fan_refinement_degenerate_domains():
    flat = PolygonDomain(((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)))
    assert assert_fan_like_reference(flat, 4) is None
    with pytest.raises(InvalidInputError, match="degenerate 2-d domain"):
        _quad_nodes(flat, 4)
    # the repeated vertex's fan triangle has area 0 and is skipped
    square = PolygonDomain(((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    t, w = assert_fan_like_reference(square, 1)
    assert len(w) == 7 * 4


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
