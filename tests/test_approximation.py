import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holocycle.geometry import FlatTorus, InvalidInputError
from holocycle.chains import (
    AffineMap,
    Box,
    Cell,
    Chain,
    boundary,
    cell_measure,
    chain_from_dict,
    chain_measure,
    chain_to_dict,
)
from holocycle.measures import (
    SmoothDensityModel,
    hol_residual,
    velocity_bump_model,
)
from holocycle.triangulation import TorusTriangulation
import holocycle.approximation as approximation
from holocycle.approximation import (
    GOLDEN,
    CellRecord,
    Pairing,
    PipelineConfig,
    assemble_beta,
    base_measure,
    close_up,
    glue,
    isoperimetric_fill,
    pair_cells,
    sample_cells,
    solve_cells,
    _base_cloud,
    _frame_transversal,
    _link_loops,
    _march_line,
    _patch_pieces,
    _reference_cloud,
)
from holocycle.chains import polygon_area

T2 = FlatTorus(2)
T3 = FlatTorus(3)


def line_model(slope=GOLDEN):
    return velocity_bump_model(T2, 1, [[1.0, slope]], 0.125)


def plane_model():
    def vs(rng, count):
        frame = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        return np.broadcast_to(frame, (count, 2, 3)).copy()

    return SmoothDensityModel(T3, 2, lambda x, v: np.ones(len(x)), 0.1,
                              x_constant=True, v_sampler=vs)


# -- base measure ------------------------------------------------------

def test_base_measure_x_constant_is_exact():
    model = line_model()
    tri = TorusTriangulation(T2, 2)
    base = base_measure(model, tri)
    v = np.array([[[1.0, GOLDEN]]])
    rho = model(np.zeros((1, 2)), v)[0]
    tops = len(tri.top_simplices)
    prof = base.density(np.arange(tops), np.broadcast_to(v, (tops, 1, 2)))
    assert prof.shape == (tops,)
    assert np.allclose(prof, rho)


def test_base_measure_is_a_lower_bound():
    # spatially varying density: the per-simplex constant never exceeds the
    # model on sample points of that simplex
    def density(x, v):
        return 1.5 + np.sin(2 * np.pi * x[:, 0]) * np.cos(2 * np.pi * x[:, 1])

    model = SmoothDensityModel(T2, 1, density, 2.0,
                               v_sampler=lambda rng, k: rng.normal(size=(k, 1, 2)))
    tri = TorusTriangulation(T2, 2)
    base = base_measure(model, tri, chart_resolution=3)
    rng = np.random.default_rng(11)
    v = rng.normal(size=(1, 1, 2))
    for idx in range(0, len(tri.top_simplices), 5):
        s = tri.top_simplices[idx]
        lam = rng.dirichlet(np.ones(3), size=16)
        pts = lam @ s.array()
        vals = model(pts, np.broadcast_to(v, (16, 1, 2)))
        rb = base.density(idx, v)[0]
        assert rb <= vals.min() + 0.15 * (vals.max() - vals.min()) + 1e-9


def test_base_cloud_matches_per_atom_loop():
    # one density call per simplex must give the per-atom weights bit for bit
    bump = line_model()
    model = SmoothDensityModel(
        T2, 1, lambda x, v: (1.0 + 0.5 * np.cos(2 * np.pi * x[:, 0]))
        * bump.density(x, v), bump.radius, x_constant=False,
        v_sampler=bump.v_sampler)
    tri = TorusTriangulation(T2, 2)
    base = base_measure(model, tri)
    ref = _reference_cloud(model, PipelineConfig())
    rho = model(ref.x, ref.v)
    want = ref.w.copy()
    for i in range(len(want)):
        rb = base.density(tri.locate_index(ref.x[i]), ref.v[i][None])[0]
        if rho[i] > 1e-300:
            want[i] *= rb / rho[i]
    got = _base_cloud(ref, base)
    assert np.array_equal(got.w, want)
    assert np.array_equal(got.x, ref.x) and np.array_equal(got.v, ref.v)
    assert not np.array_equal(got.w, ref.w)


def test_base_measure_dimension_guard():
    with pytest.raises(InvalidInputError):
        base_measure(line_model(), TorusTriangulation(T3, 1))


# -- transversality ----------------------------------------------------

def test_frame_transversality_rejects_mesh_parallel():
    tri = TorusTriangulation(T2, 1)
    assert not _frame_transversal(tri, np.array([[1.0, 0.0]]))
    assert not _frame_transversal(tri, np.array([[1.0, 1.0]]))
    assert _frame_transversal(tri, np.array([[1.0, GOLDEN]]))


def test_frame_transversality_planes():
    tri = TorusTriangulation(T3, 1)
    assert not _frame_transversal(tri, np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    tilted = np.array([[1.0, 0.013, 0.007], [0.003, 1.0, 0.011]])
    assert _frame_transversal(tri, tilted)


# -- leaf cutting ------------------------------------------------------

@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_march_partitions_the_segment(seed):
    rng = np.random.default_rng(seed)
    tri = TorusTriangulation(T2, 1 + seed % 2)
    anchor = rng.random(2) + 1e-7
    v = np.array([1.0, GOLDEN + 0.1 * rng.random()])
    length = 1.0 + rng.random()
    pieces = _march_line(tri, anchor, v, length)
    ts = sorted((p.domain_data[0], p.domain_data[1]) for p in pieces)
    assert ts[0][0] == pytest.approx(0.0, abs=1e-12)
    assert ts[-1][1] == pytest.approx(length, abs=1e-12)
    for (a0, a1), (b0, b1) in zip(ts, ts[1:]):
        assert a1 == pytest.approx(b0, abs=1e-12)
    # each piece midpoint lies in its claimed simplex
    for p in pieces:
        mid = anchor + 0.5 * (p.domain_data[0] + p.domain_data[1]) * v
        w = tri.torus.wrap(mid)
        assert tri.top_simplices[p.sim].contains(w, tol=1e-9)


def test_patch_pieces_tile_the_square():
    tri = TorusTriangulation(T3, 1)
    anchor = np.array([0.13, 0.29, 0.41])
    V = np.array([[1.0, 0.011, 0.003], [0.007, 1.0, 0.005]])
    extent = ((-0.5, -0.5), (0.5, 0.5))
    pieces = _patch_pieces(tri, anchor, V, extent)
    total = sum(polygon_area(p.domain_data[0]) for p in pieces)
    assert total == pytest.approx(1.0, abs=1e-10)
    for p in pieces[::7]:
        poly = p.domain_data[0]
        centroid = poly.mean(axis=0)
        x = tri.torus.wrap(anchor + centroid @ V)
        assert tri.top_simplices[p.sim].contains(x, tol=1e-8)


def test_patch_edge_labels_cover_boundary():
    tri = TorusTriangulation(T3, 1)
    anchor = np.array([0.5, 0.25, 0.125]) + 1e-4
    V = np.array([[1.0, 0.013, 0.002], [0.003, 1.0, 0.009]])
    pieces = _patch_pieces(tri, anchor, V, ((-0.3, -0.3), (0.3, 0.3)))
    rim_len = 0.0
    for p in pieces:
        poly, labels = p.domain_data
        for k, lab in enumerate(labels):
            if lab[0] == "rim":
                rim_len += np.linalg.norm(poly[(k + 1) % len(poly)] - poly[k])
    assert rim_len == pytest.approx(4 * 0.6, abs=1e-9)


# -- sampling ----------------------------------------------------------

def test_sampling_is_deterministic_and_nested():
    model = line_model()
    base = base_measure(model, TorusTriangulation(T2, 2))
    s1 = sample_cells(base, seed=7, leaf_extent=2.0, leaf_count=2)
    s2 = sample_cells(base, seed=7, leaf_extent=2.0, leaf_count=4)
    s3 = sample_cells(base, seed=7, leaf_extent=2.0, leaf_count=4)
    for a, b in zip(s1.leaves, s2.leaves):
        assert np.array_equal(a.anchor, b.anchor)
        assert np.array_equal(a.frame, b.frame)
    for a, b in zip(s2.leaves, s3.leaves):
        assert np.array_equal(a.anchor, b.anchor)


def test_sampling_requires_v_sampler():
    model = SmoothDensityModel(T2, 1, lambda x, v: np.ones(len(x)), 1.0,
                               x_constant=True)
    base = base_measure(model, TorusTriangulation(T2, 1))
    with pytest.raises(InvalidInputError):
        sample_cells(base, seed=0, leaf_count=1)


def test_sample_validation():
    base = base_measure(line_model(), TorusTriangulation(T2, 1))
    with pytest.raises(InvalidInputError):
        sample_cells(base, seed=0, leaf_count=0)


# -- assembly ----------------------------------------------------------

def pipeline_records(model, level=2, leaf_count=3, extent=2.0, seed=3):
    tri = TorusTriangulation(T2, level) if model.torus.dim == 2 else \
        TorusTriangulation(T3, level)
    base = base_measure(model, tri)
    samples = sample_cells(base, seed=seed, leaf_extent=extent,
                           leaf_count=leaf_count)
    records = solve_cells(samples, nodes_per_unit=16.0)
    return tri, samples, records


def test_beta_total_mass_is_one():
    _, _, records = pipeline_records(line_model())
    beta, Z = assemble_beta(records)
    assert chain_measure(beta).total_mass() == pytest.approx(1.0, abs=1e-12)
    assert Z == pytest.approx(sum(r.dvol for r in records))


def test_interior_traces_pair_up():
    tri, _, records = pipeline_records(line_model(), leaf_count=4)
    pairing = pair_cells(records, tri)
    # every interior face crossing shows up twice; only the leaf ends stay open
    assert pairing.unpaired_ratio == pytest.approx(0.0, abs=1e-12)
    for (ia, pa), (ib, pb), gap in pairing.pairs:
        assert gap <= 1e-9


def test_pairing_is_involutive():
    tri, _, records = pipeline_records(plane_model(), level=1, leaf_count=1,
                                       extent=1.0)
    pairing = pair_cells(records, tri)
    by_index = {r.index: r for r in records}
    for (ia, pa), (ib, pb), _ in pairing.pairs:
        assert by_index[ia].paired[pa] == (ib, pb)
        assert by_index[ib].paired[pb] == (ia, pa)


def reference_pairing(records, threshold):
    """The quadratic pairing loop pair_cells replaced: every pair of traces
    on a face, in entry order, measured with np.linalg.norm.

    Returns the Pairing and the paired dicts it implies, and leaves the
    records as they are.
    """
    by_face = {}
    for rec in records:
        for pos, key, x, V, tangent in rec.traces:
            by_face.setdefault(key, []).append((rec, pos, x, V, tangent))
    candidates = []
    for entries in by_face.values():
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                ra, pa, xa, Va, ta = entries[i]
                rb, pb, xb, Vb, tb = entries[j]
                if ra.sim == rb.sim:
                    continue
                delta = np.asarray(xa) - np.asarray(xb)
                gap = float(np.linalg.norm(delta - np.round(delta))) + float(
                    np.linalg.norm(Va - Vb))
                if ta is not None and tb is not None:
                    gap += abs(float(np.linalg.norm(ta)) - float(np.linalg.norm(tb)))
                if gap < threshold:
                    candidates.append((gap, ra.index, pa, rb.index, pb))
    candidates.sort(key=lambda c: (c[0], c[1], c[2], c[3], c[4]))
    used = set()
    pairs = []
    paired = {rec.index: {} for rec in records}
    for gap, ia, pa, ib, pb in candidates:
        if (ia, pa) in used or (ib, pb) in used:
            continue
        used.add((ia, pa))
        used.add((ib, pb))
        paired[ia][pa] = (ib, pb)
        paired[ib][pb] = (ia, pa)
        pairs.append(((ia, pa), (ib, pb), gap))
    total = sum(len(rec.traces) for rec in records)
    ratio = (total - 2 * len(pairs)) / total if total else 0.0
    return Pairing(tuple(pairs), ratio, threshold), paired


def assert_pairs_like_reference(records, threshold):
    want, want_paired = reference_pairing(records, threshold)
    got = pair_cells(records, None, threshold)
    assert got == want
    assert {rec.index: rec.paired for rec in records} == want_paired
    return got


def varying_model():
    bump = line_model()
    return SmoothDensityModel(
        T2, 1, lambda x, v: (1.0 + 0.5 * np.cos(2 * np.pi * x[:, 0]))
        * bump.density(x, v), bump.radius, x_constant=False,
        v_sampler=bump.v_sampler)


@pytest.mark.parametrize("model, level, leaf_count, extent", [
    (line_model, 1, 4, 3.0), (line_model, 2, 8, 4.2), (line_model, 3, 16, 6.0),
    (plane_model, 1, 4, 1.0), (plane_model, 2, 4, 1.0),
    (varying_model, 2, 8, 4.2), (varying_model, 3, 16, 6.0)])
def test_pairing_matches_quadratic_reference(model, level, leaf_count, extent):
    tri, _, records = pipeline_records(model(), level=level,
                                       leaf_count=leaf_count, extent=extent,
                                       seed=0)
    got = assert_pairs_like_reference(records, tri.diameter ** 2)
    assert got.pairs
    if model is varying_model:
        # thinning leaves traces with no partner across the face
        assert got.unpaired_ratio > 0


def test_pairing_across_the_seam():
    # two traces of one face at x1 = 1e-9 and x1 = 1 - 1e-9 are 2e-9 apart
    V = np.array([[1.0, GOLDEN]])
    recs = [CellRecord(i, i, i, None, 1.0, ()) for i in range(3)]
    recs[0].traces = [(1, "f", np.array([1e-9, 0.3]), V, None)]
    recs[1].traces = [(0, "f", np.array([1.0 - 1e-9, 0.3]), V, None)]
    recs[2].traces = [(0, "f", np.array([0.5, 0.3]), V, None)]
    got = assert_pairs_like_reference(recs, 1e-3)
    assert [(a, b) for a, b, _ in got.pairs] == [((0, 1), (1, 0))]
    assert got.pairs[0][2] == pytest.approx(2e-9)


@st.composite
def face_traces(draw):
    """Records whose traces crowd a few faces: positions on a coarse grid
    around each face's center, wrapped so that centers at 0 straddle the
    seam, a few shared frames and tangents (equal gaps, exact zeros), few
    sims, and singleton faces.  Some draws spread a face around the whole
    torus, so that near pairs lie at opposite ends of its sorted axis."""
    d = draw(st.sampled_from((2, 3)))
    n = draw(st.sampled_from((1, 2)))
    centers = draw(st.lists(st.sampled_from((0.0, 0.25, 0.5)), min_size=1,
                            max_size=4))
    scale = draw(st.sampled_from((256.0, 8.0)))
    frames = [np.eye(n, d) + 0.01 * k for k in range(3)]
    tangents = [np.full(d, 0.01 * (k + 1)) for k in range(3)]
    records = []
    for _ in range(draw(st.integers(1, 12))):
        rec = CellRecord(0, 0, draw(st.integers(0, 2)), None, 1.0, ())
        for pos in range(draw(st.integers(1, 3))):
            f = draw(st.integers(0, len(centers) - 1))
            offset = np.array(draw(st.lists(st.integers(-4, 4), min_size=d,
                                            max_size=d))) / scale
            x = (centers[f] + offset) % 1.0 + draw(st.sampled_from((0.0, 1.0)))
            V = frames[draw(st.integers(0, 2))]
            t = tangents[draw(st.integers(0, 2))] if n == 2 else None
            rec.traces.append((pos, ("face", f), x, V, t))
        records.append(rec)
    # record indices need not follow list order
    for rec, index in zip(records, draw(st.permutations(range(len(records))))):
        rec.index = index
    return records


@given(face_traces(), st.integers(1, 5), st.integers(0, 3), st.data())
@settings(max_examples=80, deadline=None)
def test_pairing_matches_reference_on_synthetic_traces(records, chunk, kind, data):
    # thresholds one ulp each side of a gap that occurs, and a wide one that
    # makes every face wrap around; a small chunk puts chunk boundaries
    # inside faces
    gaps, _ = reference_pairing(records, math.inf)
    pool = sorted({g for *_, g in gaps.pairs} - {0.0}) or [0.01]
    g = data.draw(st.sampled_from(pool))
    threshold = (np.nextafter(g, -1.0), g, np.nextafter(g, 2.0), 0.7)[kind]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(approximation, "_PAIR_CHUNK", chunk)
        assert_pairs_like_reference(records, float(threshold))


def test_glue_leaves_exact_pairs_alone():
    tri, _, records = pipeline_records(line_model(), leaf_count=3)
    pairing = pair_cells(records, tri)
    glued, dropped = glue(records, pairing)
    assert not dropped
    # leaf pieces share one affine map, so their seams match bit-exactly and
    # no blend is ever created
    assert all(g.cell.map is r.cell.map for g, r in zip(glued, records))


def test_glue_blends_offset_pair_to_c1():
    # two synthetic segments meeting at x = (0.5, 0.5) with a small offset
    # and a velocity mismatch; after gluing both position and derivative
    # agree at the seam
    from holocycle.approximation import CellRecord, Pairing

    eps = 1e-3
    ca = Cell(T2, Box((0.0,), (0.2,)), AffineMap([0.5 - 0.2, 0.5 - 0.2],
                                                 [[1.0, 1.0]]), 8)
    cb = Cell(T2, Box((0.2,), (0.4,)),
              AffineMap([0.5 + eps - 0.2, 0.5 - 0.2], [[1.0, 1.0 + eps]]), 8)
    ra = CellRecord(0, 0, 0, ca, 0.2, (("end",), ("face", "f")))
    rb = CellRecord(1, 1, 1, cb, 0.2, (("face", "f"), ("end",)))
    ra.traces = [(1, "f", ca.map(np.array([[0.2]]))[0], ca.map.V.copy(), None)]
    rb.traces = [(0, "f", cb.map(np.array([[0.2]]))[0], cb.map.V.copy(), None)]
    ra.paired[1] = (1, 0)
    rb.paired[0] = (0, 1)
    gap = eps * 3
    pairing = Pairing((((0, 1), (1, 0), gap),), 0.0, 0.05)
    glued, dropped = glue([ra, rb], pairing)
    assert not dropped
    pa = glued[0].cell.map(np.array([[0.2]]))[0]
    pb = glued[1].cell.map(np.array([[0.2]]))[0]
    assert np.linalg.norm(pa - pb) < 1e-9
    h = 1e-6
    da = (glued[0].cell.map(np.array([[0.2]]))
          - glued[0].cell.map(np.array([[0.2 - h]]))) / h
    db = (glued[1].cell.map(np.array([[0.2 + h]]))
          - glued[1].cell.map(np.array([[0.2]]))) / h
    assert np.linalg.norm(da - db) < 1e-4


# -- fillings ----------------------------------------------------------

def test_fill_matched_points():
    cells = []
    for sign, x in ((1.0, [0.2, 0.2]), (-1.0, [0.3, 0.2])):
        cells.append((sign, Cell(T2, Box((0.0,), (1e-9,)), AffineMap(x, [[1.0, 0.0]]), 2)))
    fill, stats = isoperimetric_fill(Chain(tuple(cells)), 0)
    assert stats["mass"] == pytest.approx(0.1, abs=1e-9)


def test_fill_unbalanced_points_rejected():
    c = Cell(T2, Box((0.0,), (1e-9,)), AffineMap([0.1, 0.1], [[1.0, 0.0]]), 2)
    with pytest.raises(InvalidInputError):
        isoperimetric_fill(Chain(((1.0, c),)), 0)


def polygon_loop(rng, k=8, radius=0.2):
    center = rng.random(2)
    angles = np.sort(rng.random(k)) * 2 * np.pi
    pts = center[None] + radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    cells = []
    for i in range(k):
        a, b = pts[i], pts[(i + 1) % k]
        cells.append((1.0, Cell(T2, Box((0.0,), (1.0,)),
                                AffineMap(a, [b - a]), 16)))
    return Chain(tuple(cells))


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_cone_fill_area_bound_and_closure(seed):
    rng = np.random.default_rng(seed)
    loop = polygon_loop(rng, k=5 + seed % 5)
    fill, stats = isoperimetric_fill(loop, 1)
    assert stats["mass"] <= 0.5 * stats["diam"] * stats["boundary_mass"] * (1 + 1e-9)
    # the fill is genuinely two-dimensional
    assert all(cell.n == 2 for _, cell in fill.terms)


def test_cone_fill_json_round_trip():
    # fills are cone maps over shifted curves; both must survive JSON
    pts = np.array([[0.1, 0.2], [0.7, 0.3], [0.4, 0.9]])
    loop = Chain(tuple((1.0, Cell(T2, Box((0.0,), (1.0,)),
                                  AffineMap(pts[i], [pts[(i + 1) % 3] - pts[i]]), 8))
                       for i in range(3)))
    fill, _ = isoperimetric_fill(loop, 1)
    back = chain_from_dict(json.loads(json.dumps(chain_to_dict(fill))))
    ma, mb = chain_measure(fill), chain_measure(back)
    assert np.array_equal(ma.x, mb.x)
    assert np.array_equal(ma.v, mb.v)
    assert np.array_equal(ma.w, mb.w)


def test_open_loop_rejected():
    c = Cell(T2, Box((0.0,), (1.0,)), AffineMap([0.1, 0.1], [[0.3, 0.0]]), 8)
    with pytest.raises(InvalidInputError):
        isoperimetric_fill(Chain(((1.0, c),)), 1)


# -- closing -----------------------------------------------------------

def test_close_up_n1_produces_near_cycle():
    tri, samples, records = pipeline_records(line_model(), leaf_count=4,
                                             extent=3.0)
    pairing = pair_cells(records, tri)
    records, _ = glue(records, pairing)
    beta, _ = assemble_beta(records)
    eta, hierarchy = close_up(beta, records, tri, leaves=samples.leaves)
    assert hierarchy["n_connectors"] >= 1
    mu_eta = chain_measure(eta)
    mu_eta = mu_eta.scaled(1.0 / mu_eta.total_mass())
    mu_beta = chain_measure(beta)
    assert hol_residual(mu_eta, 2) < 5e-3
    assert hol_residual(mu_beta, 2) > hol_residual(mu_eta, 2)


def endpoint_imbalance(chain, decimals=9):
    """Largest net coefficient at one point of the boundary 0-chain."""
    net = {}
    for a, cell in boundary(chain).terms:
        x = cell.torus.wrap(cell.map.x0)
        key = tuple(np.round(x * 10 ** decimals).astype(int) % 10 ** decimals)
        net[key] = net.get(key, 0.0) + a
    return max((abs(v) for v in net.values()), default=0.0)


def test_close_up_n1_boundary_cancels():
    tri, samples, records = pipeline_records(line_model(), leaf_count=4,
                                             extent=3.0)
    pairing = pair_cells(records, tri)
    records, _ = glue(records, pairing)
    beta, Z = assemble_beta(records)
    eta, _ = close_up(beta, records, tri, leaves=samples.leaves)
    # beta_k is open at the leaf ends; the closed eta_k has boundary zero as
    # a signed multiset of endpoints, not just a small holonomy residual
    assert endpoint_imbalance(beta) == pytest.approx(1.0 / Z)
    assert endpoint_imbalance(eta) <= 1e-12 / Z


def test_close_up_wrapping_patch_uses_cylinder_fills():
    model = plane_model()
    tri = TorusTriangulation(T3, 1)
    base = base_measure(model, tri)
    samples = sample_cells(base, seed=0, leaf_extent=1.0, leaf_count=1,
                           frame_jitter=1e-4)
    records = solve_cells(samples, nodes_per_unit=8.0)
    pairing = pair_cells(records, tri)
    records, _ = glue(records, pairing)
    beta, _ = assemble_beta(records)
    eta, hierarchy = close_up(beta, records, tri, leaves=samples.leaves)
    # the unit patch closes around the torus: cylinder fills, no cones
    assert hierarchy["n_cones"] == 0
    assert hierarchy["fill_mass"] < 1e-2
    mu = chain_measure(eta)
    assert hol_residual(mu.scaled(1.0 / mu.total_mass()), 2) < 1e-4


def test_link_loops_closes_across_the_seam():
    # one vertex computed on both sides of x1 = 1 still links one loop
    seam = [((0.5, 0.2), (0.99999999996, 0.2)), ((1.00000000001, 0.2), (0.5, 0.6)),
            ((0.5, 0.6), (0.5, 0.2))]
    inner = [((0.25, 0.2), (0.74999999996, 0.2)), ((0.75000000001, 0.2), (0.25, 0.6)),
             ((0.25, 0.6), (0.25, 0.2))]
    for segments in (seam, inner):
        loops = _link_loops(segments)
        assert len(loops) == 1 and len(loops[0]) == 3


def test_close_up_empty_rejected():
    with pytest.raises(InvalidInputError):
        close_up(Chain(()), [], None)


# -- driver ------------------------------------------------------------

def test_pipeline_config_defaults():
    cfg = PipelineConfig()
    assert cfg.k_min == 1 and cfg.k_max == 3
    assert cfg.lagrangians == {}
