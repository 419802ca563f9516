"""Constructive approximation of holonomic measures by cycles.

The pipeline: a fiberwise-infimum base measure per mesh simplex, stratified
sampling of leaf pieces, exact polytope clipping into affine cells, pairing
and C^1 gluing across faces, the normalized chain beta_k, and the closing
that joins or cones its unpaired boundary so that beta_k becomes an honest
cycle eta_k.  Implemented for n in {1, 2}, d <= 4.

Sampling is leaf-stratified: instead of independent points per simplex we
draw whole geodesic leaves (segments for n = 1, plane patches for n = 2)
from the velocity marginal and cut them along the mesh, so that consecutive
pieces share their parameterization and the chain closes at float precision.
Per-simplex densities enter through acceptance thinning of the pieces.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import InvalidInputError
from .measures import (DiscreteMeasure, SmoothDensityModel, TestFamily, hol_residual,
                       moment_distance)
from .chains import (
    AffineMap,
    Box,
    Cell,
    Chain,
    ComposedAffineParam,
    ConeMap,
    GluedMap,
    PolygonDomain,
    ShiftedCurve,
    cell_measure,
    chain_atoms,
    chain_measure,
    clip_polygon_halfspace,
    polygon_area,
    polygon_edge_rows,
    reparameterize_mass_matched,
)
from .triangulation import TorusTriangulation, TransversalityError


GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# base measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaseMeasure:
    """Per-simplex fiberwise infimum of the density (constant per simplex).

    chart_points holds the evaluation grid per top simplex; for x-constant
    models a single point suffices and the infimum is exact.
    """

    triangulation: TorusTriangulation
    model: SmoothDensityModel
    chart_points: np.ndarray  # (num_tops, q, d)

    def density(self, sim_index, v):
        """rho_bar_k(x, v) for frames v of shape (k, n, d).

        sim_index is one top-simplex index for all k frames, or k indices,
        one per frame.
        """
        v = np.asarray(v, float).reshape(-1, self.model.n, self.triangulation.torus.dim)
        pts = np.broadcast_to(self.chart_points[sim_index],
                              (len(v),) + self.chart_points.shape[1:])
        vals = np.stack([self.model(pts[:, j], v) for j in range(pts.shape[1])])
        return vals.min(axis=0)


def base_measure(model: SmoothDensityModel, tri: TorusTriangulation,
                 chart_resolution=2):
    """Largest density below the model that is constant per top simplex.

    The infimum over each simplex is taken over a barycentric grid (vertices,
    barycenter, and chart_resolution-refined convex combinations) followed by
    one local descent sweep toward the smallest grid value.
    """
    if model.torus.dim != tri.torus.dim:
        raise InvalidInputError("density model and mesh on different tori")
    tops = tri.top_simplices
    if model.x_constant:
        pts = np.stack([s.barycenter()[None] for s in tops])
        return BaseMeasure(tri, model, pts)
    # barycentric grid of the reference simplex, reused for all
    d = tri.torus.dim
    lam = []
    for comb in itertools.product(range(chart_resolution + 1), repeat=d + 1):
        if sum(comb) == chart_resolution:
            lam.append(np.array(comb, float) / chart_resolution)
    lam = np.array(lam)
    grids = np.stack([lam @ s.array() for s in tops])
    # local descent: nudge every grid point toward the simplex-wise argmin
    probe_v = (model.v_sampler(np.random.default_rng(0), 1)[0]
               if model.v_sampler else np.zeros((model.n, d)))
    refined = []
    for i, s in enumerate(tops):
        pts = grids[i]
        vals = model(pts, np.broadcast_to(probe_v, (len(pts),) + probe_v.shape))
        best = pts[int(np.argmin(vals))]
        extra = best[None] + 0.25 * (pts - best[None])
        refined.append(np.concatenate([pts, extra]))
    return BaseMeasure(tri, model, np.stack(refined))


# ---------------------------------------------------------------------------
# leaf sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Leaf:
    """One sampled leaf: affine map t -> anchor + t V over a fixed extent."""

    anchor: np.ndarray   # (d,)
    frame: np.ndarray    # (n, d)
    extent: tuple        # n=1: (0, length); n=2: ((lo1, lo2), (hi1, hi2))


@dataclass(frozen=True)
class PieceRecord:
    """One leaf piece inside one (lifted) top simplex.

    labels carries, per domain facet, either ("face", face_key) for a mesh
    facet crossing or ("end",) / ("rim",) for the leaf's own boundary.
    """

    leaf: int
    sim: int
    shift: tuple
    domain_data: object   # n=1: (t0, t1); n=2: (vertices array, labels list)
    labels: tuple


@dataclass(frozen=True)
class SampleSet:
    triangulation: TorusTriangulation
    base: BaseMeasure
    leaves: tuple         # of Leaf
    pieces: tuple         # of PieceRecord
    seed: int

    __test__ = False


def _frame_transversal(tri, V, tol=1e-6):
    """A2: the leaf plane meets every mesh face of dim >= d-n transversally."""
    d = tri.torus.dim
    n = V.shape[0]
    scale = np.linalg.norm(V) + 1e-300
    if n == d:
        return abs(np.linalg.det(V)) > tol * scale ** n
    for dirs in tri.face_directions(n):
        M = np.vstack([V, dirs])
        if M.shape[0] != d:
            continue
        s = np.prod(np.linalg.norm(M, axis=1) + 1e-300)
        if abs(np.linalg.det(M)) <= tol * s:
            return False
    return True


def _lift_of(tri, x):
    """(top index, integer shift) of the lifted simplex containing x."""
    w = tri.torus.wrap(np.asarray(x, float))
    idx = tri.locate_index(w)
    shift = np.round(x - w)
    return idx, shift


def _march_line(tri, anchor, v, length, t_start=0.0):
    """Cut the segment anchor + t v, t in [t_start, length], along the mesh."""
    pieces = []
    t = t_start
    eps = 1e-9 * max(tri.h, 1e-3)
    guard = 0
    max_pieces = int(20 * length / tri.h * (np.linalg.norm(v) + 1.0)) + 64
    while t < length - 1e-13:
        x_probe = anchor + (t + eps) * v
        idx, shift = _lift_of(tri, x_probe)
        halves, face_keys = tri.top_halfspaces(idx)
        t_exit, exit_face = length, ("end",)
        for j, (nu, p) in enumerate(halves):
            a = float(nu @ v)
            if a >= -1e-14:
                continue  # not an outgoing direction for this facet
            val = float(nu @ (anchor + t * v - p - shift))
            cand = t + val / (-a)
            if cand < t_exit - 1e-15:
                t_exit = cand
                exit_face = ("face", face_keys[j])
        if t_exit <= t + 1e-13:
            raise TransversalityError("leaf grazes a mesh face")
        t_exit = min(t_exit, length)
        lab_lo = ("end",) if guard == 0 and t_start == t else pieces[-1].labels[1]
        pieces.append(PieceRecord(0, idx, tuple(shift), (t, t_exit),
                                  (lab_lo, exit_face if t_exit < length else ("end",))))
        t = t_exit
        guard += 1
        if guard > max_pieces:
            raise InvalidInputError("leaf marching did not terminate")
    return pieces


def _patch_pieces(tri, anchor, V, extent):
    """BFS decomposition of the plane patch along the (lifted) mesh."""
    (lo1, lo2), (hi1, hi2) = extent
    square = np.array([[lo1, lo2], [hi1, lo2], [hi1, hi2], [lo1, hi2]], float)
    square_labels = [("rim",)] * 4
    center = square.mean(axis=0)
    x0 = anchor + center @ V
    start = _lift_of(tri, x0)
    queue = [start]
    seen = {(start[0], tuple(start[1]))}
    pieces = []
    eps = 1e-7 * tri.h
    while queue:
        idx, shift = queue.pop()
        poly, labels = square, list(square_labels)
        halves, face_keys = tri.top_halfspaces(idx)
        for j, (nu, p) in enumerate(halves):
            a_clip = -(V @ nu)
            b_clip = -float(nu @ (p + shift - anchor))
            poly, labels = clip_polygon_halfspace(poly, a_clip, b_clip, labels,
                                                  ("face", face_keys[j]))
            if len(poly) < 3:
                break
        if len(poly) < 3 or polygon_area(poly) < 1e-14:
            continue
        pieces.append(PieceRecord(0, idx, tuple(shift), (poly, list(labels)),
                                  tuple(labels)))
        for k, (outward, _) in enumerate(polygon_edge_rows(poly)):
            if labels[k][0] != "face":
                continue
            mid = 0.5 * (poly[k] + poly[(k + 1) % len(poly)])
            t_probe = mid + eps * (outward / (np.linalg.norm(outward) + 1e-300))
            x_probe = anchor + t_probe @ V
            nb = _lift_of(tri, x_probe)
            key = (nb[0], tuple(nb[1]))
            if key not in seen:
                seen.add(key)
                queue.append((nb[0], nb[1]))
    return pieces


_LATTICE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _kronecker_lattice(count, dims, rng):
    """Stratified low-discrepancy points in [0,1)^dims with seeded jitter.

    Distinct quadratic irrationals per coordinate; powers of one irrational
    would collapse onto a diagonal (frac(phi^2) = frac(phi)).
    """
    if dims > len(_LATTICE_PRIMES):
        raise InvalidInputError("lattice dimension too large")
    alphas = np.array([math.sqrt(p) % 1.0 for p in _LATTICE_PRIMES[:dims]])
    g = np.arange(count)[:, None]
    base = (g * alphas[None] + g / count * (np.arange(dims) == 0)[None]) % 1.0
    return (base + rng.random((count, dims)) / max(count, 1)) % 1.0


class _UniformFeed:
    """Generator facade whose first .random() call returns preset points.

    Lets a v_sampler built on inverse-CDF uniforms consume a stratified
    point set instead of i.i.d. draws; everything else falls through to
    the wrapped generator.
    """

    def __init__(self, u, rng):
        self._u = np.atleast_2d(np.asarray(u, float))
        self._rng = rng
        self._used = False

    def random(self, size=None):
        if not self._used and size is not None:
            self._used = True
            want = int(np.prod(size))
            if want == self._u.size:
                return self._u.reshape(size).copy()
        return self._rng.random(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


# size of the anchor and frame lattices; the lattice points depend on it, so
# changing it changes every sample
MAX_LEAVES = 100_000


def sample_cells(base: BaseMeasure, seed, leaf_count, leaf_extent=None,
                 frame_jitter=1e-6):
    """Leaf-stratified sampling of the base measure.

    Leaves are drawn until leaf_count of them are kept (the leaf sequence
    for a fixed seed is nested across calls, so runs at successive levels
    share their common leaves).  leaf_extent is the leaf length (n = 1) or
    the patch side (n = 2).
    """
    if leaf_count < 1:
        raise InvalidInputError("need at least one leaf")
    tri = base.triangulation
    model = base.model
    n = model.n
    d = tri.torus.dim
    if model.v_sampler is None:
        raise InvalidInputError("leaf sampling needs a v_sampler on the model")
    if leaf_extent is None:
        leaf_extent = 4.0 if n == 1 else 1.0
    rng = np.random.default_rng(np.random.Philox(seed))
    leaves, pieces = [], []
    anchors = _kronecker_lattice(MAX_LEAVES, d, rng)
    # stratified uniforms for the frame draws: the inverse-CDF sampler turns
    # these into a low-discrepancy sample of the v-marginal, so the frame
    # distribution of a k-leaf prefix converges like 1/k instead of 1/sqrt(k)
    frame_u = _kronecker_lattice(MAX_LEAVES, n * d, rng)
    x_const = model.x_constant
    g = 0
    while len(leaves) < leaf_count and g < MAX_LEAVES:
        a = anchors[g]
        V = model.v_sampler(_UniformFeed(frame_u[g], rng), 1)[0]
        tries = 0
        while not _frame_transversal(tri, V):
            V = V + frame_jitter * np.linalg.norm(V) * rng.standard_normal(V.shape)
            tries += 1
            if tries > 64:
                raise InvalidInputError("could not find a transversal frame (A2)")
        # A1: a tiny seeded jitter keeps anchors off the mesh hyperplanes
        a = a + 1e-7 * (rng.random(d) - 0.5)
        if n == 1:
            extent = (0.0, float(leaf_extent))
            try:
                ps = _march_line(tri, a, V[0], extent[1])
            except TransversalityError:
                g += 1
                continue
        else:
            h = float(leaf_extent) / 2.0
            extent = ((-h, -h), (h, h))
            ps = _patch_pieces(tri, a, V, extent)
        leaf_index = len(leaves)
        if not x_const:
            rho = base.density([p.sim for p in ps],
                               np.broadcast_to(V, (len(ps),) + V.shape))
            top = float(rho.max()) if len(rho) else 0.0
            if top <= 0:
                g += 1
                continue
            keep = rng.random(len(ps)) < rho / top
            ps = [p for p, k in zip(ps, keep) if k]
        leaves.append(Leaf(np.asarray(a, float), np.asarray(V, float), extent))
        pieces.extend(PieceRecord(leaf_index, p.sim, p.shift, p.domain_data,
                                  p.labels) for p in ps)
        g += 1
    if not pieces:
        raise InvalidInputError("sampling produced no cells")
    return SampleSet(tri, base, tuple(leaves), tuple(pieces), seed)


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------

@dataclass
class CellRecord:
    index: int
    leaf: int
    sim: int
    cell: Cell
    dvol: float
    labels: tuple         # per domain facet, as in PieceRecord
    # face traces for pairing: list of (facet_pos, face_key, x, V, tangent)
    traces: list = field(default_factory=list)
    paired: dict = field(default_factory=dict)   # facet_pos -> (rec, facet_pos)


def _resolution_for(size, nodes_per_unit):
    return max(2, int(math.ceil(size * nodes_per_unit)))


def solve_cells(samples: SampleSet, nodes_per_unit=16.0):
    """Materialize the affine cells with their exact clipped domains."""
    tri = samples.triangulation
    torus = tri.torus
    n = samples.base.model.n
    records = []
    leaf_maps = [AffineMap(lf.anchor, lf.frame) for lf in samples.leaves]
    for p in samples.pieces:
        amap = leaf_maps[p.leaf]
        if n == 1:
            t0, t1 = p.domain_data
            if t1 - t0 <= 1e-13:
                continue
            dom = Box((t0,), (t1,))
            dvol = t1 - t0
            res = _resolution_for(dvol, nodes_per_unit)
            cell = Cell(torus, dom, amap, res)
            rec = CellRecord(len(records), p.leaf, p.sim, cell, dvol, p.labels)
            for pos, lab in ((0, p.labels[0]), (1, p.labels[1])):
                if lab[0] != "face":
                    continue
                t_end = t0 if pos == 0 else t1
                x = amap(np.array([[t_end]]))[0]
                rec.traces.append((pos, lab[1], x, amap.V.copy(), None))
        else:
            poly, labels = p.domain_data
            area = polygon_area(poly)
            if area < 1e-14:
                continue
            dom = PolygonDomain(tuple(map(tuple, poly)))
            res = _resolution_for(math.sqrt(area), nodes_per_unit)
            cell = Cell(torus, dom, amap, res)
            rec = CellRecord(len(records), p.leaf, p.sim, cell, area, tuple(labels))
            for k, lab in enumerate(labels):
                if lab[0] != "face":
                    continue
                a_v = poly[k]
                b_v = poly[(k + 1) % len(poly)]
                mid = amap(0.5 * (a_v + b_v)[None])[0]
                tangent = amap(b_v[None])[0] - amap(a_v[None])[0]
                rec.traces.append((k, lab[1], mid, amap.V.copy(), tangent))
        records.append(rec)
    if not records:
        raise InvalidInputError("no nondegenerate cells")
    return records


# ---------------------------------------------------------------------------
# pairing and gluing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pairing:
    pairs: tuple          # of ((rec_index, facet_pos), (rec_index, facet_pos), gap)
    unpaired_ratio: float
    threshold: float


# candidate pairs per array pass of pair_cells: a chunk temporary holds this
# many rows, 1 MiB for the frame differences of n = 1 on T^2
_PAIR_CHUNK = 1 << 16


def _wrapped_gap(x, y):
    delta = np.asarray(x) - np.asarray(y)
    return float(np.linalg.norm(delta - np.round(delta)))


def _nearest_end(p, ends, penalty=None):
    """Index of the first end minimizing _wrapped_gap(p, end) (+ penalty).

    The gaps to all ends are one array, but a row-wise norm can differ from
    np.linalg.norm of that row in the last ulp, so every end within 1e-12 of
    the array minimum is re-measured with _wrapped_gap; the choice is then
    the one a scalar loop over the ends in order would make.
    """
    delta = np.asarray(p)[None] - ends
    delta -= np.round(delta)
    gaps = np.sqrt(np.einsum("ij,ij->i", delta, delta))
    if penalty is not None:
        gaps += penalty
    near = np.flatnonzero(gaps <= gaps.min() + 1e-12)
    exact = [_wrapped_gap(p, ends[i])
             + (0.0 if penalty is None else float(penalty[i])) for i in near]
    return int(near[int(np.argmin(exact))])


def _trace_gap(xa, Va, ta, xb, Vb, tb):
    """Pairing gap of two face traces (position x, frame V, edge tangent t).

    The wrapped position distance plus the frame distance, plus the
    edge-length difference when both traces carry a tangent (n = 2).
    `_trace_gaps` is its array form.
    """
    gap = _wrapped_gap(xa, xb) + float(np.linalg.norm(Va - Vb))
    if ta is not None and tb is not None:
        gap += abs(float(np.linalg.norm(ta)) - float(np.linalg.norm(tb)))
    return gap


def _trace_gaps(X, F, T, a, b):
    """`_trace_gap` of the trace pairs (a[i], b[i]) as one array, and the
    mask of the pairs whose `_trace_gap` is exactly 0.0.

    X holds positions, F flattened frames and T edge lengths (nan without a
    tangent), each computed as `_trace_gap` does.  A row-wise norm can
    differ from np.linalg.norm of that row in the last ulp, so these gaps
    only select candidates; a pair with equal wrapped positions, frames and
    edge lengths has gap 0.0 under both.
    """
    dx = X[a] - X[b]
    dx -= np.round(dx)
    dF = F[a] - F[b]
    dT = np.abs(T[a] - T[b])
    dT[np.isnan(dT)] = 0.0
    gaps = (np.sqrt(np.einsum("ij,ij->i", dx, dx))
            + np.sqrt(np.einsum("ij,ij->i", dF, dF)) + dT)
    zero = ~(dx.any(axis=1) | dF.any(axis=1)) & (dT == 0.0)
    return gaps, zero


def _near_trace_pairs(face, traces, sim, threshold):
    """(gap, a, b) for every pair a < b of traces on one face, with
    different sims and `_trace_gap` below threshold.

    face and sim are arrays, traces a list of (x, V, tangent).  Each face's
    positions are taken relative to its first trace and sorted along the
    axis of their widest spread.  Only pairs within w of each other on that
    axis are measured, since the wrapped distance along one axis bounds the
    gap from below; a face whose spread could wrap around the torus within
    w measures all its pairs.  The array gaps select candidates, and each
    one that is not exactly 0.0 is re-measured with `_trace_gap`.
    """
    m = len(traces)
    gaps, lo, hi = [np.zeros(0)], [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    if m < 2:
        return gaps[0], lo[0], hi[0]
    X = np.array([t[0] for t in traces], dtype=float)
    F = np.array([t[1] for t in traces], dtype=float).reshape(m, -1)
    T = np.array([np.nan if t[2] is None else float(np.linalg.norm(t[2]))
                  for t in traces])
    nf = int(face.max()) + 1
    by_face = np.argsort(face, kind="stable")
    starts = np.searchsorted(face[by_face], np.arange(nf))
    S = X - X[by_face[starts]][face]
    S -= np.round(S)
    span = (np.maximum.reduceat(S[by_face], starts)
            - np.minimum.reduceat(S[by_face], starts))
    axis = np.argmax(span, axis=1)
    s = S[np.arange(m), axis[face]]
    # the absolute slack covers the rounding of S
    w = threshold * (1.0 + 1e-9) + 1e-9
    dense = span[np.arange(nf), axis] >= 1.0 - w
    order = np.lexsort((s, face))
    fs, ss = face[order], s[order]
    dense = dense[fs]
    # sweep: pair each sorted trace with the one o places on, while both
    # share a face and lie within w; past that no later one can
    i = np.arange(m - 1)
    o = 1
    while i.size:
        i = i[(fs[i + o] == fs[i]) & (dense[i] | (ss[i + o] - ss[i] <= w))]
        a, b = order[i], order[i + o]
        a, b = np.minimum(a, b), np.maximum(a, b)
        keep = sim[a] != sim[b]
        a, b = a[keep], b[keep]
        for c in range(0, len(a), _PAIR_CHUNK):
            ca, cb = a[c:c + _PAIR_CHUNK], b[c:c + _PAIR_CHUNK]
            g, zero = _trace_gaps(X, F, T, ca, cb)
            sel = g < threshold * (1.0 + 1e-9)
            gaps.append(np.where(zero[sel], 0.0, np.nan))
            lo.append(ca[sel])
            hi.append(cb[sel])
        o += 1
        i = i[i + o < m]
    gap, a, b = (np.concatenate(v) for v in (gaps, lo, hi))
    for k in np.flatnonzero(np.isnan(gap)):
        gap[k] = _trace_gap(*traces[a[k]], *traces[b[k]])
    keep = gap < threshold
    return gap[keep], a[keep], b[keep]


def pair_cells(records, tri, threshold=None):
    """Greedy matching of face traces across each interior (d-1)-face.

    Two traces on one face, from cells of different top simplices, are
    candidates when their `_trace_gap` (position and frame, plus edge
    length for n = 2) is below the closeness bound, by default
    (diam T_k)^2.  Candidates are taken greedily in the order
    (gap, ia, pa, ib, pb), where (ia, pa) is the trace that comes first in
    record order, and each trace is paired at most once.
    """
    if threshold is None:
        threshold = tri.diameter ** 2
    keys = {}
    face, traces, ids, sims = [], [], [], []
    for rec in records:
        for pos, key, x, V, tangent in rec.traces:
            face.append(keys.setdefault(key, len(keys)))
            traces.append((x, V, tangent))
            ids += (rec.index, pos)
            sims.append(rec.sim)
    gap, a, b = _near_trace_pairs(np.array(face, dtype=int), traces,
                                  np.array(sims), threshold)
    owner = np.array(ids, dtype=int).reshape(-1, 2)
    (ia, pa), (ib, pb) = owner[a].T, owner[b].T
    order = np.lexsort((pb, ib, pa, ia, gap))
    candidates = zip(*(v[order].tolist() for v in (gap, ia, pa, ib, pb)))
    by_index = {rec.index: rec for rec in records}
    used = set()
    pairs = []
    for gap, ia, pa, ib, pb in candidates:
        if (ia, pa) in used or (ib, pb) in used:
            continue
        used.add((ia, pa))
        used.add((ib, pb))
        by_index[ia].paired[pa] = (ib, pb)
        by_index[ib].paired[pb] = (ia, pa)
        pairs.append(((ia, pa), (ib, pb), gap))
    total_traces = len(traces)
    unpaired = total_traces - 2 * len(pairs)
    ratio = unpaired / total_traces if total_traces else 0.0
    return Pairing(tuple(pairs), ratio, threshold)


def _facet_geometry(rec, pos):
    """(u, c, collar width, endpoints in t-space) of a domain facet."""
    dom = rec.cell.domain
    if rec.cell.n == 1:
        t0, t1 = dom.lo[0], dom.hi[0]
        if pos == 0:
            u = np.array([-1.0]); c = -t0
        else:
            u = np.array([1.0]); c = t1
        return u, float(c), 0.5 * (t1 - t0), (np.array([t0 if pos == 0 else t1]),) * 2
    poly = dom.polygon()
    a_v = poly[pos]
    b_v = poly[(pos + 1) % len(poly)]
    normal, _ = polygon_edge_rows(poly)[pos]
    u = normal / (np.linalg.norm(normal) + 1e-300)
    c = float(u @ a_v)
    inradius = 0.25 * math.sqrt(abs(polygon_area(poly)))
    return u, c, inradius, (a_v, b_v)


def glue(records, pairing: Pairing, snap_tol=1e-12):
    """C^1 Hermite blending of paired cells toward their averaged face trace.

    Pairs whose traces already coincide to float precision are left alone
    (the leaf sampler produces these); genuinely offset pairs are deformed
    in a collar of width min((diam)^2, half the cell) so that positions and
    first derivatives match across the face.  Degenerate blends are dropped.
    """
    by_index = {rec.index: rec for rec in records}
    blends = {}
    dropped = []
    for (ia, pa), (ib, pb), gap in pairing.pairs:
        if gap <= snap_tol:
            continue
        ra, rb = by_index[ia], by_index[ib]
        ea = [tr for tr in ra.traces if tr[0] == pa][0]
        eb = [tr for tr in rb.traces if tr[0] == pb][0]
        if ra.cell.n == 1:
            delta = np.asarray(eb[2]) - np.asarray(ea[2])
            delta -= np.round(delta)
            target_x = np.asarray(ea[2]) + 0.5 * delta
            target_v = 0.5 * (ea[3] + eb[3])
            for rec, pos, own_x, own_v in ((ra, pa, ea[2], ea[3]),
                                           (rb, pb, eb[2], eb[3])):
                u, c, wmax, _ = _facet_geometry(rec, pos)
                w = min(pairing.threshold, wmax)
                if w <= 1e-13:
                    dropped.append((rec.index, pos))
                    continue
                dp = (target_x - own_x)
                dp -= np.round(dp)
                dn = u[0] * (target_v[0] - own_v[0])
                blends.setdefault(rec.index, []).append(
                    {"u": u, "c": c, "w": w, "dp0": dp,
                     "dpJ": np.zeros((1, len(dp))), "dn": dn})
        else:
            amap_a, amap_b = ra.cell.map, rb.cell.map
            ua, ca, wa, (a0, a1) = _facet_geometry(ra, pa)
            ub, cb, wb, (b0, b1) = _facet_geometry(rb, pb)
            pa0, pa1 = amap_a(a0[None])[0], amap_a(a1[None])[0]
            pb0, pb1 = amap_b(b0[None])[0], amap_b(b1[None])[0]
            # opposite orientation across the face: a0 matches b1
            d0 = (pb1 - pa0); d0 -= np.round(d0)
            d1 = (pb0 - pa1); d1 -= np.round(d1)
            r0, r1 = pa0 + 0.5 * d0, pa1 + 0.5 * d1
            # outward normal velocities: continuity wants them opposite
            na = ua @ amap_a.V
            nb = ub @ amap_b.V
            dn_a = 0.5 * (-nb - na)
            dn_b = 0.5 * (-na - nb)
            for rec, pos, u, c, wmax, e0, e1, q0, q1, dn in (
                    (ra, pa, ua, ca, wa, a0, a1, r0, r1, dn_a),
                    (rb, pb, ub, cb, wb, b0, b1, r1, r0, dn_b)):
                own0 = rec.cell.map(e0[None])[0]
                own1 = rec.cell.map(e1[None])[0]
                dp_start = q0 - own0; dp_start -= np.round(dp_start)
                dp_end = q1 - own1; dp_end -= np.round(dp_end)
                tau = e1 - e0
                L2 = float(tau @ tau)
                if L2 <= 1e-20:
                    dropped.append((rec.index, pos))
                    continue
                dpJ = np.outer(tau / L2, dp_end - dp_start)
                dp0 = dp_start - float(e0 @ tau) / L2 * (dp_end - dp_start)
                w = min(pairing.threshold, wmax)
                if w <= 1e-13:
                    dropped.append((rec.index, pos))
                    continue
                blends.setdefault(rec.index, []).append(
                    {"u": u, "c": c, "w": w, "dp0": dp0, "dpJ": dpJ, "dn": dn})
    out = []
    for rec in records:
        if rec.index in blends:
            new_map = GluedMap(rec.cell.map, blends[rec.index])
            cell = Cell(rec.cell.torus, rec.cell.domain, new_map,
                        rec.cell.resolution)
            new_rec = CellRecord(rec.index, rec.leaf, rec.sim, cell, rec.dvol,
                                 rec.labels, rec.traces, rec.paired)
            out.append(new_rec)
        else:
            out.append(rec)
    return out, dropped


# ---------------------------------------------------------------------------
# beta assembly
# ---------------------------------------------------------------------------

def assemble_beta(records):
    """Normalized chain beta_k and its normalizer Z.

    Every cell gets the coefficient 1/Z, with Z the total domain volume, so
    the induced measure of beta_k has total mass one.
    """
    Z = sum(rec.dvol for rec in records)
    if Z <= 0:
        raise InvalidInputError("empty sample set")
    coeff = 1.0 / Z
    return Chain(tuple((coeff, rec.cell) for rec in records)), Z


# ---------------------------------------------------------------------------
# isoperimetric fillings
# ---------------------------------------------------------------------------

def _segment_cell(torus, a, b, resolution=4):
    """Unit-speed straight segment from a to b along the short representative."""
    disp = np.asarray(b, float) - np.asarray(a, float)
    disp = disp - np.round(disp)
    length = float(np.linalg.norm(disp))
    if length < 1e-300:
        return None, 0.0
    dom = Box((0.0,), (length,))
    return Cell(torus, dom, AffineMap(a, [disp / length]), resolution), length


def isoperimetric_fill(theta: Chain, m, apex=None, tol=1e-9):
    """Barycentric cone filling of a pairing-level cycle.

    m = 0: theta is a signed 0-chain with canceling weights; the fill joins
    matched +/- points by straight segments (min-cost greedy matching).
    m = 1: theta is a closed 1-chain; each 1-cell is coned to the apex
    (default: the centroid of the cell endpoints), so that the boundary of
    the fill reproduces theta exactly at the pairing level.  Returns the
    fill together with mass statistics and the measured coning constant.
    """
    if not theta.terms:
        return Chain(()), {"mass": 0.0, "boundary_mass": 0.0, "constant": 0.0}
    torus = theta.terms[0][1].torus
    if m == 0:
        plus, minus = [], []
        for a, cell in theta.terms:
            x = cell.map(np.zeros((1, 0)))[0] if cell.n == 0 else cell.map.x0
            (plus if a > 0 else minus).append((abs(a), x))
        if abs(sum(w for w, _ in plus) - sum(w for w, _ in minus)) > tol:
            raise InvalidInputError("0-chain weights do not cancel")
        fills = []
        total = 0.0
        weights = [wq for wq, _ in minus]
        ends = np.array([q for _, q in minus]).reshape(-1, torus.dim)
        for w, p in plus:
            if not len(ends):
                break
            j = _nearest_end(p, ends)
            wq, q = weights.pop(j), ends[j]
            ends = np.delete(ends, j, axis=0)
            # connect the minus point to the plus point: boundary = +p - q
            seg, length = _segment_cell(torus, q, p)
            if seg is not None:
                fills.append((min(w, wq), seg))
                total += min(w, wq) * length
        fill = Chain(tuple(fills))
        return fill, {"mass": total, "boundary_mass": float(sum(abs(a) for a, _ in theta.terms)),
                      "constant": 0.0}
    if m != 1:
        raise InvalidInputError("fillings implemented for m in {0, 1}")
    # closed 1-chain: verify closure at the pairing level
    ends = {}
    pts = []
    for a, cell in theta.terms:
        lo, hi = cell.domain.interval()
        p0 = cell.map(np.array([[lo]]))[0]
        p1 = cell.map(np.array([[hi]]))[0]
        pts.extend([p0, p1])
        for p, s in ((p1, a), (p0, -a)):
            key = tuple(np.round(torus.wrap(p) * 1e9).astype(int) % int(1e9))
            ends[key] = ends.get(key, 0.0) + s
    worst = max((abs(v) for v in ends.values()), default=0.0)
    if worst > tol:
        raise InvalidInputError(f"1-chain is not a cycle (residual {worst:.2e})")
    pts = np.array(pts)
    anchor = pts[0]
    rep = pts - np.round(pts - anchor[None])
    apex = np.asarray(apex, float) if apex is not None else rep.mean(axis=0)
    fills = []
    mass = 0.0
    perimeter = 0.0
    diam = 0.0
    for a, cell in theta.terms:
        cone = ConeMap(ShiftedCurve(cell.map, apex), apex)
        res = 1 << max(1, int(math.ceil(math.log2(cell.resolution + 1))))
        # the ccw square boundary traverses the curve edge reversed, so the
        # fill needs the opposite coefficient for d(sigma) = theta
        fills.append((-a, Cell(torus, Box((0.0, 0.0), (1.0, 1.0)), cone, res)))
        mu = cell_measure(cell)
        perimeter += abs(a) * mu.mass()
        diam = max(diam, 2.0 * float(np.max(np.linalg.norm(
            mu.x - np.round(mu.x - apex[None]) - apex[None], axis=1))))
        mass += abs(a) * cell_measure(fills[-1][1]).mass()
    constant = mass / max(perimeter ** 2, 1e-300)
    return Chain(tuple(fills)), {"mass": mass, "boundary_mass": perimeter,
                                 "constant": constant, "diam": diam}


# ---------------------------------------------------------------------------
# closing
# ---------------------------------------------------------------------------

def close_up(beta: Chain, records, tri, connector_resolution=6, leaves=None):
    """Close beta_k into a cycle eta_k, per the inductive E-conditions.

    The closing is read off the records' pairing (`CellRecord.paired`, as
    filled by `pair_cells`): paired facets cancel as they are, and only the
    unpaired boundary gets new material.

    n = 1: paired endpoints cancel at float precision by construction; the
    remaining signed endpoints are joined by short unit-speed segments
    (greedy min-cost matching, same-simplex matches first).

    n = 2: paired polygon edges cancel.  Leaves whose frame closes up around
    the torus (extent times frame within a hair of an integer vector) have
    their opposite rims identified by thin ruled cylinders along the
    fractional offset, plus one parallelogram patch for the corner stick;
    that closing is exact and its mass is proportional to the offset.  Any
    remaining boundary edge is coned (to the barycenter of its mesh face
    when it lies on one, to the simplex barycenter otherwise), and the
    alternating spoke residue is linked into closed loops which are coned
    to their centroids.
    """
    if not beta.terms:
        raise InvalidInputError("cannot close an empty chain")
    torus = beta.terms[0][1].torus
    n = beta.terms[0][1].n
    coeff = beta.terms[0][0]
    hierarchy = {"connector_mass": 0.0, "fill_mass": 0.0,
                 "n_connectors": 0, "n_cones": 0, "n_loops": 0}
    extra = []
    if n == 1:
        plus, minus = [], []
        for rec in records:
            lo, hi = rec.cell.domain.interval()
            for pos, t_end, sign in ((0, lo, -1.0), (1, hi, 1.0)):
                if pos in rec.paired:
                    continue
                x = rec.cell.map(np.array([[t_end]]))[0]
                (plus if sign > 0 else minus).append((rec.sim, x))
        # match within simplices first, then globally, greedily by distance
        sims = np.array([sim for sim, _ in minus], dtype=int)
        ends = np.array([q for _, q in minus]).reshape(-1, torus.dim)
        order = sorted(range(len(plus)), key=lambda i: plus[i][0])
        for i in order:
            sim_p, p = plus[i]
            if not len(ends):
                break
            j = _nearest_end(p, ends, np.where(sims == sim_p, 0.0, 0.25))
            q = ends[j]
            sims, ends = np.delete(sims, j), np.delete(ends, j, axis=0)
            seg, length = _segment_cell(torus, p, q, connector_resolution)
            if seg is None:
                continue
            extra.append((coeff, seg))
            hierarchy["connector_mass"] += coeff * length
            hierarchy["n_connectors"] += 1
        eta = Chain(beta.terms + tuple(extra))
        return eta, hierarchy
    if n != 2:
        raise InvalidInputError("closing implemented for n in {1, 2}")
    # --- n = 2: identify wrap-closing leaves ---------------------------
    closing_leaves = {}
    if leaves is not None:
        for gi, lf in enumerate(leaves):
            (lo1, lo2), (hi1, hi2) = lf.extent
            disp = np.array([(hi1 - lo1), (hi2 - lo2)])[:, None] * lf.frame
            frac = disp - np.round(disp)
            if (np.abs(frac).max() < 1e-2
                    and np.abs(np.round(disp)).sum() >= 1):
                closing_leaves[gi] = ((lo1, lo2), (hi1, hi2), frac)
    for gi, ((lo1, lo2), (hi1, hi2), frac) in closing_leaves.items():
        lf = leaves[gi]
        anchor, V = lf.anchor, lf.frame
        res = max(2, int(math.ceil(max(hi1 - lo1, hi2 - lo2) * 8)))
        # cylinder identifying the two t2-rims (bottom with top), and the
        # analogous one for the t1-rims; orientations cancel the patch rim
        fill2 = Cell(torus, Box((lo1, 0.0), (hi1, 1.0)),
                     AffineMap(anchor + lo2 * V[1], [V[0], frac[1]]), res)
        fill1 = Cell(torus, Box((lo2, 0.0), (hi2, 1.0)),
                     AffineMap(anchor + lo1 * V[0], [V[1], frac[0]]), res)
        corner = Cell(torus, Box((0.0, 0.0), (1.0, 1.0)),
                      AffineMap(anchor + lo1 * V[0] + lo2 * V[1],
                                [frac[0], frac[1]]), 2)
        for sign, cell in ((-coeff, fill2), (coeff, fill1), (coeff, corner)):
            try:
                cell = reparameterize_mass_matched(cell)
            except InvalidInputError:
                pass  # fully degenerate offset; keep the thin original
            extra.append((sign, cell))
        hierarchy["n_connectors"] += 2
    # --- cone unmatched boundary edges ---------------------------------
    face_bary = {}
    for rec in records:
        top = tri.top_simplices[rec.sim]
        for f in top.facets():
            face_bary.setdefault(f.key(), f.barycenter())
    spokes = []  # directed residue segments left over from the edge cones
    cones = []
    for rec in records:
        if rec.leaf in closing_leaves:
            continue  # rims handled by the wrap cylinders above
        poly = rec.cell.domain.polygon()
        top_bary = tri.top_simplices[rec.sim].barycenter()
        for k in range(len(poly)):
            if k in rec.paired:
                # matched seams cancel; pairing gaps beyond snap tolerance
                # are deformed away by the gluing stage and any leftover
                # enters the reported holonomy residual
                continue
            a_v, b_v = poly[k], poly[(k + 1) % len(poly)]
            p0 = rec.cell.map(a_v[None])[0]
            p1 = rec.cell.map(b_v[None])[0]
            lab = rec.labels[k] if k < len(rec.labels) else ("rim",)
            if lab[0] == "face" and lab[1] in face_bary:
                apex = face_bary[lab[1]]
            else:
                apex = top_bary
            apex = apex - np.round(apex - 0.5 * (p0 + p1))
            emap = ComposedAffineParam(rec.cell.map, (b_v - a_v).reshape(1, 2),
                                       a_v)
            cone = ConeMap(ShiftedCurve(emap, apex), apex)
            res = 1 << max(1, int(math.ceil(math.log2(max(
                2, rec.cell.resolution // 2)))))
            cell = Cell(torus, Box((0.0, 0.0), (1.0, 1.0)), cone, res)
            cones.append((coeff, cell))
            # leftover boundary of the cone: apex -> p1 and p0 -> apex
            spokes.append((tuple(apex), tuple(p1)))
            spokes.append((tuple(p0), tuple(apex)))
            hierarchy["n_cones"] += 1
    extra.extend(cones)
    # --- residue loops: alternating apex/vertex paths ------------------
    # consecutive cones share endpoints, so the spokes chain into closed
    # loops; each loop is coned to its own centroid, whose spokes cancel
    # pairwise around the loop
    loops = _link_loops(spokes)
    hierarchy["n_loops"] = len(loops)
    for loop in loops:
        pts = np.array([p for p, _ in loop])
        rep = pts - np.round(pts - pts[0][None])
        centroid = rep.mean(axis=0)
        for a, b in loop:
            seg, length = _segment_cell(torus, a, b, 4)
            if seg is None:
                continue
            cmap = ConeMap(ShiftedCurve(seg.map, centroid), centroid)
            cell = Cell(torus, Box((0.0, 0.0), (length, 1.0)), cmap, 4)
            extra.append((coeff, cell))
    eta = Chain(beta.terms + tuple(extra))
    for a, cell in extra:
        hierarchy["fill_mass"] += abs(a) * cell_measure(cell).mass()
    return eta, hierarchy


def _link_loops(segments, decimals=9):
    """Link directed segments into closed paths by endpoint matching.

    Returns a list of paths (lists of (start, end)); paths are closed loops
    whenever the segment multiset is balanced at every node, which the cone
    construction guarantees up to gluing residuals.
    """
    def key(p):
        q = np.asarray(p, float)
        return tuple(np.round(q - np.floor(q), decimals) % 1.0)

    outgoing = {}
    for i, (a, _) in enumerate(segments):
        outgoing.setdefault(key(a), []).append(i)
    used = set()
    loops = []
    for i in range(len(segments)):
        if i in used:
            continue
        loop = []
        cur = i
        while cur is not None and cur not in used:
            used.add(cur)
            loop.append(segments[cur])
            nxt = None
            for j in outgoing.get(key(segments[cur][1]), []):
                if j not in used:
                    nxt = j
                    break
            cur = nxt
        if loop:
            loops.append(loop)
    return loops


# ---------------------------------------------------------------------------
# end-to-end driver
# ---------------------------------------------------------------------------

@dataclass
class PipelineConfig:
    k_max: int = 3
    k_min: int = 1
    leaves: int = 4               # leaf count at k = k_min (doubles per level
                                  # for n = 1, fixed for n = 2)
    leaf_length: float = 3.0      # n=1 leaf length at k_min, grows ~sqrt(2)/level
    patch_size: float = 1.0       # n=2 patch side
    seed: int = 0
    frame_jitter: float = 1e-6    # A2 nudge scale at k_min (halves per level)
    nodes_per_unit: float = 64.0  # quadrature subintervals per unit length
    lagrangians: dict = field(default_factory=dict)


HOL_CUTOFF = 2            # Fourier cutoff of the reported hol_residual
DIST_TRUNCATION = 16      # test-function truncation of the reported dists
REFERENCE_X_RES = 8       # reference cloud: grid points per axis
REFERENCE_V_SAMPLES = 64  # reference cloud: velocity samples per grid point


def _reference_cloud(model: SmoothDensityModel, cfg: PipelineConfig):
    """Deterministic atom cloud of the input measure for distance reporting."""
    rng = np.random.default_rng(np.random.Philox(cfg.seed + 104729))
    d = model.torus.dim
    res = REFERENCE_X_RES
    xs = np.stack(np.meshgrid(*([(np.arange(res) + 0.5) / res] * d),
                              indexing="ij"), axis=-1).reshape(-1, d)
    if model.v_sampler is None:
        raise InvalidInputError("reference cloud needs a v_sampler")
    K = REFERENCE_V_SAMPLES
    u = _kronecker_lattice(K, model.n * d, rng)
    vs = model.v_sampler(_UniformFeed(u, rng), K)
    x_all = np.repeat(xs, K, axis=0)
    v_all = np.tile(vs, (len(xs), 1, 1))
    w = np.full(len(x_all), 1.0 / len(x_all))
    return DiscreteMeasure(model.torus, model.n, x_all, v_all, w)


def _base_cloud(ref: DiscreteMeasure, base: BaseMeasure):
    """The base-measure cloud on the reference grid (rho_bar / rho weights)."""
    tri = base.triangulation
    model = base.model
    if model.x_constant:
        return ref
    # the reference atoms repeat each grid point, so locate the points once
    xs, inverse = np.unique(ref.x, axis=0, return_inverse=True)
    sims = np.array([tri.locate_index(x) for x in xs])[inverse.reshape(-1)]
    rho = model(ref.x, ref.v)
    rho_bar = base.density(sims, ref.v)
    w = ref.w.copy()
    pos = rho > 1e-300
    w[pos] *= rho_bar[pos] / rho[pos]
    return DiscreteMeasure(ref.torus, ref.n, ref.x, ref.v, w)


def _quadrature_chains(samples, beta, eta, records, nodes_per_unit):
    """Leaf-merged chains carrying the same current as beta and eta.

    The pieces of one leaf share a single affine map and their domains
    partition the leaf extent, so when no piece was thinned away
    (x-constant models) and no blend was applied, grouping them back into
    one cell per leaf changes only the quadrature bookkeeping, not the
    induced current.  Falls back to the piece-level chains otherwise.
    """
    model = samples.base.model
    mergeable = model.x_constant and not any(
        isinstance(rec.cell.map, GluedMap) for rec in records)
    if not mergeable:
        return beta, eta
    coeff = beta.terms[0][0]
    torus = samples.triangulation.torus
    terms = []
    for lf in samples.leaves:
        amap = AffineMap(lf.anchor, lf.frame)
        if model.n == 1:
            lo, hi = lf.extent
            dom = Box((lo,), (hi,))
            res = _resolution_for(hi - lo, nodes_per_unit)
        else:
            dom = Box(tuple(lf.extent[0]), tuple(lf.extent[1]))
            side = max(h - l for l, h in zip(lf.extent[0], lf.extent[1]))
            res = _resolution_for(side, nodes_per_unit)
        terms.append((coeff, Cell(torus, dom, amap, res)))
    extra = eta.terms[len(beta.terms):]
    return Chain(tuple(terms)), Chain(tuple(terms) + extra)


def approximate(model: SmoothDensityModel, cfg: PipelineConfig = None,
                progress=None):
    """Run the full pipeline for k = k_min..k_max and report convergence.

    The report rows contain the three distance summands, the mass and
    total-mass gaps, the holonomy residual of the produced cycle, action
    gaps for the configured Lagrangians, and the rotation vector.  A stage
    failure, or a level whose cycle measure does not have total mass 1
    within 1e-9, raises InvalidInputError naming the level.
    """
    if cfg is None:
        cfg = PipelineConfig()
    if model.n not in (1, 2):
        raise InvalidInputError("pipeline implemented for n in {1, 2}")
    torus = model.torus
    family = TestFamily(torus, model.n)
    ref = _reference_cloud(model, cfg)
    # each measure's test-function moments are computed once and shared by
    # every distance it enters
    ref_moments = family.moments(ref, DIST_TRUNCATION)
    rows = []
    artifacts = []
    for k in range(cfg.k_min, cfg.k_max + 1):
        tri = TorusTriangulation(torus, k)
        stage = "base-measure"
        try:
            base = base_measure(model, tri)
            stage = "sampling"
            count = max(1, int(round(cfg.leaves * 2.0 ** (k - cfg.k_min))))
            if model.n == 1:
                extent = cfg.leaf_length * 2.0 ** (0.5 * (k - cfg.k_min))
            else:
                extent = cfg.patch_size
            jitter = cfg.frame_jitter * 2.0 ** -(k - cfg.k_min)
            samples = sample_cells(base, cfg.seed, count, leaf_extent=extent,
                                   frame_jitter=jitter)
            stage = "cells"
            records = solve_cells(samples, nodes_per_unit=cfg.nodes_per_unit)
            stage = "pairing"
            pairing = pair_cells(records, tri)
            stage = "gluing"
            records, dropped = glue(records, pairing)
            stage = "beta"
            beta, Z = assemble_beta(records)
            stage = "closing"
            eta, hierarchy = close_up(beta, records, tri, leaves=samples.leaves)
        except (InvalidInputError, TransversalityError) as exc:
            raise InvalidInputError(f"stage {stage} failed at k={k}: {exc}") from exc
        quad_beta, quad_eta = _quadrature_chains(samples, beta, eta, records,
                                                 cfg.nodes_per_unit)
        # quad_beta's cells are the first cells of quad_eta (close_up only
        # appends), so one quadrature serves all three measures
        atoms = chain_atoms(quad_eta)
        mu_beta = chain_measure(quad_beta, atoms)
        mu_eta_raw = chain_measure(quad_eta, atoms)
        scale = mu_eta_raw.total_mass()
        eta_prob = quad_eta.scaled(1.0 / scale)
        mu_eta = chain_measure(eta_prob, atoms)
        total = mu_eta.total_mass()
        if abs(total - 1.0) > 1e-9:
            raise InvalidInputError(f"cycle measure at k={k} is not a "
                                    f"probability (mass {total})")
        base_cloud = _base_cloud(ref, base)
        base_moments = (ref_moments if base_cloud is ref
                        else family.moments(base_cloud, DIST_TRUNCATION))
        beta_moments = family.moments(mu_beta, DIST_TRUNCATION)
        eta_moments = family.moments(mu_eta, DIST_TRUNCATION)
        row = {
            "k": k,
            "cells": len(records),
            "leaves": len(samples.leaves),
            "Z": Z,
            "unpaired_ratio": pairing.unpaired_ratio,
            "dist_mu_base": moment_distance(ref_moments, base_moments, family),
            "dist_base_beta": moment_distance(base_moments, beta_moments, family),
            "dist_beta_eta": moment_distance(beta_moments, eta_moments, family),
            "dist_mu_eta": moment_distance(ref_moments, eta_moments, family),
            "mass_beta": float(beta_moments[0]),
            "mass_eta": mu_eta_raw.mass(),
            # total-variation reading: the closing material can only add mass
            "mass_gap": hierarchy["connector_mass"] + hierarchy["fill_mass"],
            "total_mass_gap": abs(mu_eta_raw.total_mass() - mu_beta.total_mass()),
            "hol_residual": hol_residual(mu_eta, HOL_CUTOFF),
            "connector_mass": hierarchy["connector_mass"],
            "fill_mass": hierarchy["fill_mass"],
            "rotation": [float(t) for t in
                         np.sum(mu_eta.w[:, None, None] * mu_eta.v, axis=0)
                         .reshape(-1)],
            "rotation_mu": [float(t) for t in
                            np.sum(ref.w[:, None, None] * ref.v, axis=0)
                            .reshape(-1)],
        }
        for name, L in cfg.lagrangians.items():
            row[f"action_gap_{name}"] = abs(ref.integrate(L) - mu_eta.integrate(L))
        rows.append(row)
        artifacts.append({"eta": eta_prob, "beta": beta, "eta_cells": eta,
                          "tri": tri})
        if progress:
            progress(row)
    return {"rows": rows, "artifacts": artifacts, "config": cfg}
