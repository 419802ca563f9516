"""Kuhn-triangulation refinement family on the torus and the boundary balance.

Each dyadic grid cube is split into d! simplices along coordinate
permutation paths, which makes the level-k mesh an exact refinement of the
level-(k-1) mesh and gives trivial point location.  On top of the mesh live
the facet pieces of each simplex, the nested simplex chains, and the
boundary-balance functional that counts the signed crossings of a chain of
affine cells with the skeleton.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import FlatTorus, InvalidInputError
from .chains import AffineMap, Chain


class TransversalityError(Exception):
    """A cell meets a simplex face tangentially or at a corner."""


@dataclass(frozen=True)
class Simplex:
    """m-simplex with unwrapped vertex coordinates inside one grid cube frame."""

    level: int
    vertices: tuple  # (m+1) tuples of d floats, unwrapped

    @property
    def dim(self):
        return len(self.vertices) - 1

    @property
    def ambient_dim(self):
        return len(self.vertices[0])

    def array(self):
        return np.array(self.vertices, float)

    def barycenter(self):
        return self.array().mean(axis=0)

    def key(self):
        """Wrap-invariant identity.

        Vertex lattice coordinates alone do not separate faces at coarse
        levels (the two lifted diagonals of a 2x2 torus grid share their
        endpoints), so the wrapped barycenter is part of the key.  Barycenter
        coordinates are multiples of h/60 for every face dimension up to 4.
        """
        res = 1 << self.level
        verts = frozenset(
            tuple(int(round(c * res)) % res for c in v) for v in self.vertices)
        bary = self.barycenter()
        bkey = tuple(int(round(c * res * 60)) % (res * 60) for c in bary)
        return verts, bkey

    def facets(self):
        """The (m-1)-faces, in drop-vertex order."""
        return [Simplex(self.level, self.vertices[:j] + self.vertices[j + 1:])
                for j in range(len(self.vertices))]

    def volume(self):
        v = self.array()
        e = v[1:] - v[0]
        g = e @ e.T
        return math.sqrt(max(float(np.linalg.det(g)), 0.0)) / math.factorial(self.dim)

    def contains(self, x, tol=1e-10):
        """Barycentric membership for a top-dimensional simplex."""
        v = self.array()
        lam = np.linalg.solve((v[1:] - v[0]).T, np.asarray(x, float) - v[0])
        return lam.min() >= -tol and lam.sum() <= 1 + tol


def _facet_normal(facet_vertices, inward_vertex):
    """Unit normal of the hyperplane through the facet, oriented inward."""
    p0 = facet_vertices[0]
    e = facet_vertices[1:] - p0
    # null direction of the facet within the ambient/affine-hull space
    full = np.vstack([e, (inward_vertex - p0)[None]])
    q, _ = np.linalg.qr(full.T)
    n = q[:, -1]
    if n @ (inward_vertex - p0) < 0:
        n = -n
    return n, p0


class TorusTriangulation:
    """The level-k Kuhn mesh of T^d with skeleta, half-spaces, nested chains."""

    def __init__(self, torus: FlatTorus, level: int, max_top_simplices=2_000_000):
        if not 1 <= torus.dim <= 4:
            raise InvalidInputError("triangulation supports 1 <= d <= 4")
        if level < 1:
            raise InvalidInputError("level must be at least 1")
        d = torus.dim
        count = math.factorial(d) * (1 << (level * d))
        if count > max_top_simplices:
            raise InvalidInputError(
                f"requested mesh has {count} top simplices, over the limit")
        self.torus = torus
        self.level = level
        self.h = 2.0 ** -level
        self._perm_index = {p: i for i, p in
                            enumerate(sorted(itertools.permutations(range(d))))}
        self._tops = self._build_tops()
        self._skeletons = {}
        self._halfspaces = {}       # top index -> (half-spaces, facet keys)
        self._face_directions = {}  # n -> direction matrices of (d-n)-faces
        self._check_invariants()

    # -- construction -------------------------------------------------
    def _build_tops(self):
        res = 1 << self.level
        return [Simplex(self.level, _kuhn_vertices(np.array(cube), perm, self.h))
                for cube in itertools.product(range(res), repeat=self.torus.dim)
                for perm in self._perm_index]

    def _check_invariants(self):
        d = self.torus.dim
        assert len(self._tops) == math.factorial(d) * (1 << (self.level * d))
        # non-degeneracy (T5) on a sample; all Kuhn simplices are congruent
        assert self._tops[0].volume() > 0
        # refinement coherence (T1) on a sample of simplices
        if self.level > 1:
            step = max(1, len(self._tops) // 64)
            for s in self._tops[::step]:
                parent = locate_simplex(self.torus, self.level - 1, s.barycenter())
                v = parent.array()
                for w in s.vertices:
                    rep = _nearest_representative(np.array(w), parent.barycenter())
                    lam = np.linalg.solve((v[1:] - v[0]).T, rep - v[0])
                    assert lam.min() > -1e-9 and lam.sum() < 1 + 1e-9

    # -- queries ------------------------------------------------------
    @property
    def diameter(self):
        return math.sqrt(self.torus.dim) * self.h

    @property
    def top_simplices(self):
        return self._tops

    def skeleton(self, m):
        if not 0 <= m <= self.torus.dim:
            raise InvalidInputError("skeleton dimension out of range")
        if m not in self._skeletons:
            seen = {}
            for top in self._tops:
                for face in _faces_of(top, m):
                    seen.setdefault(face.key(), face)
            self._skeletons[m] = [seen[k] for k in sorted(seen, key=_key_sort)]
        return self._skeletons[m]

    def locate(self, x):
        return locate_simplex(self.torus, self.level, x)

    def locate_index(self, x):
        """Index of the containing top simplex in top_simplices order."""
        res = 1 << self.level
        cube, perm = _kuhn_cell(self.torus, self.level, x)
        cube_index = 0
        for c in cube:
            cube_index = cube_index * res + int(c)
        return cube_index * len(self._perm_index) + self._perm_index[tuple(perm)]

    def top_halfspaces(self, idx):
        """(half-spaces, facet keys) of the idx-th top simplex, cached.

        The half-spaces are the facet pieces (inward unit normal, base
        point) of the simplex, in drop-vertex order like its facets.
        """
        if idx not in self._halfspaces:
            top = self._tops[idx]
            self._halfspaces[idx] = (facet_pieces(top)[0],
                                     [f.key() for f in top.facets()])
        return self._halfspaces[idx]

    def face_directions(self, n):
        """Direction matrices of the (d-n)-faces of the reference simplices.

        The d! tops of the first grid cube carry every face direction of the
        mesh; one matrix per distinct direction, cached per n.
        """
        if n not in self._face_directions:
            m = self.torus.dim - n
            mats = {}
            # vertices (m = 0) have no directions
            for top in self._tops[:len(self._perm_index)] if m > 0 else []:
                verts = top.array()
                for comb in itertools.combinations(range(len(verts)), m + 1):
                    dirs = verts[list(comb[1:])] - verts[comb[0]]
                    key = tuple(np.round(dirs * (1 << self.level))
                                .astype(int).reshape(-1))
                    mats[key] = dirs
            self._face_directions[n] = list(mats.values())
        return self._face_directions[n]

    def nested_chains(self, length):
        """Properly nested chains V_1 > ... > V_l, dim V_i = d - i + 1."""
        if not 1 <= length <= self.torus.dim:
            raise InvalidInputError("chain length out of range")
        chains = [(top,) for top in self._tops]
        for _ in range(length - 1):
            nxt = []
            for c in chains:
                for f in c[-1].facets():
                    nxt.append(c + (f,))
            chains = nxt
        return chains


def _key_sort(key):
    verts, bary = key
    return (tuple(sorted(verts)), bary)


def _faces_of(simplex, m):
    verts = simplex.vertices
    return [Simplex(simplex.level, tuple(verts[i] for i in comb))
            for comb in itertools.combinations(range(len(verts)), m + 1)]


def _nearest_representative(x, anchor):
    """Shift x by integers so it is the representative nearest the anchor."""
    return x - np.round(x - anchor)


def _kuhn_cell(torus, level, x):
    """(grid cube, axis permutation) of the Kuhn simplex containing x."""
    res = 1 << level
    xw = torus.wrap(np.asarray(x, float))
    cube = np.minimum((xw * res).astype(int), res - 1)
    frac = xw * res - cube
    return cube, np.argsort(-frac, kind="stable")


def _kuhn_vertices(cube, perm, h):
    """Vertices of a Kuhn simplex: from the cube's low corner, step h along
    each axis of perm in turn."""
    cur = cube * h
    verts = [tuple(cur)]
    for axis in perm:
        cur = cur.copy()
        cur[axis] += h
        verts.append(tuple(cur))
    return tuple(verts)


def locate_simplex(torus, level, x):
    """The level-`level` Kuhn simplex containing x (ties broken by sort order)."""
    cube, perm = _kuhn_cell(torus, level, x)
    return Simplex(level, _kuhn_vertices(cube, perm, 2.0 ** -level))


# ---------------------------------------------------------------------------
# facet pieces and boundary balance
# ---------------------------------------------------------------------------

@lru_cache(maxsize=65536)
def facet_pieces(simplex):
    """Affine pieces (inward unit normal, base point) of a simplex, plus anchor.

    One piece per facet, in drop-vertex order: the inward signed distance to
    the facet, measured in the direction space of the simplex and extended
    ambiently.  The anchor is the barycenter.
    """
    v = simplex.array()
    m = simplex.dim
    d = simplex.ambient_dim
    if m < 1:
        raise InvalidInputError("facet pieces need a simplex of dimension >= 1")
    if m == d:
        basis = np.eye(d)
        local = v
    else:
        q, _ = np.linalg.qr((v[1:] - v[0]).T)
        basis = q.T[:m]  # (m, d) orthonormal rows spanning the direction space
        local = (v - v[0]) @ basis.T
    pieces = []
    for j in range(m + 1):
        rest = np.delete(local, j, axis=0)
        if m == 1:
            nhat = np.array([1.0]) if local[j, 0] > rest[0, 0] else np.array([-1.0])
            p0 = rest[0]
        else:
            nhat, p0 = _facet_normal(rest, local[j])
        if m == d:
            normal, point = nhat, p0
        else:
            normal = nhat @ basis
            point = v[0] + p0 @ basis
        pieces.append((normal, point))
    return pieces, v.mean(axis=0)


def _cell_shifts(cell, simplex):
    """Integer translates of an affine cell whose image can meet the simplex.

    Long cells (closed geodesics) wrap around the torus and may cross the
    same face several times under different lifts.
    """
    if not isinstance(cell.map, AffineMap):
        raise InvalidInputError("boundary balance needs affine cells")
    x0, V = cell.map.x0, cell.map.V
    tlo, thi = cell.domain.bounds()
    corners = np.array(list(itertools.product(*zip(tlo, thi))))
    img = x0[None] + corners @ V
    ilo, ihi = img.min(axis=0), img.max(axis=0)
    sv = simplex.array()
    slo, shi = sv.min(axis=0) - 1e-9, sv.max(axis=0) + 1e-9
    ranges = [range(int(math.floor(slo[a] - ihi[a])),
                    int(math.ceil(shi[a] - ilo[a])) + 1)
              for a in range(len(x0))]
    for z in itertools.product(*ranges):
        yield x0 + np.array(z, float), V


def _facet_index(parent, child):
    ck = child.key()
    for j, f in enumerate(parent.facets()):
        if f.key() == ck:
            return j
    raise InvalidInputError("chain is not properly nested")


def _crossing_signs(cell, C, cond_tol=1e-6):
    """Signs of the exact transversal intersections of one affine n-cell
    with the length-n nested chain C.

    The differential du_{V_i} in a nested chain is the affine piece of the
    facet containing V_{i+1}; only the last level enumerates facets, and a
    solution counts when it lies in the band of that facet (which, on the
    facet plane, is the facet itself).  The sign is that of the crossing
    Jacobian.
    """
    ell = len(C)
    fixed = []
    band_facets = []
    for i in range(ell - 1):
        pieces, _ = facet_pieces(C[i])
        fi = _facet_index(C[i], C[i + 1])
        fixed.append(pieces[fi])
        band_facets.append(C[i].facets()[fi])
    last_pieces, _ = facet_pieces(C[-1])
    last_facets = C[-1].facets()
    domain_rows = cell.domain.inequalities()
    out = []
    for x0, V in _cell_shifts(cell, C[0]):
        n = V.shape[0]
        if ell != n:
            raise InvalidInputError("boundary balance needs chain length equal to n")
        for fi, lp in enumerate(last_pieces):
            rows = fixed + [lp]
            A = np.zeros((ell, n))
            b = np.zeros(ell)
            for i, (normal, point) in enumerate(rows):
                A[i] = V @ normal
                b[i] = -normal @ (x0 - point)
            det = float(np.linalg.det(A))
            scale = np.prod(np.linalg.norm(A, axis=1) + 1e-300)
            if abs(det) <= cond_tol * scale:
                continue
            t = np.linalg.solve(A, b)
            if any(a @ t > bound + 1e-9 for a, bound in domain_rows):
                continue
            xt = x0 + t @ V
            # membership is checked against the facet's own collar pieces in
            # the same unwrapped frame as the solve; re-wrapping here would
            # accept crossings of far periodic copies of the facet plane
            if any(_band_value(F, xt) < -1e-11 for F in band_facets):
                continue
            band = _band_value(last_facets[fi], xt)
            if band < -1e-11:
                continue
            if band < 1e-11:
                raise TransversalityError("slice point at a facet corner")
            out.append(float(np.sign(det)))
    return out


def _band_value(facet, x):
    """Inward margin of x within facet's band, in the unwrapped frame.

    A vertex has no band: when the last facet of a chain is a vertex, the
    solve has already pinned the crossing to it.
    """
    if facet.dim == 0:
        return float("inf")
    pieces, _ = facet_pieces(facet)
    return min(float(nrm @ (np.asarray(x, float) - pt)) for nrm, pt in pieces)


def boundary_balance(target, C):
    """Integral of du_{V_1} ^ ... ^ du_{V_n} over the exact crossings of a
    chain of affine cells with the properly nested chain C.

    Each transversal intersection contributes +-2^n times the cell
    coefficient, the sign being that of the crossing Jacobian.  This
    vanishes for cycles (Stokes on the skeleton collar) and counts net flux
    for open chains.
    """
    if not isinstance(target, Chain):
        raise InvalidInputError("boundary balance needs a chain of affine cells")
    n = len(C)
    total = 0.0
    for coeff, cell in target.terms:
        for sign in _crossing_signs(cell, C):
            total += coeff * (2.0 ** n) * sign
    return total
