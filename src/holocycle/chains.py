"""Cells, chains, boundaries and their induced measures.

A cell is a smooth map from a parameter domain in R^n (interval, polygon,
simplex, or half-space-clipped box) into the torus; a chain is a finite real
combination of cells.  Quadrature uses the midpoint rule, with exact
half-space clipping of grid cells on polytope domains so that total mass
equals domain volume for affine maps.
"""
from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass

import numpy as np

from .geometry import FlatTorus, InvalidInputError
from .measures import DiscreteMeasure, hol_residual


# ---------------------------------------------------------------------------
# convex polygon helpers (n = 2) and interval helpers (n = 1)
# ---------------------------------------------------------------------------

def clip_polygon_halfspace(vertices, a, b, labels=None, new_label=None):
    """Sutherland-Hodgman step: keep the part of the polygon with a.t <= b.

    labels, when given, holds one label per edge (edge i runs from vertex i
    to vertex i + 1).  The surviving parts of an edge keep its label and the
    edge cut along a.t = b gets new_label; where near-duplicate vertices
    merge, the later edge's label wins, except that a ("rim",) label never
    overrides at the wrap-around.  Returns the clipped vertices, or
    (vertices, labels) when labels are given.
    """
    labeled = labels is not None
    if not labeled:
        labels = [None] * len(vertices)
    out, out_labels = [], []
    k = len(vertices)
    vals = vertices @ np.asarray(a, float) - b if k else []
    for i in range(k):
        p, q = vertices[i], vertices[(i + 1) % k]
        fp, fq = vals[i], vals[(i + 1) % k]
        if fp <= 1e-13:
            out.append(p)
            out_labels.append(labels[i])
            if fq > 1e-13 and fp < -1e-13:
                out.append(p + fp / (fp - fq) * (q - p))
                out_labels.append(new_label)
        elif fq < -1e-13:
            out.append(p + fp / (fp - fq) * (q - p))
            out_labels.append(labels[i])
    poly, keep_labels = np.zeros((0, 2)), []
    if out:
        arr = np.array(out)
        keep, keep_labels = [0], [out_labels[0]]
        for i in range(1, len(arr)):
            if np.linalg.norm(arr[i] - arr[keep[-1]]) > 1e-12:
                keep.append(i)
                keep_labels.append(out_labels[i])
            else:
                keep_labels[-1] = out_labels[i]
        if len(keep) > 1 and np.linalg.norm(arr[keep[-1]] - arr[keep[0]]) <= 1e-12:
            if keep_labels[-1] != ("rim",):
                keep_labels[0] = keep_labels[-1]
            keep.pop()
            keep_labels.pop()
        poly = arr[keep]
    return (poly, keep_labels) if labeled else poly


def polygon_area(vertices):
    if len(vertices) < 3:
        return 0.0
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygon_centroid(vertices):
    a = polygon_area(vertices)
    if abs(a) < 1e-300:
        return vertices.mean(axis=0)
    x, y = vertices[:, 0], vertices[:, 1]
    cx = np.sum((x + np.roll(x, -1)) * (x * np.roll(y, -1) - np.roll(x, -1) * y))
    cy = np.sum((y + np.roll(y, -1)) * (x * np.roll(y, -1) - np.roll(x, -1) * y))
    return np.array([cx, cy]) / (6.0 * a)


def ensure_ccw(vertices):
    return vertices if polygon_area(vertices) >= 0 else vertices[::-1].copy()


def polygon_edge_rows(vertices):
    """Half-spaces (a, b), a.t <= b, of a convex ccw polygon, one per edge.

    a is the outward normal of the edge from vertex k to vertex k + 1,
    as long as that edge.
    """
    rows = []
    for k in range(len(vertices)):
        e = vertices[(k + 1) % len(vertices)] - vertices[k]
        a = np.array([e[1], -e[0]])
        rows.append((a, float(a @ vertices[k])))
    return rows


def _box_rows(lo, hi):
    eye = np.eye(len(lo))
    return [row for j in range(len(lo))
            for row in ((eye[j], hi[j]), (-eye[j], -lo[j]))]


def clip_interval(lo, hi, halfspaces):
    """Intersect [lo, hi] with one-dimensional half-spaces a*t <= b."""
    for a, b in halfspaces:
        a = float(np.asarray(a).reshape(()))
        if abs(a) < 1e-15:
            if b < -1e-14:
                return None
            continue
        bound = b / a
        if a > 0:
            hi = min(hi, bound)
        else:
            lo = max(lo, bound)
    return (lo, hi) if hi - lo > 1e-14 else None


# ---------------------------------------------------------------------------
# parameter domains
#
# Every n >= 1 domain is a convex polytope and answers inequalities(), its
# half-spaces as a list of (a, b) with a.t <= b, and bounds(), the corners
# (lo, hi) of a box that contains it.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Box:
    """Axis-aligned box; lo and hi are length-n tuples."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or any(h <= l for l, h in zip(self.lo, self.hi)):
            raise InvalidInputError("degenerate box domain")

    @property
    def n(self):
        return len(self.lo)

    def volume(self):
        return float(np.prod(np.array(self.hi) - np.array(self.lo)))

    def interval(self):
        return self.lo[0], self.hi[0]

    def inequalities(self):
        return _box_rows(self.lo, self.hi)

    def bounds(self):
        return np.array(self.lo, float), np.array(self.hi, float)

    def polygon(self):
        (x0, y0), (x1, y1) = self.lo, self.hi
        return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], float)

    def to_dict(self):
        return {"type": "box", "bounds": [list(self.lo), list(self.hi)]}


@dataclass(frozen=True)
class SimplexDomain:
    """n-simplex given by n+1 vertices in R^n."""

    vertices: tuple  # ((n+1) tuples of length n)

    @property
    def n(self):
        return len(self.vertices) - 1

    def volume(self):
        v = np.array(self.vertices, float)
        return abs(float(np.linalg.det(v[1:] - v[0]))) / math.factorial(self.n)

    def interval(self):
        v = np.array(self.vertices, float).reshape(-1)
        return min(v), max(v)

    def inequalities(self):
        if self.n == 1:
            lo, hi = self.interval()
            return _box_rows((lo,), (hi,))
        return polygon_edge_rows(self.polygon())

    def bounds(self):
        v = np.array(self.vertices, float)
        return v.min(axis=0), v.max(axis=0)

    def polygon(self):
        return ensure_ccw(np.array(self.vertices, float))

    def to_dict(self):
        return {"type": "simplex", "vertices": [list(v) for v in self.vertices]}


@dataclass(frozen=True)
class ClippedBox:
    """Box intersected with half-spaces a . t <= b."""

    box: Box
    halfspaces: tuple  # of (a tuple, b float)

    @property
    def n(self):
        return self.box.n

    def interval(self):
        iv = clip_interval(self.box.lo[0], self.box.hi[0],
                           [(np.array(a), b) for a, b in self.halfspaces])
        if iv is None:
            raise InvalidInputError("empty clipped domain")
        return iv

    def inequalities(self):
        return ([(np.array(a, float), b) for a, b in self.halfspaces]
                + self.box.inequalities())

    def bounds(self):
        return self.box.bounds()

    def polygon(self):
        poly = self.box.polygon()
        for a, b in self.halfspaces:
            poly = clip_polygon_halfspace(poly, np.array(a, float), b)
        if len(poly) < 3:
            raise InvalidInputError("empty clipped domain")
        return ensure_ccw(poly)

    def volume(self):
        if self.n == 1:
            lo, hi = self.interval()
            return hi - lo
        return polygon_area(self.polygon())

    def to_dict(self):
        return {"type": "clipped-box", "bounds": [list(self.box.lo), list(self.box.hi)],
                "halfspaces": [[list(a), b] for a, b in self.halfspaces]}


@dataclass(frozen=True)
class PolygonDomain:
    """Explicit convex polygon domain, vertices in ccw order."""

    vertices: tuple  # of (t1, t2) tuples

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise InvalidInputError("polygon needs at least three vertices")

    @property
    def n(self):
        return 2

    def volume(self):
        return polygon_area(np.array(self.vertices, float))

    def inequalities(self):
        return polygon_edge_rows(self.polygon())

    def bounds(self):
        v = self.polygon()
        return v.min(axis=0), v.max(axis=0)

    def polygon(self):
        return np.array(self.vertices, float)

    def to_dict(self):
        return {"type": "polygon", "vertices": [list(v) for v in self.vertices]}


@dataclass(frozen=True)
class PointDomain:
    """Zero-dimensional domain of a single point (for boundaries of 1-cells)."""

    @property
    def n(self):
        return 0

    def volume(self):
        return 1.0

    def to_dict(self):
        return {"type": "point"}


def domain_from_dict(data):
    t = data["type"]
    if t == "box":
        lo, hi = data["bounds"]
        return Box(tuple(lo), tuple(hi))
    if t == "simplex":
        return SimplexDomain(tuple(tuple(v) for v in data["vertices"]))
    if t == "clipped-box":
        lo, hi = data["bounds"]
        return ClippedBox(Box(tuple(lo), tuple(hi)),
                          tuple((tuple(a), b) for a, b in data["halfspaces"]))
    if t == "polygon":
        return PolygonDomain(tuple(tuple(v) for v in data["vertices"]))
    if t == "point":
        return PointDomain()
    raise InvalidInputError(f"unknown domain type {t!r}")


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

class AffineMap:
    """t -> x0 + t @ V with V of shape (n, d)."""

    def __init__(self, x0, V):
        self.x0 = np.asarray(x0, float)
        self.V = np.asarray(V, float).reshape(-1, len(self.x0))

    def __call__(self, t):
        t = np.atleast_2d(np.asarray(t, float))
        return self.x0[None] + t @ self.V

    def jacobian(self, t):
        t = np.atleast_2d(np.asarray(t, float))
        return np.broadcast_to(self.V, (len(t),) + self.V.shape).copy()

    def to_dict(self):
        return {"type": "affine", "x0": list(self.x0), "V": [list(r) for r in self.V]}


# what an expression may call and which constants it may name
_EXPR_FUNCTIONS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "sqrt": np.sqrt, "abs": np.abs, "mod": np.mod,
}
_EXPR_CONSTANTS = {"pi": math.pi}
_EXPR_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
                ast.Mult: operator.mul, ast.Div: operator.truediv,
                ast.Pow: operator.pow}
_EXPR_UNARY = {ast.USub: operator.neg}


def _compile_node(node, variables, text):
    """A function env -> value for one node of a whitelisted expression."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = node.value
        return lambda env: value
    if isinstance(node, ast.Name):
        if node.id in _EXPR_CONSTANTS:
            value = _EXPR_CONSTANTS[node.id]
            return lambda env: value
        if node.id in variables:
            name = node.id
            return lambda env: env[name]
        raise InvalidInputError(f"unknown name {node.id!r} in expression {text!r}")
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_BINARY:
        op = _EXPR_BINARY[type(node.op)]
        left = _compile_node(node.left, variables, text)
        right = _compile_node(node.right, variables, text)
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_UNARY:
        op = _EXPR_UNARY[type(node.op)]
        operand = _compile_node(node.operand, variables, text)
        return lambda env: op(operand(env))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _EXPR_FUNCTIONS and not node.keywords
            and not any(isinstance(a, ast.Starred) for a in node.args)):
        fn = _EXPR_FUNCTIONS[node.func.id]
        args = [_compile_node(a, variables, text) for a in node.args]
        return lambda env: fn(*[a(env) for a in args])
    what = (f"call of {ast.unparse(node.func)!r}" if isinstance(node, ast.Call)
            else type(node).__name__)
    raise InvalidInputError(f"{what} not allowed in expression {text!r}")


class Expression:
    """An arithmetic expression, checked against a whitelist when parsed.

    Allowed: numbers, the given variable names and pi, + - * / ** and
    unary -, and calls of sin, cos, tan, exp, sqrt, abs and mod (numpy).
    Any other construct (attributes, subscripts, lambdas, comprehensions,
    other names or calls) is an InvalidInputError.  Calling the expression
    with a dict of variable values evaluates it with numpy semantics.
    """

    def __init__(self, text, variables):
        try:
            tree = ast.parse(text.strip(), mode="eval")
        except SyntaxError as exc:
            raise InvalidInputError(f"cannot parse expression {text!r}: {exc.msg}")
        self._run = _compile_node(tree.body, frozenset(variables), text)

    def __call__(self, env):
        return self._run(env)


class ExprMap:
    """Component expressions in variables t1..tn (numpy semantics)."""

    def __init__(self, exprs, n):
        self.exprs = list(exprs)
        self.n = n
        names = [f"t{j + 1}" for j in range(n)]
        self._code = [Expression(e, names) for e in self.exprs]

    def __call__(self, t):
        t = np.atleast_2d(np.asarray(t, float))
        env = {f"t{j + 1}": t[:, j] for j in range(self.n)}
        cols = [np.broadcast_to(code(env), len(t)) for code in self._code]
        return np.stack(cols, axis=1).astype(float)

    def jacobian(self, t, h=1e-6):
        t = np.atleast_2d(np.asarray(t, float))
        cols = []
        for j in range(self.n):
            tp = t.copy(); tp[:, j] += h
            tm = t.copy(); tm[:, j] -= h
            cols.append((self(tp) - self(tm)) / (2 * h))
        return np.stack(cols, axis=1)

    def to_dict(self):
        return {"type": "expr", "exprs": self.exprs, "n": self.n}


class ComposedAffineParam:
    """Affine reparameterization s = b + t @ A fed into a base map."""

    def __init__(self, base, A, b):
        self.base = base
        self.A = np.asarray(A, float)
        self.b = np.asarray(b, float)

    def __call__(self, t):
        t = np.atleast_2d(np.asarray(t, float))
        return self.base(self.b[None] + t @ self.A)

    def jacobian(self, t):
        t = np.atleast_2d(np.asarray(t, float))
        jb = self.base.jacobian(self.b[None] + t @ self.A)
        return np.einsum("ij,kjd->kid", self.A, jb)

    def to_dict(self):
        return {"type": "composed", "A": [list(r) for r in self.A],
                "b": list(self.b), "base": self.base.to_dict()}


class ConstantMap:
    """Map of a 0-cell: the single point x0."""

    def __init__(self, x0):
        self.x0 = np.asarray(x0, float)

    def __call__(self, t):
        t = np.atleast_2d(np.asarray(t, float))
        return np.broadcast_to(self.x0, (len(t), len(self.x0))).copy()

    def jacobian(self, t):
        t = np.atleast_2d(np.asarray(t, float))
        return np.zeros((len(t), 0, len(self.x0)))

    def to_dict(self):
        return {"type": "constant", "x0": list(self.x0)}


def _h1(s):
    return 3.0 * s * s - 2.0 * s ** 3


def _dh1(s):
    return 6.0 * s - 6.0 * s * s


def _h2(s):
    return s ** 3 - s * s


def _dh2(s):
    return 3.0 * s * s - 2.0 * s


class GluedMap:
    """Base map plus cubic Hermite corrections in collars along domain faces.

    Each blend record deforms the map in the collar {0 <= (c - u.t)/w <= 1}:
    value += h1(s) * (dp0 + t @ dpJ) + w * h2(s) * dn, where s = 1 at the
    face u.t = c.  At the face the position correction is exactly dp and the
    u-directional derivative correction exactly dn, giving matched traces and
    matched first derivatives for paired cells deformed to the same target.
    """

    def __init__(self, base, blends):
        self.base = base
        self.blends = list(blends)  # dicts: u, c, w, dp0, dpJ, dn

    def __call__(self, t):
        t = np.atleast_2d(np.asarray(t, float))
        out = self.base(t)
        for bl in self.blends:
            u = bl["u"]; w = bl["w"]
            s = np.clip(1.0 - (bl["c"] - t @ u) / w, 0.0, 1.0)
            dp = bl["dp0"][None] + t @ bl["dpJ"]
            out = out + _h1(s)[:, None] * dp + (w * _h2(s))[:, None] * bl["dn"][None]
        return out

    def jacobian(self, t):
        t = np.atleast_2d(np.asarray(t, float))
        jac = self.base.jacobian(t)
        for bl in self.blends:
            u = bl["u"]; w = bl["w"]
            tau = (bl["c"] - t @ u) / w
            s = np.clip(1.0 - tau, 0.0, 1.0)
            active = (tau > 0.0) & (tau < 1.0)
            dp = bl["dp0"][None] + t @ bl["dpJ"]
            ds_dt = np.where(active, 1.0, 0.0)[:, None] * (u / w)[None]
            jac = (jac
                   + np.einsum("ki,kd->kid", ds_dt * _dh1(s)[:, None], dp)
                   + _h1(s)[:, None, None] * bl["dpJ"][None]
                   + np.einsum("ki,d->kid", ds_dt * (w * _dh2(s))[:, None], bl["dn"]))
        return jac

    def to_dict(self):
        return {"type": "affine+hermite", "base": self.base.to_dict(),
                "blends": [{k: (np.asarray(v).tolist() if k != "c" and k != "w" else v)
                            for k, v in bl.items()} for bl in self.blends]}


class ConeMap:
    """(t, s) -> apex + s (gamma(t) - apex) over the unit square."""

    def __init__(self, curve, apex):
        self.curve = curve
        self.apex = np.asarray(apex, float)

    def __call__(self, ts):
        ts = np.atleast_2d(np.asarray(ts, float))
        g = self.curve(ts[:, :1])
        return self.apex[None] + ts[:, 1:2] * (g - self.apex[None])

    def jacobian(self, ts):
        ts = np.atleast_2d(np.asarray(ts, float))
        g = self.curve(ts[:, :1])
        jg = self.curve.jacobian(ts[:, :1])  # (k, 1, d)
        jt = ts[:, 1:2, None] * jg
        js = (g - self.apex[None])[:, None, :]
        return np.concatenate([jt, js], axis=1)

    def to_dict(self):
        return {"type": "cone", "apex": list(self.apex),
                "curve": self.curve.to_dict()}


class ShiftedCurve:
    """Curve map re-lifted so its image stays near the apex representative."""

    def __init__(self, base, apex):
        self.base = base
        self.apex = np.asarray(apex, float)

    def __call__(self, t):
        out = self.base(t)
        return out - np.round(out - self.apex[None])

    def jacobian(self, t):
        return self.base.jacobian(t)

    def to_dict(self):
        return {"type": "shifted", "apex": list(self.apex),
                "base": self.base.to_dict()}


def map_from_dict(data):
    t = data["type"]
    if t == "affine":
        return AffineMap(data["x0"], data["V"])
    if t == "expr":
        return ExprMap(data["exprs"], data["n"])
    if t == "composed":
        return ComposedAffineParam(map_from_dict(data["base"]), data["A"], data["b"])
    if t == "constant":
        return ConstantMap(data["x0"])
    if t == "affine+hermite":
        blends = [{"u": np.array(bl["u"], float), "c": bl["c"], "w": bl["w"],
                   "dp0": np.array(bl["dp0"], float),
                   "dpJ": np.array(bl["dpJ"], float),
                   "dn": np.array(bl["dn"], float)} for bl in data["blends"]]
        return GluedMap(map_from_dict(data["base"]), blends)
    if t == "cone":
        return ConeMap(map_from_dict(data["curve"]), data["apex"])
    if t == "shifted":
        return ShiftedCurve(map_from_dict(data["base"]), data["apex"])
    raise InvalidInputError(f"unknown map type {t!r}")


# ---------------------------------------------------------------------------
# cells and chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    torus: FlatTorus
    domain: object
    map: object
    resolution: int = 8

    @property
    def n(self):
        return self.domain.n


@dataclass(frozen=True)
class Chain:
    terms: tuple  # of (coefficient, Cell)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def n(self):
        return self.terms[0][1].n if self.terms else None

    def scaled(self, factor):
        return Chain(tuple((a * factor, c) for a, c in self.terms))

    def __add__(self, other):
        return Chain(self.terms + other.terms)


# 4-point Gauss-Legendre on [-1, 1] (order 8 composite)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(4)

# Strang/Dunavant degree-5 rule on the reference triangle, barycentric
_TRI5_BARY = np.array(
    [[1 / 3, 1 / 3, 1 / 3],
     [0.0597158717897698, 0.4701420641051151, 0.4701420641051151],
     [0.4701420641051151, 0.0597158717897698, 0.4701420641051151],
     [0.4701420641051151, 0.4701420641051151, 0.0597158717897698],
     [0.7974269853530873, 0.1012865073234563, 0.1012865073234563],
     [0.1012865073234563, 0.7974269853530873, 0.1012865073234563],
     [0.1012865073234563, 0.1012865073234563, 0.7974269853530873]])
_TRI5_W = np.array([0.225,
                    0.1323941527885062, 0.1323941527885062, 0.1323941527885062,
                    0.1259391805448271, 0.1259391805448271, 0.1259391805448271])


def _gl_interval(lo, hi, resolution):
    edges = lo + np.arange(resolution + 1) / resolution * (hi - lo)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * _GL_X[None]).reshape(-1)
    w = (half[:, None] * _GL_W[None]).reshape(-1)
    return t, w


def _refine_triangle(tri, depth):
    """Uniform 4-way refinement of a triangle, depth times."""
    tris = [np.asarray(tri, float)]
    for _ in range(depth):
        nxt = []
        for t in tris:
            m01, m12, m20 = 0.5 * (t[0] + t[1]), 0.5 * (t[1] + t[2]), 0.5 * (t[2] + t[0])
            nxt.extend([np.array([t[0], m01, m20]), np.array([m01, t[1], m12]),
                        np.array([m20, m12, t[2]]), np.array([m01, m12, m20])])
        tris = nxt
    return tris


def _quad_nodes(domain, resolution):
    """Quadrature nodes and weights on the domain.

    Composite 4-point Gauss-Legendre per axis for intervals and boxes
    (resolution = number of subintervals), and a degree-5 triangle rule on
    a refined fan triangulation for convex polygon domains (resolution =
    target number of subdivisions across the polygon diameter).
    """
    n = domain.n
    if n == 0:
        return np.zeros((1, 0)), np.array([1.0])
    if isinstance(domain, Box):
        axes = [_gl_interval(l, h, resolution)
                for l, h in zip(domain.lo, domain.hi)]
        grid = np.stack(np.meshgrid(*[a for a, _ in axes], indexing="ij"),
                        axis=-1).reshape(-1, n)
        w = np.stack(np.meshgrid(*[w for _, w in axes], indexing="ij"),
                     axis=-1).reshape(-1, n).prod(axis=1)
        return grid, w
    if n == 1:
        t, w = _gl_interval(*domain.interval(), resolution)
        return t.reshape(-1, 1), w
    if n == 2:
        poly = domain.polygon()
        center = polygon_centroid(poly)
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
            for sub in _refine_triangle(tri, depth):
                pts = _TRI5_BARY @ sub
                s1, s2 = sub[1] - sub[0], sub[2] - sub[0]
                a2 = abs(float(s1[0] * s2[1] - s1[1] * s2[0]))
                nodes.append(pts)
                weights.append(_TRI5_W * (0.5 * a2))
        if not nodes:
            raise InvalidInputError("degenerate 2-d domain")
        return np.concatenate(nodes), np.concatenate(weights)
    raise InvalidInputError("only n <= 2 domains supported")


def cell_measure(cell: Cell, coefficient=1.0):
    """Pushforward of Lebesgue measure on the domain under the map differential."""
    t, w = _quad_nodes(cell.domain, cell.resolution)
    x = cell.torus.wrap(cell.map(t))
    v = cell.map.jacobian(t)
    return DiscreteMeasure(cell.torus, cell.n, x, v, coefficient * w,
                           positive=coefficient >= 0)


def chain_measure(alpha: Chain):
    if not alpha.terms:
        raise InvalidInputError("empty chain has no induced measure; use an "
                                "explicit empty DiscreteMeasure")
    return DiscreteMeasure.concatenate(
        [cell_measure(c, a) for a, c in alpha.terms])


def boundary(alpha: Chain):
    """Oriented boundary chain, one dimension down."""
    out = []
    for a, cell in alpha.terms:
        n = cell.n
        if n == 0:
            continue
        if n == 1:
            lo, hi = cell.domain.interval()
            for t_end, sign in ((hi, 1.0), (lo, -1.0)):
                x = cell.map(np.array([[t_end]]))[0]
                out.append((sign * a, Cell(cell.torus, PointDomain(), ConstantMap(x), 1)))
        elif n == 2:
            poly = cell.domain.polygon()
            for k in range(len(poly)):
                p, q = poly[k], poly[(k + 1) % len(poly)]
                emap = ComposedAffineParam(cell.map, (q - p).reshape(1, 2), p)
                out.append((a, Cell(cell.torus, Box((0.0,), (1.0,)), emap,
                                    cell.resolution)))
        else:
            raise InvalidInputError("boundary implemented for n <= 2")
    return Chain(tuple(out))


def is_cycle(alpha: Chain, cutoff=2, tol=1e-8):
    """(passes, residual): residual is hol_residual of the induced measure."""
    if not alpha.terms:
        return True, 0.0
    res = hol_residual(chain_measure(alpha), cutoff)
    return res <= tol, res


def reparameterize_mass_matched(cell: Cell):
    """Same image and orientation, parameter speed rescaled toward unit.

    After rescaling the weight of the induced measure approximates its mass
    and the partials satisfy sup |v| <= 2.
    """
    if not isinstance(cell.map, AffineMap):
        raise InvalidInputError("mass-matched reparameterization needs an affine cell")
    V = cell.map.V
    n = cell.n
    if n == 1:
        speed = float(np.linalg.norm(V[0]))
        if speed < 1e-14:
            raise InvalidInputError("zero-speed cell")
        lo, hi = cell.domain.interval()
        new_dom = Box((lo * speed,), (hi * speed,))
        new_map = AffineMap(cell.map.x0, V / speed)
        return Cell(cell.torus, new_dom, new_map, cell.resolution)
    if n == 2:
        # V = R^T Q^T with orthonormal rows Q^T; substituting s = t R^T is an
        # orientation-preserving affine reparameterization once det R > 0
        Q, R = np.linalg.qr(V.T)
        if abs(R[0, 0] * R[1, 1]) < 1e-14:
            raise InvalidInputError("zero-area cell")
        if R[0, 0] * R[1, 1] < 0:
            Q = Q.copy()
            R = R.copy()
            Q[:, 1] *= -1.0
            R[1, :] *= -1.0
        new_V = Q.T
        poly = cell.domain.polygon() @ R.T
        cc = ensure_ccw(poly)  # vertex ordering only; the point set is kept
        if len(cc) == 3:
            dom = SimplexDomain(tuple(map(tuple, cc)))
        else:
            box = Box((float(poly[:, 0].min()), float(poly[:, 1].min())),
                      (float(poly[:, 0].max()), float(poly[:, 1].max())))
            dom = ClippedBox(box, tuple((tuple(a), b)
                                        for a, b in polygon_edge_rows(cc)))
        return Cell(cell.torus, dom, AffineMap(cell.map.x0, new_V), cell.resolution)
    raise InvalidInputError("reparameterization implemented for n <= 2")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def chain_to_dict(alpha: Chain, torus=None):
    return {"dim": torus.dim if torus else alpha.terms[0][1].torus.dim,
            "cells": [{"coefficient": a,
                       "domain": c.domain.to_dict(),
                       "map": c.map.to_dict(),
                       "resolution": c.resolution}
                      for a, c in alpha.terms]}


def chain_from_dict(data):
    torus = FlatTorus(data["dim"])
    cells = []
    for rec in data["cells"]:
        cells.append((rec["coefficient"],
                      Cell(torus, domain_from_dict(rec["domain"]),
                           map_from_dict(rec["map"]), rec["resolution"])))
    return Chain(tuple(cells))
