"""Integrability of tangent subbundles on flat tori.

A set of pointwise independent vector fields spans an integrable subbundle
exactly when some positive density rho kills every divergence expression
sum_i d/dx_i (rho dx_i ^ dx_I (X_1, ..., X_n)); for n = 2 this reduces to a
commutator identity.  The module checks those residuals symbolically,
searches for a certifying density by least squares over a Fourier cutoff,
turns a certified foliation into a holonomic atom measure, and constructs
almost-complex structures on T^4 whose pseudoholomorphic planes are spanned
by a given pair of fields.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .geometry import (
    TWO_PI,
    FlatTorus,
    InvalidInputError,
    TrigPolynomial,
    frequency_modes,
)
from .measures import DiscreteMeasure


def grid_points(dim, res):
    """Uniform cell-centered grid on the torus, (res**dim, dim)."""
    if res < 1:
        raise InvalidInputError("grid resolution must be positive")
    axes = [(np.arange(res) + 0.5) / res] * dim
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)


@dataclass(frozen=True)
class VectorFieldSet:
    """n vector fields on T^d with trig-polynomial components.

    fields[a][j] is the j-th component of the a-th field.
    """

    torus: FlatTorus
    fields: tuple

    def __post_init__(self):
        d = self.torus.dim
        for f in self.fields:
            if len(f) != d:
                raise InvalidInputError("field has wrong number of components")
            for comp in f:
                if comp.dim != d:
                    raise InvalidInputError("component on the wrong torus")

    @property
    def n(self):
        return len(self.fields)

    @classmethod
    def constant(cls, torus, vectors):
        vectors = np.asarray(vectors, float)
        fields = tuple(
            tuple(TrigPolynomial.constant(torus.dim, float(c)) for c in v)
            for v in vectors)
        return cls(torus, fields)

    def evaluate(self, x):
        """Field values on points x (k, d) -> (k, n, d)."""
        x = np.atleast_2d(np.asarray(x, float))
        out = np.empty((len(x), self.n, self.torus.dim))
        for a, f in enumerate(self.fields):
            for j, comp in enumerate(f):
                out[:, a, j] = comp(x)
        return out

    def independence_margin(self, res=8):
        """Smallest singular value of the frame over a verification grid."""
        vals = self.evaluate(grid_points(self.torus.dim, res))
        return float(np.linalg.svd(vals, compute_uv=False)[:, -1].min())

    def validate(self, res=8, threshold=1e-8):
        if self.independence_margin(res) <= threshold:
            raise InvalidInputError("fields are not pointwise independent")
        return self


@dataclass(frozen=True)
class DensityCandidate:
    """Positive density rho, either a trig polynomial or exp of one."""

    rho: TrigPolynomial
    log: bool = False

    def __call__(self, x):
        vals = self.rho(np.atleast_2d(np.asarray(x, float)))
        return np.exp(vals) if self.log else vals

    def gradient(self, x):
        """drho evaluated on points x, shape (k, d)."""
        x = np.atleast_2d(np.asarray(x, float))
        g = np.stack([self.rho.partial(j)(x) for j in range(self.rho.dim)],
                     axis=1)
        if self.log:
            g = g * np.exp(self.rho(x))[:, None]
        return g

    def validate(self, res=8):
        if float(np.min(self(grid_points(self.rho.dim, res)))) <= 0:
            raise InvalidInputError("density is not positive on the grid")
        return self

    @classmethod
    def one(cls, dim):
        return cls(TrigPolynomial.constant(dim, 1.0))


def _wedge_minor(X: VectorFieldSet, rows):
    """dx_{rows}(X_1, ..., X_n) as a trig polynomial (Laplace expansion)."""
    n = X.n
    out = TrigPolynomial.constant(X.torus.dim, 0.0)
    if len(set(rows)) < n:
        return out
    if n == 1:
        return X.fields[0][rows[0]]
    for a, perm_sign in _permanent_signs(n):
        term = TrigPolynomial.constant(X.torus.dim, perm_sign)
        for b in range(n):
            term = term * X.fields[b][rows[a[b]]]
        out = out + term
    return out


def _permanent_signs(n):
    for perm in itertools.permutations(range(n)):
        sign = 1.0
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        yield perm, sign


def _divergence_terms(X: VectorFieldSet, pts):
    """Per (n-1)-index set I: the minors g_i = dx_i ^ dx_I (X_1..X_n) on
    pts, (k, d), and div g, (k,); then div(rho g) = grad rho . g + rho div g.
    """
    d = X.torus.dim
    out = []
    for I in itertools.combinations(range(d), X.n - 1):
        minors = [_wedge_minor(X, (i,) + I) for i in range(d)]
        out.append((np.stack([g(pts) for g in minors], axis=1),
                    sum(g.partial(i)(pts) for i, g in enumerate(minors))))
    return out


def frobenius_residual(X: VectorFieldSet, rho: DensityCandidate, grid=16):
    """Largest grid value of the integrability divergences.

    For every multiindex I with n-1 entries the expression
    sum_i d/dx_i (rho dx_i ^ dx_I (X_1, ..., X_n)) is evaluated with exact
    symbolic derivatives of the trig data; the density enters through the
    product rule so exp-form densities are supported.
    """
    d = X.torus.dim
    if X.n > d:
        raise InvalidInputError("more fields than the torus dimension")
    pts = grid_points(d, grid) if np.isscalar(grid) else np.atleast_2d(grid)
    rho_vals = rho(pts)
    grad_rho = rho.gradient(pts)
    return max(float(np.abs((grad_rho * g).sum(axis=1) + rho_vals * div).max())
               for g, div in _divergence_terms(X, pts))


def commutator_residual(X1, X2, rho: DensityCandidate, grid=16):
    """Two-field reduction: |[X_1,X_2] - div(rho X_2)/rho X_1 + div(rho X_1)/rho X_2|.

    X1, X2 are component tuples of trig polynomials; the commutator and the
    divergences are symbolic, the quotient by rho is pointwise on the grid.
    """
    d = X1[0].dim
    pts = grid_points(d, grid) if np.isscalar(grid) else np.atleast_2d(grid)
    rho_vals = rho(pts)
    if float(np.min(np.abs(rho_vals))) < 1e-12:
        raise InvalidInputError("density vanishes on the grid")
    grad_rho = rho.gradient(pts)

    def div_rho_X(Xf):
        out = np.zeros(len(pts))
        for k in range(d):
            out += grad_rho[:, k] * Xf[k](pts) + rho_vals * Xf[k].partial(k)(pts)
        return out

    c1 = div_rho_X(X2) / rho_vals
    c2 = div_rho_X(X1) / rho_vals
    X1v = np.stack([c(pts) for c in X1], axis=1)
    X2v = np.stack([c(pts) for c in X2], axis=1)
    worst = 0.0
    for j in range(d):
        comm = np.zeros(len(pts))
        for k in range(d):
            comm += X1v[:, k] * X2[j].partial(k)(pts)
            comm -= X2v[:, k] * X1[j].partial(k)(pts)
        expr = comm - c1 * X1v[:, j] + c2 * X2v[:, j]
        worst = max(worst, float(np.abs(expr).max()))
    return worst


@dataclass(frozen=True)
class SolveReport:
    feasible: bool
    residual: float
    rho: DensityCandidate = None
    cutoff: int = 0


def solve_density(X: VectorFieldSet, cutoff, grid=None, tol=1e-6):
    """Least-squares search for a certifying density at a Fourier cutoff.

    rho is expanded over the cos/sin modes with frequencies up to the
    cutoff, the constant coefficient pinned to one (mean-one normalization);
    the stacked divergence expressions are linear in rho, so the trig
    coefficients solve a collocation least-squares problem.  Feasible when
    the max residual on the grid is below tol and rho stays positive; an
    infeasible report carries the attained minimum, which is a certificate
    floor for this cutoff only, never a proof of non-integrability.  A
    sign-indefinite minimizer triggers a second pass with rho = exp(u).
    """
    d = X.torus.dim
    if grid is None:
        grid = 4 * max(cutoff, 1)
    pts = grid_points(d, grid)
    # the free modes; the pinned constant mode moves div g to the right side
    modes = [(m, kind) for m, kind in frequency_modes(d, cutoff) if any(m)]
    terms, tables, A = _collocation(X, modes, pts)
    rhs = -np.concatenate([div for _, div in terms])
    try:
        coef, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    except np.linalg.LinAlgError:
        reg = A.T @ A + 1e-10 * np.eye(A.shape[1])
        coef = np.linalg.solve(reg, A.T @ rhs)
    residual = float(np.abs(A @ coef - rhs).max())
    rho = DensityCandidate(_mode_sum(d, modes, coef) + 1.0)
    positive = float(np.min(rho(pts))) > 0
    if residual <= tol:
        if positive:
            return SolveReport(True, residual, rho, cutoff)
        exp_rho = _solve_density_exp(terms, tables, A, modes, cutoff, tol)
        if exp_rho is not None:
            return exp_rho
    return SolveReport(False, residual, None, cutoff)


def _mode_tables(modes, pts):
    """Mode values on pts and their phase derivatives.

    Returns (vals, turn, freqs): vals[p, b] = b(x_p), freqs[b] = 2 pi m_b,
    and turn the cos/sin partner of b, so that grad b = turn * freqs.
    """
    m = np.array([freq for freq, _ in modes], float).reshape(len(modes), pts.shape[1])
    phase = TWO_PI * (pts @ m.T)
    cos, sin = np.cos(phase), np.sin(phase)
    is_cos = np.array([kind == "cos" for _, kind in modes])
    return np.where(is_cos, cos, sin), np.where(is_cos, -sin, cos), TWO_PI * m


def _collocation(X, modes, pts):
    """The divergence operator at rho = b for every mode b, on pts.

    Returns the divergence terms, the mode tables and the matrix whose
    column b stacks grad b . g + b div g over the index sets.
    """
    terms = _divergence_terms(X, pts)
    vals, turn, freqs = tables = _mode_tables(modes, pts)
    A = np.empty((len(terms) * len(pts), len(modes)))
    for block, (g, div) in zip(np.split(A, len(terms)), terms):
        np.multiply(turn, g @ freqs.T, out=block)
        block += vals * div[:, None]
    return terms, tables, A


def _mode_sum(dim, modes, coef):
    """sum_b coef_b b as a trig polynomial."""
    terms = {}
    for (m, kind), c in zip(modes, coef):
        cc, ss = terms.get(m, (0.0, 0.0))
        terms[m] = (cc + c, ss) if kind == "cos" else (cc, ss + c)
    return TrigPolynomial(dim, terms)


def _solve_density_exp(terms, tables, A, modes, cutoff, tol, iters=12):
    """Gauss-Newton pass with rho = exp(u), u = sum_b c_b b over the modes.

    The residual rho (grad u . g + div g) has Jacobian rho (A + b grad u . g)
    in c, with A the linear pass's collocation matrix.
    """
    vals, turn, freqs = tables
    coef = np.zeros(len(modes))
    for _ in range(iters):
        rho = np.exp(vals @ coef)
        grad_u = turn @ (coef[:, None] * freqs)
        flows = [(grad_u * g).sum(axis=1) for g, _ in terms]
        r = np.concatenate([rho * (f + div) for f, (_, div) in zip(flows, terms)])
        if np.abs(r).max() <= tol:
            rho_cand = DensityCandidate(_mode_sum(freqs.shape[1], modes, coef),
                                        log=True)
            return SolveReport(True, float(np.abs(r).max()), rho_cand, cutoff)
        J = np.concatenate([rho[:, None] * (block + vals * f[:, None])
                            for block, f in zip(np.split(A, len(terms)), flows)])
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        coef = coef + step
    return None


def foliation_to_measure(X: VectorFieldSet, rho: DensityCandidate, grid=16):
    """Holonomic atom measure supported on (x, X_1(x), ..., X_n(x))."""
    pts = grid_points(X.torus.dim, grid)
    w = rho(pts)
    if float(w.min()) <= 0:
        raise InvalidInputError("density is not positive on the grid")
    w = w / w.sum()
    v = X.evaluate(pts)
    return DiscreteMeasure(X.torus, X.n, pts, v, w)


@dataclass(frozen=True)
class AlmostComplexGrid:
    """Grid of almost-complex structures with the companion density."""

    points: np.ndarray    # (k, 4)
    J: np.ndarray         # (k, 4, 4)
    rho: np.ndarray       # (k,)

    def certificate(self):
        """max over the grid of |J^2 + I|."""
        sq = np.einsum("kij,kjl->kil", self.J, self.J)
        return float(np.abs(sq + np.eye(4)[None]).max())


@dataclass(frozen=True)
class PseudoholoReport:
    feasible: bool
    flow_residual: float
    divergence_residual: float
    structure: AlmostComplexGrid = None


def pseudoholomorphic_construct(X, Y, grid=8, tol=1e-8):
    """Almost-complex structure on T^4 with J X = Y / rho, rho = |Y| / |X|.

    X and Y are component 4-tuples of trig polynomials, pointwise
    independent.  Feasibility requires the projection of Y onto the
    hyperplane orthogonal to X to be constant along the flow of X and
    divergence free; both residuals are evaluated with exact symbolic
    partials.  On success J acts as the quarter rotation (X, Y/rho) ->
    (Y/rho, -X) on the spanned plane and as the oriented quarter rotation
    on its orthogonal complement, so J^2 = -I by construction.
    """
    d = 4
    if len(X) != d or len(Y) != d:
        raise InvalidInputError("fields must have four components")
    pts = grid_points(d, grid)
    Xv = np.stack([c(pts) for c in X], axis=1)
    Yv = np.stack([c(pts) for c in Y], axis=1)
    # P = Y - (S/Q) X with S = <Y, X>, Q = |X|^2 (symbolic numerators)
    S = np.sum(Yv * Xv, axis=1)
    Q = np.sum(Xv * Xv, axis=1)
    if float(Q.min()) < 1e-12:
        raise InvalidInputError("X vanishes on the grid")
    dX = np.stack([[c.partial(k)(pts) for c in X] for k in range(d)], axis=0)
    dY = np.stack([[c.partial(k)(pts) for c in Y] for k in range(d)], axis=0)
    # partials of S and Q via the product rule
    dS = np.einsum("kjp,pj->kp", dY, Xv) + np.einsum("kjp,pj->kp", dX, Yv)
    dQ = 2.0 * np.einsum("kjp,pj->kp", dX, Xv)
    ratio = S / Q
    dratio = (dS * Q[None] - S[None] * dQ) / (Q ** 2)[None]
    # dP[k, j, p] = d/dx_k P_j at point p
    dP = dY - dratio[:, None, :] * Xv.T[None] - ratio[None, None, :] * dX
    flow_res = float(np.abs(np.einsum("pk,kjp->pj", Xv, dP)).max())
    divergence = sum(dP[k, k] for k in range(d))
    div_res = float(np.abs(divergence).max())
    if flow_res > tol or div_res > tol:
        return PseudoholoReport(False, flow_res, div_res)
    norm_y = np.linalg.norm(Yv, axis=1)
    if float(norm_y.min()) < 1e-12:
        raise InvalidInputError("Y vanishes on the grid")
    rho = norm_y / np.sqrt(Q)
    Yr = Yv / rho[:, None]
    K = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
                 float)
    # per point: an orthonormal pair (w1, w2) spanning the complement of
    # (X, Y/rho), ordered so that the frame (X, Y/rho, w1, w2) is positive
    q, _ = np.linalg.qr(np.stack([Xv, Yr], axis=2))
    w = np.linalg.svd(np.eye(4) - q @ q.transpose(0, 2, 1))[0]
    w1, w2 = w[:, :, 0], w[:, :, 1]
    flip = (np.linalg.det(np.stack([Xv, Yr, w1, w2], axis=2)) < 0)[:, None]
    frame = np.stack([Xv, Yr, np.where(flip, w2, w1), np.where(flip, w1, w2)],
                     axis=2)
    Js = frame @ K @ np.linalg.inv(frame)
    structure = AlmostComplexGrid(pts, Js, rho)
    if structure.certificate() > 1e-8:
        raise InvalidInputError("construction lost the J^2 = -1 certificate")
    return PseudoholoReport(True, flow_res, div_res, structure)
