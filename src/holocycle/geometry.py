"""Flat torus model, trigonometric polynomials and exterior calculus.

Points on T^d = R^d/Z^d are stored with coordinates reduced to [0, 1);
tangent vectors are plain R^d vectors (parallel transport is trivial on a
flat torus).  Differential forms carry trigonometric-polynomial
coefficients, so differentiation and products are exact.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


class DimensionMismatchError(ValueError):
    pass


class InvalidInputError(ValueError):
    pass


@dataclass(frozen=True)
class FlatTorus:
    """The d-dimensional torus R^d/Z^d with the flat metric."""

    dim: int

    def __post_init__(self):
        if not (1 <= self.dim <= 8):
            raise InvalidInputError(f"torus dimension must be in 1..8, got {self.dim}")

    def wrap(self, x):
        return np.mod(np.asarray(x, dtype=float), 1.0)


def gram_volume(v):
    """sqrt(|det G|) with G_ij = <v_i, v_j>: volume of the spanned parallelepiped.

    Accepts a single (n, d) frame or a batch (k, n, d); n = 0 gives 1.
    """
    v = np.asarray(v, dtype=float)
    single = v.ndim == 2
    if single:
        v = v[None]
    k, n, d = v.shape
    if n > d:
        raise DimensionMismatchError(f"cannot span {n} dimensions with vectors in R^{d}")
    if n == 0:
        out = np.ones(k)
    else:
        g = np.einsum("kid,kjd->kij", v, v)
        out = np.sqrt(np.abs(np.linalg.det(g)))
    return float(out[0]) if single else out


def _canonical_freq(m):
    """Map m to its canonical representative (first nonzero entry positive).

    Returns (m_canonical, sign) with sign = -1 when m was flipped; flipping
    leaves cos terms alone and negates sin terms.
    """
    for c in m:
        if c > 0:
            return tuple(m), 1
        if c < 0:
            return tuple(-c2 for c2 in m), -1
    return tuple(m), 1


class TrigPolynomial:
    """a(x) = sum_m c_m cos(2 pi m.x) + s_m sin(2 pi m.x), finitely many m in Z^d.

    Frequencies are canonicalized so that the first nonzero entry of m is
    positive (cos is even, sin odd in m); the sin coefficient at m = 0 is
    identically meaningless and dropped.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        self.dim = int(dim)
        clean = {}
        for m, (c, s) in (terms or {}).items():
            m = tuple(int(mi) for mi in m)
            if len(m) != self.dim:
                raise DimensionMismatchError("frequency vector has wrong length")
            mc, sign = _canonical_freq(m)
            c = float(c)
            s = float(s) * sign
            if all(mi == 0 for mi in mc):
                s = 0.0
            if mc in clean:
                c0, s0 = clean[mc]
                clean[mc] = (c0 + c, s0 + s)
            else:
                clean[mc] = (c, s)
        self.terms = {m: cs for m, cs in clean.items() if cs != (0.0, 0.0)}

    # -- constructors -------------------------------------------------
    @classmethod
    def constant(cls, dim, value):
        return cls(dim, {(0,) * dim: (value, 0.0)})

    @classmethod
    def mode(cls, dim, m, kind="cos"):
        """cos(2 pi m.x) or sin(2 pi m.x)."""
        if kind == "cos":
            return cls(dim, {tuple(m): (1.0, 0.0)})
        if kind == "sin":
            return cls(dim, {tuple(m): (0.0, 1.0)})
        raise InvalidInputError(f"unknown mode kind {kind!r}")

    # -- algebra ------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = TrigPolynomial.constant(self.dim, other)
        out = dict(self.terms)
        for m, (c, s) in other.terms.items():
            c0, s0 = out.get(m, (0.0, 0.0))
            out[m] = (c0 + c, s0 + s)
        return TrigPolynomial(self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-other if isinstance(other, TrigPolynomial) else -float(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return TrigPolynomial(
                self.dim, {m: (c * other, s * other) for m, (c, s) in self.terms.items()}
            )
        if not isinstance(other, TrigPolynomial):
            return NotImplemented
        # multiply in the complex-exponential representation
        za = self._to_complex()
        zb = other._to_complex()
        prod = {}
        for ma, ca in za.items():
            for mb, cb in zb.items():
                m = tuple(a + b for a, b in zip(ma, mb))
                prod[m] = prod.get(m, 0.0) + ca * cb
        return TrigPolynomial._from_complex(self.dim, prod)

    __rmul__ = __mul__

    def _to_complex(self):
        """Coefficients of e^{2 pi i m.x} over both signs of m."""
        z = {}
        for m, (c, s) in self.terms.items():
            if all(mi == 0 for mi in m):
                z[m] = z.get(m, 0.0) + complex(c)
            else:
                mn = tuple(-mi for mi in m)
                z[m] = z.get(m, 0.0) + 0.5 * (c - 1j * s)
                z[mn] = z.get(mn, 0.0) + 0.5 * (c + 1j * s)
        return z

    @staticmethod
    def _from_complex(dim, z):
        terms = {}
        for m, coef in z.items():
            mc, sign = _canonical_freq(m)
            if m != mc:
                continue  # handled via its mirror
            if all(mi == 0 for mi in mc):
                terms[mc] = (coef.real, 0.0)
            else:
                terms[mc] = (2.0 * coef.real, -2.0 * coef.imag)
        return TrigPolynomial(dim, terms)

    def partial(self, j):
        """Exact partial derivative with respect to x_j."""
        out = {}
        for m, (c, s) in self.terms.items():
            f = TWO_PI * m[j]
            if f != 0.0:
                out[m] = (f * s, -f * c)
        return TrigPolynomial(self.dim, out)

    # -- evaluation ---------------------------------------------------
    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None] if single else x
        out = np.zeros(pts.shape[0])
        for m, (c, s) in self.terms.items():
            phase = TWO_PI * (pts @ np.asarray(m, dtype=float))
            if c != 0.0:
                out += c * np.cos(phase)
            if s != 0.0:
                out += s * np.sin(phase)
        return float(out[0]) if single else out

    def sup_bound(self):
        """Upper bound for sup |a|: sum of coefficient magnitudes."""
        return sum(math.hypot(c, s) for c, s in self.terms.values())

    def is_zero(self, tol=0.0):
        return all(abs(c) <= tol and abs(s) <= tol for c, s in self.terms.values())

    def __eq__(self, other):
        return isinstance(other, TrigPolynomial) and self.terms == other.terms

    def __repr__(self):
        return f"TrigPolynomial(dim={self.dim}, terms={self.terms})"


def _insertion_sign(index_set, j):
    """Sign of dx_j ^ dx_I when sorted into increasing order; None if j in I."""
    if j in index_set:
        return None
    pos = sum(1 for i in index_set if i < j)
    return -1.0 if pos % 2 else 1.0


def _merge_sign(left, right):
    """Sign of dx_L ^ dx_R relative to the sorted merge; None on repeats."""
    if set(left) & set(right):
        return None, None
    merged = tuple(sorted(left + right))
    # count inversions of the concatenation
    seq = list(left + right)
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return merged, (-1.0 if inv % 2 else 1.0)


class DifferentialForm:
    """Degree-p form sum_I a_I dx_I with TrigPolynomial coefficients a_I."""

    __slots__ = ("torus", "degree", "coeffs")

    def __init__(self, torus, degree, coeffs=None):
        d = torus.dim
        if not (0 <= degree <= d):
            raise InvalidInputError(f"degree {degree} out of range for T^{d}")
        self.torus = torus
        self.degree = int(degree)
        clean = {}
        for idx, a in (coeffs or {}).items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != self.degree or list(idx) != sorted(set(idx)):
                raise InvalidInputError(f"index set {idx} is not strictly increasing")
            if idx and (idx[0] < 0 or idx[-1] >= d):
                raise InvalidInputError(f"index set {idx} out of range")
            if not a.is_zero():
                clean[idx] = clean[idx] + a if idx in clean else a
        self.coeffs = clean

    @classmethod
    def monomial(cls, torus, a: TrigPolynomial, index_set):
        return cls(torus, len(index_set), {tuple(index_set): a})

    def __add__(self, other):
        if self.degree != other.degree or self.torus != other.torus:
            raise InvalidInputError("cannot add forms of different degree")
        out = dict(self.coeffs)
        for idx, a in other.coeffs.items():
            out[idx] = out[idx] + a if idx in out else a
        return DifferentialForm(self.torus, self.degree, out)

    def __mul__(self, scalar):
        return DifferentialForm(
            self.torus, self.degree, {i: a * float(scalar) for i, a in self.coeffs.items()}
        )

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + other * (-1.0)

    def evaluate(self, x, v):
        """omega_x(v_1, ..., v_p) for batches x (k, d), v (k, n, d)."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None]
            v = v[None]
        p = self.degree
        if v.shape[1] < p:
            raise InvalidInputError(f"form of degree {p} needs at least {p} vectors")
        out = np.zeros(x.shape[0])
        for idx, a in self.coeffs.items():
            if p == 0:
                out += a(x)
                continue
            # M[k, a, j] = (v_j)_{I_a}
            mat = v[:, :p, :][:, :, list(idx)].transpose(0, 2, 1)
            out += a(x) * np.linalg.det(mat)
        return float(out[0]) if single else out

    def exterior_derivative(self):
        if self.degree >= self.torus.dim:
            raise InvalidInputError("cannot take d of a top-degree form")
        out = {}
        for idx, a in self.coeffs.items():
            for j in range(self.torus.dim):
                sign = _insertion_sign(idx, j)
                if sign is None:
                    continue
                da = a.partial(j) * sign
                if da.is_zero():
                    continue
                new_idx = tuple(sorted(idx + (j,)))
                out[new_idx] = out[new_idx] + da if new_idx in out else da
        return DifferentialForm(self.torus, self.degree + 1, out)

    def wedge(self, other):
        if self.torus != other.torus:
            raise DimensionMismatchError("forms on different tori")
        total = self.degree + other.degree
        if total > self.torus.dim:
            raise InvalidInputError("wedge degree exceeds manifold dimension")
        out = {}
        for i1, a1 in self.coeffs.items():
            for i2, a2 in other.coeffs.items():
                merged, sign = _merge_sign(i1, i2)
                if merged is None:
                    continue
                term = (a1 * a2) * sign
                out[merged] = out[merged] + term if merged in out else term
        return DifferentialForm(self.torus, total, out)

    def sup_bound(self):
        """Coefficient-level bound: sum over I of sup-bound of a_I."""
        return sum(a.sup_bound() for a in self.coeffs.values())

    def is_zero(self, tol=0.0):
        """True when every coefficient magnitude is at most tol.

        Mixed-order second partials of the same trig term differ by rounding
        in the last few bits, so identities like d(d omega) = 0 hold only up
        to a residue of a few ulps times the derivative scale; callers
        checking those pass a small positive tol.
        """
        return all(a.is_zero(tol) for a in self.coeffs.values())


def frequency_modes(dim, cutoff):
    """Deterministic enumeration of the functions cos/sin(2 pi m.x), |m|_inf <= N.

    cos modes with m and -m identified (m = 0 gives the constant 1); sin modes
    only for canonical nonzero m.  Returns a list of (m, kind) pairs.
    """
    modes = []
    rng = range(-cutoff, cutoff + 1)
    seen = set()
    for m in itertools.product(rng, repeat=dim):
        mc, _ = _canonical_freq(m)
        if mc in seen:
            continue
        seen.add(mc)
        modes.append((mc, "cos"))
        if any(mi != 0 for mi in mc):
            modes.append((mc, "sin"))
    modes.sort(key=lambda mk: (max(abs(c) for c in mk[0]) if mk[0] else 0, mk[0], mk[1]))
    return modes


def form_basis(torus, degree, cutoff):
    """All forms a dx_I with a a frequency mode up to the cutoff, |I| = degree."""
    if not (0 <= degree < torus.dim):
        raise InvalidInputError("degree out of range for a test basis")
    if cutoff < 0:
        raise InvalidInputError("cutoff must be nonnegative")
    basis = []
    modes = frequency_modes(torus.dim, cutoff)
    for idx in itertools.combinations(range(torus.dim), degree):
        for m, kind in modes:
            a = TrigPolynomial.mode(torus.dim, m, kind)
            basis.append(DifferentialForm.monomial(torus, a, idx))
    return basis
