"""Finite atom measures on the tangent-tuple bundle over a flat torus.

A DiscreteMeasure is a weighted list of tangent tuples.  It supports the
volume-weighted mass, the current pairing with degree-n forms, a truncated
weak metric built from a deterministic test-function family, the residual
against exact forms, and mollifier smoothing.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

from .geometry import (
    DifferentialForm,
    DimensionMismatchError,
    FlatTorus,
    InvalidInputError,
    TWO_PI,
    frequency_modes,
    gram_volume,
)


class DiscreteMeasure:
    """Finite weighted atom set on T^n M, optionally signed.

    Atoms are stored as arrays: positions x (k, d), vector frames v (k, n, d)
    and weights w (k,).  n = 0 is allowed internally (zero-chains pair with
    functions); the frame array then has shape (k, 0, d).
    """

    __slots__ = ("torus", "n", "x", "v", "w", "positive")

    def __init__(self, torus, n, x, v, w, positive=True):
        self.torus = torus
        self.n = int(n)
        x = np.asarray(x, dtype=float).reshape(-1, torus.dim)
        # explicit leading size: -1 is ambiguous when n = 0 (zero-chains)
        v = np.asarray(v, dtype=float).reshape(len(x), self.n, torus.dim)
        w = np.asarray(w, dtype=float).reshape(-1)
        if not (len(x) == len(v) == len(w)):
            raise DimensionMismatchError("atom arrays have inconsistent lengths")
        if positive and len(w) and w.min() < 0:
            raise InvalidInputError("positive measure with negative weights")
        self.x = torus.wrap(x)
        self.v = v
        self.w = w
        self.positive = bool(positive)

    # -- constructors -------------------------------------------------
    @classmethod
    def empty(cls, torus, n, positive=True):
        return cls(torus, n, np.zeros((0, torus.dim)), np.zeros((0, n, torus.dim)),
                   np.zeros(0), positive)

    @classmethod
    def concatenate(cls, parts):
        parts = [p for p in parts if len(p.w)]
        if not parts:
            raise InvalidInputError("nothing to concatenate")
        p0 = parts[0]
        return cls(
            p0.torus, p0.n,
            np.concatenate([p.x for p in parts]),
            np.concatenate([p.v for p in parts]),
            np.concatenate([p.w for p in parts]),
            positive=all(p.positive for p in parts),
        )

    def __len__(self):
        return len(self.w)

    def scaled(self, factor):
        return DiscreteMeasure(self.torus, self.n, self.x, self.v, self.w * factor,
                               positive=self.positive and factor >= 0)

    # -- functionals --------------------------------------------------
    def mass(self):
        """Volume-weighted mass: sum of w * gram_volume(v)."""
        if not len(self.w):
            return 0.0
        return float(np.sum(self.w * gram_volume(self.v)))

    def total_mass(self):
        """Plain sum of weights."""
        return float(np.sum(self.w))

    def pair(self, omega: DifferentialForm):
        """Current pairing <T_mu, omega> = integral of omega against the measure."""
        if omega.degree != self.n:
            raise InvalidInputError(
                f"pairing needs a degree-{self.n} form, got degree {omega.degree}")
        if not len(self.w):
            return 0.0
        return float(np.sum(self.w * omega.evaluate(self.x, self.v)))

    def integrate(self, func):
        """Integral of a plain function f(x, v) given vectorized arrays."""
        if not len(self.w):
            return 0.0
        return float(np.sum(self.w * func(self.x, self.v)))


# ---------------------------------------------------------------------------
# test-function family and the truncated weak metric
# ---------------------------------------------------------------------------

def _bump(t):
    """The standard C-infinity bump exp(-1/(1-t^2)) on (-1, 1), else 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


@dataclass(frozen=True)
class TestFamily:
    """Deterministic enumeration f_1, f_2, ... of bounded test functions.

    Entries are products of a trig mode in x with either nothing (pure
    x-modes) or a tensor Gaussian-type factor in the vector components at
    dyadic bandwidth 2^j, times (1 + gram volume).  Each entry comes with an
    analytic upper bound for its sup norm, which normalizes the metric.
    """

    __test__ = False  # not a pytest class

    torus: FlatTorus
    n: int
    freq_cutoff: int = 2
    max_bandwidth: int = 3

    def _entries(self, count):
        modes = frequency_modes(self.torus.dim, self.freq_cutoff)
        entries = []
        # diagonal enumeration over (mode index, bandwidth level or pure-x)
        level = 0
        while len(entries) < count:
            for t in range(level + 1):
                j = level - t
                if t >= len(modes) or j > self.max_bandwidth:
                    continue
                entries.append((modes[t], None if j == 0 else j - 1))
                if len(entries) >= count:
                    break
            level += 1
            if level > len(modes) + self.max_bandwidth + 2:
                break
        if count < 1 or len(entries) < count:
            raise InvalidInputError("test family exhausted")
        return entries[:count]

    def _bound(self, j):
        """Sup-norm bound of an entry at bandwidth level j (None: pure x-mode)."""
        if j is None:
            return 1.0
        sigma = 2.0 ** j
        nn = self.n
        # (1 + vol) <= 1 + |v|^n, and sup (1 + r^n) e^{-r^2/(2 s^2)} <= 1 + (s sqrt(n))^n e^{-n/2}
        return 1.0 + (sigma * math.sqrt(max(nn, 1))) ** nn * math.exp(-nn / 2.0)

    @staticmethod
    def _values(entries, x, v, one_vol=None):
        """(i, values of entries[i] at the atoms), grouped by mode.

        One phase per mode, one Gaussian per bandwidth and one Gram volume
        (one_vol = 1 + gram_volume(v), computed here when not given) serve
        every entry that uses them; grouping keeps few arrays alive at once.
        """
        bands = {j for _, j in entries if j is not None}
        if bands:
            flat = v.reshape(len(v), -1)
            sq = np.sum(flat * flat, axis=1)
            gauss = {}
            for j in bands:
                sigma = 2.0 ** j
                gauss[j] = np.exp(-sq / (2.0 * sigma * sigma))
            del sq
            if one_vol is None:
                one_vol = 1.0 + gram_volume(v)
        by_mode = {}
        for i, ((m, kind), j) in enumerate(entries):
            by_mode.setdefault(m, []).append((i, kind, j))
        for m, group in by_mode.items():
            phase = TWO_PI * (x @ np.asarray(m, dtype=float))
            for kind, trig_fn in (("cos", np.cos), ("sin", np.sin)):
                members = [(i, j) for i, k, j in group if k == kind]
                if members:
                    trig = trig_fn(phase)
                    for i, j in members:
                        yield i, trig if j is None else trig * gauss[j] * one_vol

    def function(self, index):
        """The index-th test function (1-based) and its sup-norm bound."""
        entry = self._entries(index)[-1]

        def f(x, v):
            return next(self._values([entry], x, v))[1]

        return f, self._bound(entry[1])

    def bounds(self, truncation):
        """Sup-norm bounds of f_1, ..., f_truncation."""
        return [self._bound(j) for _, j in self._entries(truncation)]

    def moments(self, mu: DiscreteMeasure, truncation):
        """[mass, integral of f_1, ..., integral of f_truncation] against mu.

        Equal bit for bit to mu.mass() and mu.integrate(f_m); the atoms'
        features are computed once for all entries.
        """
        entries = self._entries(truncation)
        if not len(mu.w):
            return np.zeros(truncation + 1)
        sums = np.empty(truncation + 1)
        vol = gram_volume(mu.v)
        sums[0] = np.sum(mu.w * vol)
        vol += 1.0  # now 1 + vol, in place
        for i, values in self._values(entries, mu.x, mu.v, vol):
            sums[i + 1] = np.sum(mu.w * values)
        return sums


def moment_distance(a, b, family: TestFamily):
    """The truncated metric between two moment vectors of TestFamily.moments."""
    total = abs(a[0] - b[0])
    for m, bound in enumerate(family.bounds(len(a) - 1), start=1):
        total += abs(a[m] - b[m]) / (2.0 ** m * bound)
    return float(total)


def dist(mu1: DiscreteMeasure, mu2: DiscreteMeasure, family: TestFamily, truncation):
    """Truncated metric: mass gap plus the weighted test-function gaps."""
    if mu1.torus != mu2.torus or mu1.n != mu2.n:
        raise DimensionMismatchError("measures on different bundles")
    if truncation < 1:
        raise InvalidInputError("truncation must be at least 1")
    return moment_distance(family.moments(mu1, truncation),
                           family.moments(mu2, truncation), family)


# atoms per chunk of the Fourier sums: each chunk temporary holds about
# this many floats (512 KiB)
_CHUNK_ENTRIES = 1 << 16


def exact_form_pairings(mu: DiscreteMeasure, cutoff):
    """(pairing, normalized) arrays of mu with d(omega), in form_basis order.

    omega = a dx_I runs over form_basis(mu.torus, mu.n - 1, cutoff) with
    a = cos or sin(2 pi m.x); d omega = sum_{j not in I} d_j a dx_j ^ dx_I.
    Every pairing is therefore a signed sum of the Fourier sums
    S[m, K] = sum w e^{2 pi i m.x} det(v_K) over the n-subsets K = I + j,
    which are accumulated once, over atom chunks.  The normalized pairing is
    |<mu, d omega>| / (1 + sup |d omega|), with the coefficient bound
    sup |d omega| <= sum_{j not in I} 2 pi |m_j|; the constant mode gives 0.
    """
    d, n = mu.torus.dim, mu.n
    if not (0 <= n - 1 < d):
        raise InvalidInputError("degree out of range for a test basis")
    if cutoff < 0:
        raise InvalidInputError("cutoff must be nonnegative")
    modes = frequency_modes(d, cutoff)
    freqs = list(dict.fromkeys(m for m, _ in modes if any(m)))
    M = np.array(freqs, dtype=float).reshape(-1, d)
    subsets = list(itertools.combinations(range(d), n))
    column = {K: c for c, K in enumerate(subsets)}
    Sc = np.zeros((len(M), len(subsets)))
    Ss = np.zeros((len(M), len(subsets)))
    chunk = max(1, _CHUNK_ENTRIES // max(len(M), len(subsets) * n * n))
    for lo in range(0, len(mu.w), chunk):
        x, v = mu.x[lo:lo + chunk], mu.v[lo:lo + chunk]
        # D[k, K] = det((v_b)_{K_a}), the minors DifferentialForm.evaluate takes
        D = np.linalg.det(v[:, :, np.array(subsets)].transpose(0, 2, 3, 1))
        wD = mu.w[lo:lo + chunk, None] * D
        phase = TWO_PI * (x @ M.T)
        Sc += np.cos(phase).T @ wD
        Ss += np.sin(phase).T @ wD
    # position of each basis mode in the [0, cos rows, sin rows] tables
    row = {m: i for i, m in enumerate(freqs)}
    pick = np.array([0 if not any(m) else 1 + row[m] + (len(M) if kind == "sin" else 0)
                     for m, kind in modes], dtype=int)
    pairing, bound = [], []
    for I in itertools.combinations(range(d), n - 1):
        free = [j for j in range(d) if j not in I]
        cols = [column[tuple(sorted(I + (j,)))] for j in free]
        # sign of dx_j ^ dx_I against the sorted order
        sign = np.array([(-1.0) ** sum(i < j for i in I) for j in free])
        f = TWO_PI * M[:, free] * sign
        # d_j cos(2 pi m.x) = -2 pi m_j sin, d_j sin(2 pi m.x) = 2 pi m_j cos
        p_cos = -np.sum(f * Ss[:, cols], axis=1)
        p_sin = np.sum(f * Sc[:, cols], axis=1)
        norm = 1.0 + np.sum(np.abs(f), axis=1)
        pairing.append(np.concatenate([[0.0], p_cos, p_sin])[pick])
        bound.append(np.concatenate([[1.0], norm, norm])[pick])
    pairing = np.concatenate(pairing)
    return pairing, np.abs(pairing) / np.concatenate(bound)


def hol_residual(mu: DiscreteMeasure, cutoff):
    """Largest normalized pairing against exact n-forms from the test basis.

    Zero iff the measure kills d(omega) for every (n-1)-form omega in the
    basis up to the frequency cutoff.
    """
    if mu.n > mu.torus.dim:
        raise InvalidInputError("more vectors than the torus dimension")
    _, normalized = exact_form_pairings(mu, cutoff)
    return float(np.max(normalized, initial=0.0))


def _mollifier_nodes(eps, q):
    """Midpoint nodes and normalized bump weights on [-eps/2, eps/2]."""
    centers = (np.arange(q) + 0.5) / q * 2.0 - 1.0  # in (-1, 1)
    weights = _bump(centers)
    weights /= weights.sum()
    return centers * (eps / 2.0), weights


def convolve(mu: DiscreteMeasure, eps, quad_points=3):
    """Mollifier smoothing: horizontal coordinate shifts and vertical vector shifts.

    On a flat torus the spanning frame fields are the coordinate fields whose
    flows are translations, so each atom is replaced by a tensor quadrature
    cloud over d + n*d shift directions.  Total weight is preserved exactly
    because the discrete mollifier weights sum to one.
    """
    if eps <= 0:
        raise InvalidInputError("bandwidth must be positive")
    d = mu.torus.dim
    n = mu.n
    nodes, weights = _mollifier_nodes(eps, quad_points)
    naxes = d + n * d
    x = mu.x
    v = mu.v
    w = mu.w
    for axis in range(naxes):
        k = len(w)
        x = np.repeat(x, quad_points, axis=0)
        v = np.repeat(v, quad_points, axis=0)
        w = np.repeat(w, quad_points) * np.tile(weights, k)
        shift = np.tile(nodes, k)
        if axis < d:
            x = x.copy()
            x[:, axis] += shift
        else:
            i, a = divmod(axis - d, d)
            v = v.copy()
            v[:, i, a] += shift
    return DiscreteMeasure(mu.torus, n, mu.torus.wrap(x), v, w, positive=mu.positive)


# ---------------------------------------------------------------------------
# smooth density models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothDensityModel:
    """Nonnegative density rho(x, v) on T^d x R^{n d} with compact v-support.

    density(x, v) must accept batches x (k, d), v (k, n, d).  x_constant
    marks densities that do not depend on x, which lets the pipeline reuse
    fiberwise infima across simplices.  v_sampler, when given, draws frames
    from the v-marginal (used for importance sampling).
    """

    torus: FlatTorus
    n: int
    density: callable
    radius: float
    x_constant: bool = False
    v_sampler: callable = None

    def __call__(self, x, v):
        return self.density(np.asarray(x, float), np.asarray(v, float))


def velocity_bump_model(torus, n, centers, eps):
    """Probability density: uniform in x, tensor bump of width eps around the frame.

    centers has shape (n, d).  The bump is the standard mollifier per
    component, normalized so the v-integral is one.
    """
    centers = np.asarray(centers, dtype=float).reshape(n, torus.dim)
    # 1-D normalization of the bump on (-eps, eps)
    grid = np.linspace(-1, 1, 4001)[1:-1]
    z = _trapezoid(_bump(grid), grid) * eps
    ncomp = n * torus.dim

    def density(x, v):
        delta = (v - centers[None]) / eps
        flat = delta.reshape(len(v), -1)
        vals = _bump(flat)
        return np.prod(vals, axis=1) / (z ** ncomp)

    # inverse-CDF table for one component
    tgrid = np.linspace(-1, 1, 2001)
    pdf = _bump(tgrid)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(tgrid))])
    cdf /= cdf[-1]

    def v_sampler(rng, size):
        u = rng.random((size, ncomp))
        draws = np.interp(u, cdf, tgrid) * eps
        return centers[None] + draws.reshape(size, n, torus.dim)

    radius = float(np.max(np.abs(centers)) + eps)
    return SmoothDensityModel(torus, n, density, radius, x_constant=True,
                              v_sampler=v_sampler)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def write_measure(mu: DiscreteMeasure, path_or_file):
    """Plain-text atom format; floats at 17 significant digits."""
    close = False
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        fh = open(path_or_file, "w")
        close = True
    else:
        fh = path_or_file
    try:
        fh.write(f"torus d={mu.torus.dim} n={mu.n} signed={0 if mu.positive else 1}\n")
        for i in range(len(mu.w)):
            nums = list(mu.x[i]) + list(mu.v[i].reshape(-1)) + [mu.w[i]]
            fh.write(" ".join("%.17g" % val for val in nums) + "\n")
    finally:
        if close:
            fh.close()


def read_measure(path_or_file):
    close = False
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        fh = open(path_or_file)
        close = True
    else:
        fh = path_or_file
    try:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "torus":
            raise InvalidInputError("malformed measure header")
        fields = dict(part.split("=") for part in header[1:])
        d = int(fields["d"])
        n = int(fields["n"])
        signed = int(fields["signed"]) == 1
        torus = FlatTorus(d)
        rows = []
        for line in fh:
            if line.strip():
                vals = [float(tok) for tok in line.split()]
                if len(vals) != d + n * d + 1:
                    raise InvalidInputError("malformed atom record")
                rows.append(vals)
        if not rows:
            return DiscreteMeasure.empty(torus, n, positive=not signed)
        arr = np.array(rows)
        x = arr[:, :d]
        v = arr[:, d:d + n * d].reshape(-1, n, d)
        w = arr[:, -1]
        return DiscreteMeasure(torus, n, x, v, w, positive=not signed)
    finally:
        if close:
            fh.close()
