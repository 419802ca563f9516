"""Correctness checks computed apart from the program.

Each check returns a list of problem strings; an empty list means the
output passed.  The checks read plain data (dicts as written by
`chain_to_dict`, report rows, arrays), never call back into `holocycle`,
and carry their own formulas: endpoint evaluation of affine and Hermite
glued maps, exact forms d(f dx_J) paired through their own minors, and the
J-structure identities.
"""
import itertools
import math

import numpy as np

# The acceptance gate on the holonomy residual (criterion 1 in tests/test_acceptance.py).
HOL_GATE = 1e-6


# ---------------------------------------------------------------------------
# n = 1 cycles: signed endpoints cancel on wrapped coordinates
# ---------------------------------------------------------------------------

def _h1(s):
    return 3.0 * s * s - 2.0 * s ** 3


def _h2(s):
    return s ** 3 - s * s


def eval_map(data, t):
    """Evaluate a serialized cell map at parameters t of shape (k, n)."""
    kind = data["type"]
    if kind == "affine":
        return np.asarray(data["x0"], float)[None] + t @ np.asarray(data["V"], float)
    if kind == "affine+hermite":
        out = eval_map(data["base"], t)
        for bl in data["blends"]:
            u = np.asarray(bl["u"], float)
            s = np.clip(1.0 - (bl["c"] - t @ u) / bl["w"], 0.0, 1.0)
            dp = np.asarray(bl["dp0"], float)[None] + t @ np.asarray(bl["dpJ"], float)
            out = (out + _h1(s)[:, None] * dp
                   + (bl["w"] * _h2(s))[:, None] * np.asarray(bl["dn"], float)[None])
        return out
    raise ValueError(f"map type {kind!r} has no endpoint evaluator")


def endpoint_imbalance(chain, tol=1e-9):
    """Largest signed weight left at one point of the 0-chain boundary.

    chain is a serialized 1-chain {"dim", "cells": [{coefficient, domain,
    map}]}.  Endpoints closer than tol on the torus are the same point.
    Returns (imbalance, largest |coefficient|).
    """
    pts, wts = [], []
    for cell in chain["cells"]:
        (lo,), (hi,) = cell["domain"]["bounds"]
        ends = eval_map(cell["map"], np.array([[lo], [hi]]))
        a = cell["coefficient"]
        pts.extend(ends)
        wts.extend((-a, a))
    if not pts:
        return 0.0, 0.0
    from scipy.spatial import cKDTree  # imported here to keep it out of set-up time
    x = np.mod(np.asarray(pts), 1.0)
    x[x >= 1.0] = 0.0
    wts = np.asarray(wts)
    # union the endpoints that coincide on the torus, then sum per cluster
    parent = np.arange(len(x))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in cKDTree(x, boxsize=1.0).query_pairs(tol):
        parent[root(i)] = root(j)
    roots = np.array([root(i) for i in range(len(x))])
    sums = np.zeros(len(x))
    np.add.at(sums, roots, wts)
    return float(np.abs(sums).max()), float(np.abs(wts).max())


def check_n1_cycle(chain, rel_tol=1e-9):
    imbalance, scale = endpoint_imbalance(chain)
    if imbalance > rel_tol * scale:
        return [f"boundary does not cancel: endpoint weight {imbalance:.3e} "
                f"left over (cell coefficients up to {scale:.3e})"]
    return []


# ---------------------------------------------------------------------------
# holonomy residual with exact forms d(f dx_J)
# ---------------------------------------------------------------------------

def half_modes(d, cutoff):
    """Nonzero m in [-cutoff, cutoff]^d with first nonzero entry positive."""
    out = []
    for m in itertools.product(range(-cutoff, cutoff + 1), repeat=d):
        nz = [c for c in m if c]
        if nz and nz[0] > 0:
            out.append(m)
    return np.array(out, float)


def minors(v, rows):
    """det of the n x n matrix (v_a)_{rows_b} per atom; v is (k, n, d)."""
    if len(rows) == 1:
        return v[:, 0, rows[0]]
    i, j = rows
    return v[:, 0, i] * v[:, 1, j] - v[:, 0, j] * v[:, 1, i]


def exact_hol_residual(x, v, w, cutoff=2, chunk=20000):
    """max over f in {cos, sin}(2 pi m.x) and |J| = n-1 of the normalized

    |<mu, d(f dx_J)>| / (1 + sum_{j not in J} 2 pi |m_j|), where
    d(f dx_J)(v) = sum_{j not in J} d_j f(x) det(v_{[j] + J}).
    The constant mode gives d f = 0 and is skipped.
    """
    x = np.asarray(x, float)
    v = np.asarray(v, float)
    w = np.asarray(w, float)
    k, n, d = v.shape
    ms = half_modes(d, cutoff)
    worst = 0.0
    for J in itertools.combinations(range(d), n - 1):
        free = [j for j in range(d) if j not in J]
        D = np.stack([minors(v, (j,) + J) for j in free], axis=1)  # (k, |free|)
        S = np.zeros((len(ms), len(free)), complex)  # sum w e^{2 pi i m.x} D
        for lo in range(0, k, chunk):
            phase = np.exp(2j * np.pi * (x[lo:lo + chunk] @ ms.T))
            S += phase.T @ (w[lo:lo + chunk, None] * D[lo:lo + chunk])
        mj = 2.0 * np.pi * ms[:, free]                       # (modes, |free|)
        # d_j cos = -2 pi m_j sin, d_j sin = 2 pi m_j cos
        pair_cos = -(mj * S.imag).sum(axis=1)
        pair_sin = (mj * S.real).sum(axis=1)
        norm = 1.0 + np.abs(mj).sum(axis=1)
        worst = max(worst, float(np.max(np.abs(pair_cos) / norm)),
                    float(np.max(np.abs(pair_sin) / norm)))
    return worst


def check_hol(x, v, w, reported, cutoff=2):
    """(gate_ok, problems): the exact-form residual agrees with the report.

    gate_ok is False when the residual exceeds HOL_GATE; that is a failed
    operation, not a wrong one.  A disagreement with the reported value is.
    """
    mine = exact_hol_residual(x, v, w, cutoff)
    problems = []
    if abs(mine - reported) > 1e-6 * max(mine, reported) + 1e-13:
        problems.append(f"hol_residual reported {reported:.6e}, "
                        f"exact forms give {mine:.6e}")
    return mine <= HOL_GATE, problems


# ---------------------------------------------------------------------------
# report rows
# ---------------------------------------------------------------------------

def check_row(row, total_mass):
    """Triangle inequality of the reported distances, and eta's unit mass."""
    problems = []
    parts = row["dist_mu_base"] + row["dist_base_beta"] + row["dist_beta_eta"]
    if row["dist_mu_eta"] > parts * (1 + 1e-12) + 1e-15:
        problems.append(f"k={row['k']}: dist_mu_eta {row['dist_mu_eta']:.6e} "
                        f"exceeds the sum of its summands {parts:.6e}")
    if abs(total_mass - 1.0) > 1e-9:
        problems.append(f"k={row['k']}: eta has mass {total_mass!r}, not 1")
    return problems


def check_falling(rows):
    """dist_mu_eta decreases strictly from level to level."""
    problems = []
    for a, b in zip(rows, rows[1:]):
        if not b["dist_mu_eta"] < a["dist_mu_eta"]:
            problems.append(f"dist_mu_eta does not fall from k={a['k']} "
                            f"({a['dist_mu_eta']:.6e}) to k={b['k']} "
                            f"({b['dist_mu_eta']:.6e})")
    return problems


# ---------------------------------------------------------------------------
# foliations
# ---------------------------------------------------------------------------

def eval_trig(terms, x):
    """sum over {m: (c, s)} of c cos(2 pi m.x) + s sin(2 pi m.x)."""
    out = np.zeros(len(x))
    for m, (c, s) in terms.items():
        phase = 2.0 * np.pi * (x @ np.asarray(m, float))
        out += c * np.cos(phase) + s * np.sin(phase)
    return out


def check_density_one(terms, dim, tol=1e-6, res=6):
    """The solved density equals 1, the known invariant density."""
    axes = [(np.arange(res) + 0.5) / res] * dim
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    err = float(np.abs(eval_trig(terms, pts) - 1.0).max())
    return [] if err <= tol else [f"density differs from 1 by {err:.3e}"]


def check_complex_structure(J, Xv, Yv, tol=1e-8):
    """J^2 = -I and J X = Y / rho with rho = |Y| / |X|, at every point."""
    J = np.asarray(J, float)
    problems = []
    sq = np.einsum("kij,kjl->kil", J, J) + np.eye(J.shape[1])[None]
    if float(np.abs(sq).max()) > tol:
        problems.append(f"|J^2 + I| reaches {float(np.abs(sq).max()):.3e}")
    rho = np.linalg.norm(Yv, axis=1) / np.linalg.norm(Xv, axis=1)
    gap = np.einsum("kij,kj->ki", J, Xv) - Yv / rho[:, None]
    if float(np.abs(gap).max()) > tol:
        problems.append(f"|J X - Y/rho| reaches {float(np.abs(gap).max()):.3e}")
    return problems


def check_infeasible(feasible, what):
    return [f"{what} reported feasible"] if feasible else []


def check_feasible(feasible, what):
    return [] if feasible else [f"{what} reported infeasible"]


def total_weight(w):
    return math.fsum(np.asarray(w, float).tolist())
