"""Each independent check accepts a correct output and rejects a broken one.

    python3 -m pytest perfbench/tests -q

The inputs are small hand-made outputs, so no pipeline runs here.
"""
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402


def _segment(x0, v, lo, hi, a=0.25):
    return {"coefficient": a, "domain": {"type": "box", "bounds": [[lo], [hi]]},
            "map": {"type": "affine", "x0": list(x0), "V": [list(v)]}}


def closed_loop():
    """Four segments around the torus's diagonal loop, split at wrap points."""
    v = [1.0, 1.0]
    return {"dim": 2, "cells": [_segment([0.1, 0.2], v, 0.0, 0.25),
                                _segment([0.1, 0.2], v, 0.25, 0.5),
                                _segment([0.1, 0.2], v, 0.5, 0.9),
                                _segment([1.0, 1.1], v, 0.0, 0.1)]}


def test_closed_cycle_passes():
    assert checks.check_n1_cycle(closed_loop()) == []


def test_cycle_missing_one_cell_is_rejected():
    chain = closed_loop()
    del chain["cells"][1]
    assert checks.check_n1_cycle(chain)


def test_hermite_blend_endpoints_are_evaluated():
    chain = closed_loop()
    # a blend whose collar ends before the cell's far end leaves it unchanged
    chain["cells"][2]["map"] = {
        "type": "affine+hermite", "base": chain["cells"][2]["map"],
        "blends": [{"u": [-1.0], "c": -0.5, "w": 0.1, "dp0": [0.0, 0.0],
                    "dpJ": [[0.0, 0.0]], "dn": [0.0, 0.0]}]}
    assert checks.check_n1_cycle(chain) == []
    chain["cells"][2]["map"]["blends"][0]["dp0"] = [1e-3, 0.0]
    assert checks.check_n1_cycle(chain)


def _levels():
    """Two report rows shaped like kronecker's k=1 and k=2."""
    return [{"k": 1, "dist_mu_eta": 0.12, "dist_mu_base": 0.0,
             "dist_base_beta": 0.11, "dist_beta_eta": 0.02},
            {"k": 2, "dist_mu_eta": 0.06, "dist_mu_base": 0.0,
             "dist_base_beta": 0.055, "dist_beta_eta": 0.01}]


def test_distance_rows_pass():
    rows = _levels()
    assert all(checks.check_row(row, 1.0) == [] for row in rows)
    assert checks.check_falling(rows) == []


def test_swapped_distances_are_rejected():
    rows = _levels()
    rows[0]["dist_mu_eta"], rows[1]["dist_mu_eta"] = (rows[1]["dist_mu_eta"],
                                                      rows[0]["dist_mu_eta"])
    assert checks.check_row(rows[1], 1.0)      # 0.12 > 0 + 0.055 + 0.01
    assert checks.check_falling(rows)


def test_mass_other_than_one_is_rejected():
    assert checks.check_row(_levels()[0], 1.0 + 1e-6)


def _torus_circle_measure(count=512, n=1):
    """Atoms of the closed curve t -> (t, 2t) on T^2, a cycle."""
    t = (np.arange(count) + 0.5) / count
    x = np.stack([t, 2 * t], axis=1) % 1.0
    v = np.broadcast_to(np.array([[1.0, 2.0]]), (count, 1, 2)).copy()
    w = np.full(count, 1.0 / count)
    return x, v, w


def test_exact_hol_residual_vanishes_on_a_closed_curve():
    x, v, w = _torus_circle_measure()
    assert checks.exact_hol_residual(x, v, w) < 1e-12


def test_exact_hol_residual_sees_an_open_curve():
    x, v, w = _torus_circle_measure()
    half = len(w) // 2
    # the first half of the curve ends at (1/2, 1): its boundary is nonzero
    gate_ok, problems = checks.check_hol(x[:half], v[:half], w[:half], 0.0)
    assert not gate_ok and problems


def test_exact_hol_residual_matches_a_hand_pairing():
    # one atom: f = cos(2 pi x1), d f(v) = -2 pi sin(2 pi x1) v1
    x = np.array([[0.125, 0.0]])
    v = np.array([[[1.0, 0.0]]])
    w = np.array([1.0])
    expect = 2 * np.pi * np.sin(2 * np.pi * 0.125) / (1 + 2 * np.pi)
    # m = (1, 0) gives the largest normalized pairing for this atom
    assert checks.exact_hol_residual(x, v, w, cutoff=1) == pytest.approx(expect)


def test_plane_minors():
    # v1 = e1, v2 = e2 on T^3: the (0, 1) minor is 1, the (0, 2) minor 0
    v = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    assert checks.minors(v, (0, 1))[0] == 1.0
    assert checks.minors(v, (1, 0))[0] == -1.0
    assert checks.minors(v, (0, 2))[0] == 0.0


def _quarter_rotation(points):
    """J with J e1 = e2, J e2 = -e1, J e3 = e4, J e4 = -e3 at every point."""
    K = np.zeros((4, 4))
    K[1, 0] = K[3, 2] = 1.0
    K[0, 1] = K[2, 3] = -1.0
    return np.broadcast_to(K, (len(points), 4, 4)).copy()


def test_complex_structure_passes():
    pts = np.zeros((3, 4))
    Xv = np.tile([1.0, 0, 0, 0], (3, 1))
    Yv = np.tile([0, 2.0, 0, 0], (3, 1))
    assert checks.check_complex_structure(_quarter_rotation(pts), Xv, Yv) == []


def test_flipped_sign_of_J_is_rejected():
    pts = np.zeros((3, 4))
    Xv = np.tile([1.0, 0, 0, 0], (3, 1))
    Yv = np.tile([0, 2.0, 0, 0], (3, 1))
    problems = checks.check_complex_structure(-_quarter_rotation(pts), Xv, Yv)
    assert any("J X" in p for p in problems)


def test_density_other_than_one_is_rejected():
    one = {(0, 0, 0): (1.0, 0.0)}
    assert checks.check_density_one(one, 3) == []
    assert checks.check_density_one({**one, (1, 0, 0): (1e-3, 0.0)}, 3)


def test_feasibility_verdicts():
    assert checks.check_infeasible(False, "x") == []
    assert checks.check_infeasible(True, "x")
    assert checks.check_feasible(True, "x") == []
    assert checks.check_feasible(False, "x")
