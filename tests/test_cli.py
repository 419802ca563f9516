import json
import math
import os

import numpy as np
import pytest

from holocycle.chains import Chain
from holocycle.cli import _lagrangian, main, trig_to_dict
from holocycle.geometry import FlatTorus, TrigPolynomial, form_basis
from holocycle.measures import DiscreteMeasure, read_measure, write_measure

GOLDEN = (1 + math.sqrt(5)) / 2


def write_fields(path, dim, fields):
    data = {"dim": dim,
            "fields": [[trig_to_dict(c) for c in f] for f in fields]}
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


def const_field(dim, vec):
    return tuple(TrigPolynomial.constant(dim, float(c)) for c in vec)


# -- gen-measure -------------------------------------------------------

def test_gen_curve_measure(tmp_path):
    rc = main(["--out", str(tmp_path), "gen-measure", "--kind", "curve",
               "--expr", f"t, {GOLDEN}*t", "--atoms", "32"])
    assert rc == 0
    mu = read_measure(tmp_path / "measure.txt")
    assert mu.n == 1 and mu.torus.dim == 2
    assert mu.total_mass() == pytest.approx(1.0)
    assert np.allclose(mu.v.reshape(-1, 2), [1.0, GOLDEN], atol=1e-5)


def test_gen_flow_measure(tmp_path):
    path = write_fields(tmp_path / "e1.json", 3,
                        [const_field(3, [1, 0, 0])])
    rc = main(["--out", str(tmp_path), "gen-measure", "--kind", "flow",
               "--field", path, "--horizon", "1.0", "--grid", "4"])
    assert rc == 0
    mu = read_measure(tmp_path / "measure.txt")
    assert len(mu.w) == 64
    assert np.allclose(mu.v.reshape(-1, 3), [1, 0, 0])


def test_gen_foliation_measure(tmp_path):
    path = write_fields(tmp_path / "pair.json", 3,
                        [const_field(3, [1, 0, 0]), const_field(3, [0, 1, 0])])
    rc = main(["--out", str(tmp_path), "gen-measure", "--kind", "foliation",
               "--field", path, "--grid", "4"])
    assert rc == 0
    mu = read_measure(tmp_path / "measure.txt")
    assert mu.n == 2
    assert mu.total_mass() == pytest.approx(1.0)


def test_gen_measure_missing_expr(tmp_path):
    rc = main(["--out", str(tmp_path), "gen-measure", "--kind", "curve"])
    assert rc == 2


# -- check-hol ---------------------------------------------------------

def test_check_hol_closed_loop(tmp_path, capsys):
    main(["--out", str(tmp_path), "gen-measure", "--kind", "curve",
          "--expr", "t, 2*t", "--atoms", "512"])
    rc = main(["--out", str(tmp_path), "check-hol",
               str(tmp_path / "measure.txt"), "--tol", "1e-4"])
    assert rc == 0
    assert "max_residual" in capsys.readouterr().out


def test_check_hol_open_segment(tmp_path):
    main(["--out", str(tmp_path), "gen-measure", "--kind", "curve",
          "--expr", "0.25*t, 0", "--atoms", "128"])
    rc = main(["--out", str(tmp_path), "check-hol",
               str(tmp_path / "measure.txt")])
    assert rc == 1


def test_check_hol_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a measure\n")
    rc = main(["check-hol", str(bad)])
    assert rc == 2


def test_check_hol_empty_measure(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("torus d=2 n=1 signed=0\n")
    rc = main(["check-hol", str(path)])
    assert rc == 0


def test_check_hol_rows_follow_form_basis(tmp_path, capsys):
    # d = 3, n = 2: 3 index sets times 125 modes at cutoff 2
    torus = FlatTorus(3)
    rng = np.random.default_rng(3)
    mu = DiscreteMeasure(torus, 2, rng.random((40, 3)), rng.normal(size=(40, 2, 3)),
                         rng.random(40))
    path = tmp_path / "m.txt"
    write_measure(mu, path)
    mu = read_measure(path)
    rc = main(["check-hol", str(path), "--cutoff", "2", "--tol", "1e9"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines if not line.startswith("#")]
    assert len(rows) == 375
    assert [int(r[0]) for r in rows] == list(range(375))
    for row, omega in zip(rows, form_basis(torus, 1, 2)):
        dw = omega.exterior_derivative()
        val = mu.pair(dw)
        assert abs(float(row[1]) - val) <= 1e-12 * (1.0 + abs(val))
        assert abs(float(row[2]) - abs(val) / (1.0 + dw.sup_bound())) <= 1e-12
    worst = max(float(r[2]) for r in rows)
    assert lines[-1] == "# max_residual %.17g" % worst


# -- approximate -------------------------------------------------------

CONFIG = """
[torus]
d = 2
n = 1

[density]
type = bump
centers = 1.0 {phi}
eps = 0.125

[pipeline]
k_max = 2
k_min = 1
leaves = 2
leaf_length = 2.0
seed = 5
nodes_per_unit = 32

[lagrangian]
energy = 1 + vnorm2
""".format(phi=GOLDEN)


def run_approx(tmp_path, sub="run"):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    out = tmp_path / sub
    rc = main(["--config", str(cfg), "--out", str(out), "approximate"])
    return rc, out


def test_approximate_reports(tmp_path):
    rc, out = run_approx(tmp_path)
    assert rc == 0
    lines = (out / "report.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + one row per k
    header = lines[0].split(",")
    assert "dist_mu_eta" in header and "action_gap_energy" in header
    detail = json.loads((out / "report.json").read_text())
    assert [row["k"] for row in detail] == [1, 2]
    chain = json.loads((out / "cycle.json").read_text())
    assert chain["cells"]


def test_approximate_deterministic(tmp_path):
    _, out1 = run_approx(tmp_path, "a")
    _, out2 = run_approx(tmp_path, "b")
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


def test_approximate_exits_3_when_the_cycle_is_not_a_probability(
        tmp_path, capsys, monkeypatch):
    scaled = Chain.scaled
    monkeypatch.setattr(Chain, "scaled",
                        lambda self, factor: scaled(self, 1.01 * factor))
    rc, out = run_approx(tmp_path)
    assert rc == 3
    assert ("stage failure: cycle measure at k=1 is not a probability"
            in capsys.readouterr().err)
    assert not (out / "report.csv").exists()


def test_approximate_missing_config(tmp_path):
    rc = main(["--out", str(tmp_path), "approximate"])
    assert rc == 2
    rc = main(["--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path),
               "approximate"])
    assert rc == 2


def test_approximate_unknown_pipeline_key(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG.replace("[pipeline]\n", "[pipeline]\nhol_cutoff = 3\n"))
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "run"), "approximate"])
    assert rc == 2
    assert "'hol_cutoff'" in capsys.readouterr().err


@pytest.mark.parametrize("expr, named", [("__import__('os')", "'__import__'"),
                                          ("x.__class__", "Attribute"),
                                          ("speed + 1", "'speed'")])
def test_unsafe_or_unknown_expression_rejected(tmp_path, capsys, expr, named):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG.replace("energy = 1 + vnorm2", f"energy = {expr}"))
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "run"), "approximate"])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "run" / "report.csv").exists()
    rc = main(["--out", str(tmp_path), "gen-measure", "--kind", "curve",
               "--expr", f"t, {expr}"])
    assert rc == 2
    assert named in capsys.readouterr().err


def test_lagrangian_documented_names():
    rng = np.random.default_rng(0)
    x, v = rng.random((9, 3)), rng.normal(size=(9, 2, 3))
    L = _lagrangian("x3 * v12 - v23 + vnorm2 * cos(2 * pi * x1)", 3, 2)
    expect = (x[:, 2] * v[:, 0, 1] - v[:, 1, 2]
              + np.sum(v ** 2, axis=(1, 2)) * np.cos(2 * np.pi * x[:, 0]))
    assert np.array_equal(L(x, v), expect)
    assert np.array_equal(_lagrangian("1 + vnorm2", 3, 2)(x, v),
                          1 + np.sum(v ** 2, axis=(1, 2)))


# -- frobenius ---------------------------------------------------------

def test_frobenius_coordinate_fields(tmp_path):
    path = write_fields(tmp_path / "pair.json", 3,
                        [const_field(3, [1, 0, 0]), const_field(3, [0, 1, 0])])
    rc = main(["--out", str(tmp_path), "frobenius", path, "--cutoff", "1"])
    assert rc == 0
    report = json.loads((tmp_path / "frobenius.json").read_text())
    assert report["feasible"] and report["residual"] <= 1e-10


def test_frobenius_twisted_infeasible(tmp_path):
    X2 = (TrigPolynomial.constant(3, 0.0), TrigPolynomial.constant(3, 1.0),
          TrigPolynomial.mode(3, (1, 0, 0), "sin"))
    path = write_fields(tmp_path / "tw.json", 3,
                        [const_field(3, [1, 0, 0]), X2])
    rc = main(["--out", str(tmp_path), "frobenius", path, "--cutoff", "2"])
    assert rc == 1
    report = json.loads((tmp_path / "frobenius.json").read_text())
    assert not report["feasible"]
    assert report["residual"] > 0.1


def test_frobenius_residual_mode(tmp_path):
    path = write_fields(tmp_path / "pair.json", 3,
                        [const_field(3, [1, 0, 0]), const_field(3, [0, 1, 0])])
    rho = tmp_path / "rho.json"
    rho.write_text(json.dumps(trig_to_dict(TrigPolynomial.constant(3, 1.0))))
    rc = main(["--out", str(tmp_path), "frobenius", path, "--rho", str(rho)])
    assert rc == 0
    report = json.loads((tmp_path / "frobenius.json").read_text())
    assert report["mode"] == "residual"


# -- pseudoholo --------------------------------------------------------

def test_pseudoholo_standard(tmp_path):
    xp = write_fields(tmp_path / "x.json", 4, [const_field(4, [1, 0, 0, 0])])
    yp = write_fields(tmp_path / "y.json", 4, [const_field(4, [0, 1, 0, 0])])
    rc = main(["--out", str(tmp_path), "pseudoholo", xp, yp, "--grid", "2"])
    assert rc == 0
    report = json.loads((tmp_path / "pseudoholo.json").read_text())
    grid = json.loads(open(report["J_grid_path"]).read())
    assert grid["certificate"] <= 1e-8
    J = np.array(grid["J"])
    assert np.abs(np.einsum("kij,kjl->kil", J, J) + np.eye(4)).max() <= 1e-8


def test_pseudoholo_infeasible(tmp_path):
    xp = write_fields(tmp_path / "x.json", 4, [const_field(4, [1, 0, 0, 0])])
    bad = (TrigPolynomial.constant(4, 0.0), TrigPolynomial.constant(4, 1.0),
           TrigPolynomial.mode(4, (1, 0, 0, 0), "sin"),
           TrigPolynomial.constant(4, 0.0))
    yp = write_fields(tmp_path / "y.json", 4, [bad])
    rc = main(["--out", str(tmp_path), "pseudoholo", xp, yp, "--grid", "3"])
    assert rc == 1


def test_pseudoholo_missing_file(tmp_path):
    xp = write_fields(tmp_path / "x.json", 4, [const_field(4, [1, 0, 0, 0])])
    rc = main(["--out", str(tmp_path), "pseudoholo", xp,
               str(tmp_path / "nope.json")])
    assert rc == 2


def test_pseudoholo_wrong_dimension(tmp_path):
    xp = write_fields(tmp_path / "x3.json", 3, [const_field(3, [1, 0, 0])])
    rc = main(["--out", str(tmp_path), "pseudoholo", xp, xp])
    assert rc == 2
