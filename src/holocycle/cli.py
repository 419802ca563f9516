"""Command-line entry point.

Subcommands: gen-measure, check-hol, approximate, frobenius, pseudoholo.
Exit codes: 0 success / check passed, 1 check failed or infeasible,
2 input error, 3 internal stage failure.
"""

import argparse
import configparser
import json
import os
import re
import sys

import numpy as np

from .geometry import (
    FlatTorus,
    InvalidInputError,
    TrigPolynomial,
)
from .chains import Expression, ExprMap, chain_to_dict
from .measures import (
    DiscreteMeasure,
    SmoothDensityModel,
    exact_form_pairings,
    read_measure,
    velocity_bump_model,
    write_measure,
)
from .approximation import PipelineConfig, approximate
from .foliations import (
    DensityCandidate,
    VectorFieldSet,
    foliation_to_measure,
    frobenius_residual,
    pseudoholomorphic_construct,
    solve_density,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# CSV column order is part of the output contract; floats at 17 significant
# digits so identical runs are byte-identical
CSV_COLUMNS = [
    "k", "cells", "leaves", "dist_mu_eta", "dist_mu_base", "dist_base_beta",
    "dist_beta_eta", "mass_beta", "mass_eta", "mass_gap", "total_mass_gap",
    "hol_residual", "unpaired_ratio", "connector_mass", "fill_mass",
]


# ---------------------------------------------------------------------------
# serialization of trig data
# ---------------------------------------------------------------------------

def trig_to_dict(p: TrigPolynomial):
    return {"dim": p.dim,
            "terms": [{"m": list(m), "cos": c, "sin": s}
                      for m, (c, s) in sorted(p.terms.items())]}


def trig_from_dict(data):
    return TrigPolynomial(data["dim"],
                          {tuple(t["m"]): (t.get("cos", 0.0), t.get("sin", 0.0))
                           for t in data["terms"]})


def fields_from_file(path):
    """Vector-field file: JSON {dim, fields: [[component...] per field]}."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise InvalidInputError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: line {exc.lineno} column {exc.colno}: "
                                f"{exc.msg}")
    d = int(data["dim"])
    fields = tuple(
        tuple(trig_from_dict({"dim": d, **comp}) for comp in field)
        for field in data["fields"])
    return VectorFieldSet(FlatTorus(d), fields)


def rho_from_file(path):
    with open(path) as fh:
        data = json.load(fh)
    return DensityCandidate(trig_from_dict(data), log=bool(data.get("log")))


# ---------------------------------------------------------------------------
# gen-measure
# ---------------------------------------------------------------------------

def _curve_measure(exprs, interval, atoms):
    # curve expressions use the variable t; map expressions use t1
    gamma = ExprMap([re.sub(r"\bt\b", "t1", e) for e in exprs], 1)
    a, b = interval
    t = (a + (np.arange(atoms) + 0.5) / atoms * (b - a)).reshape(-1, 1)
    x = gamma(t)
    v = gamma.jacobian(t).reshape(len(t), 1, -1)
    d = x.shape[1]
    torus = FlatTorus(d)
    w = np.full(len(t), 1.0 / len(t))
    return DiscreteMeasure(torus, 1, torus.wrap(x), v, w)


def _flow_measure(field_set: VectorFieldSet, horizon, res):
    from .foliations import grid_points

    if field_set.n != 1:
        raise InvalidInputError("flow generation takes a single vector field")
    pts = grid_points(field_set.torus.dim, res)
    v = field_set.evaluate(pts) * horizon
    w = np.full(len(pts), 1.0 / len(pts))
    return DiscreteMeasure(field_set.torus, 1, pts, v, w)


def cmd_gen_measure(args):
    if args.kind == "curve":
        if not args.expr:
            raise InvalidInputError("curve generation needs --expr")
        exprs = [e.strip() for e in args.expr.split(",")]
        lo, hi = (float(tok) for tok in args.interval.split(","))
        mu = _curve_measure(exprs, (lo, hi), args.atoms)
    elif args.kind == "flow":
        if not args.field:
            raise InvalidInputError("flow generation needs --field")
        mu = _flow_measure(fields_from_file(args.field), args.horizon,
                           args.grid)
    elif args.kind == "foliation":
        if not args.field:
            raise InvalidInputError("foliation generation needs --field")
        fs = fields_from_file(args.field)
        rho = (rho_from_file(args.rho) if args.rho
               else DensityCandidate.one(fs.torus.dim))
        mu = foliation_to_measure(fs, rho, args.grid)
    else:
        raise InvalidInputError(f"unknown generator kind {args.kind!r}")
    path = os.path.join(args.out, args.output)
    write_measure(mu, path)
    print(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check-hol
# ---------------------------------------------------------------------------

def cmd_check_hol(args):
    mu = read_measure(args.measure)
    if not len(mu.w):
        print("empty measure: residual 0")
        return EXIT_OK
    pairing, normalized = exact_form_pairings(mu, args.cutoff)
    worst = float(np.max(normalized, initial=0.0))
    print("# form_index pairing normalized")
    for i, (val, norm) in enumerate(zip(pairing, normalized)):
        print("%d %.17g %.17g" % (i, val, norm))
    print("# max_residual %.17g" % worst)
    return EXIT_OK if worst <= args.tol else EXIT_FAIL


# ---------------------------------------------------------------------------
# approximate
# ---------------------------------------------------------------------------

def _lagrangian(expr, d, n):
    """Integrand L(x, v) in x1..xd, v11..vnd (v_ij: coordinate j of v_i), vnorm2."""
    xs = [f"x{i + 1}" for i in range(d)]
    vs = [[f"v{i + 1}{j + 1}" for j in range(d)] for i in range(n)]
    code = Expression(expr, xs + sum(vs, []) + ["vnorm2"])

    def L(x, v):
        v = np.asarray(v)
        env = {name: x[:, j] for j, name in enumerate(xs)}
        env.update((name, v[:, i, j]) for i, row in enumerate(vs)
                   for j, name in enumerate(row))
        env["vnorm2"] = np.sum(v ** 2, axis=(1, 2))
        return np.broadcast_to(code(env), len(x))

    return L


def _parse_matrix(text):
    return np.array([[float(tok) for tok in row.split()]
                     for row in text.split(";")])


def model_from_config(cp):
    d = cp.getint("torus", "d")
    n = cp.getint("torus", "n")
    if not (1 <= n <= d):
        raise InvalidInputError("need 1 <= n <= d")
    torus = FlatTorus(d)
    kind = cp.get("density", "type")
    if kind == "bump":
        centers = _parse_matrix(cp.get("density", "centers"))
        eps = cp.getfloat("density", "eps")
        return velocity_bump_model(torus, n, centers, eps)
    if kind == "frame":
        frame = _parse_matrix(cp.get("density", "frame"))
        if frame.shape != (n, d):
            raise InvalidInputError("frame must be n rows of d entries")

        def v_sampler(rng, count):
            return np.broadcast_to(frame, (count, n, d)).copy()

        return SmoothDensityModel(
            torus, n, lambda x, v: np.ones(len(x)),
            float(np.abs(frame).max()) + 0.1, x_constant=True,
            v_sampler=v_sampler)
    raise InvalidInputError(f"unknown density type {kind!r}")


PIPELINE_KEYS = {"k_max": int, "k_min": int, "leaves": int, "seed": int,
                 "leaf_length": float, "patch_size": float,
                 "frame_jitter": float, "nodes_per_unit": float}


def pipeline_config_from(cp, seed_override=None):
    kwargs = {}
    if cp.has_section("pipeline"):
        for key, value in cp["pipeline"].items():
            if key not in PIPELINE_KEYS:
                raise InvalidInputError(f"unknown [pipeline] key {key!r}")
            kwargs[key] = PIPELINE_KEYS[key](value)
    if seed_override is not None:
        kwargs["seed"] = seed_override
    lagrangians = {}
    if cp.has_section("lagrangian"):
        d, n = cp.getint("torus", "d"), cp.getint("torus", "n")
        for name, expr in cp["lagrangian"].items():
            lagrangians[name] = _lagrangian(expr, d, n)
    return PipelineConfig(lagrangians=lagrangians, **kwargs)


def write_report(rows, out_dir):
    csv_path = os.path.join(out_dir, "report.csv")
    with open(csv_path, "w") as fh:
        extras = sorted(k for k in rows[0] if k.startswith("action_gap_"))
        cols = CSV_COLUMNS + extras
        fh.write(",".join(cols) + "\n")
        for row in rows:
            cells = []
            for c in cols:
                val = row[c]
                cells.append(str(val) if isinstance(val, int)
                             else "%.17g" % val)
            fh.write(",".join(cells) + "\n")
    json_path = os.path.join(out_dir, "report.json")
    with open(json_path, "w") as fh:
        json.dump([{k: v for k, v in row.items()} for row in rows], fh,
                  indent=1, default=lambda o: np.asarray(o).tolist())
    return csv_path, json_path


def cmd_approximate(args):
    if not args.config:
        raise InvalidInputError("approximate needs --config")
    cp = configparser.ConfigParser()
    if not cp.read(args.config):
        raise InvalidInputError(f"no such config: {args.config}")
    model = model_from_config(cp)
    cfg = pipeline_config_from(cp, args.seed)
    try:
        out = approximate(model, cfg)
    except InvalidInputError as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    csv_path, json_path = write_report(out["rows"], args.out)
    chain_path = os.path.join(args.out, "cycle.json")
    with open(chain_path, "w") as fh:
        # json.dumps runs the C encoder; json.dump to a file does not
        fh.write(json.dumps(chain_to_dict(out["artifacts"][-1]["eta_cells"])))
    print(csv_path)
    print(json_path)
    print(chain_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# frobenius / pseudoholo
# ---------------------------------------------------------------------------

def cmd_frobenius(args):
    fs = fields_from_file(args.fields).validate()
    if args.rho:
        rho = rho_from_file(args.rho).validate()
        residual = frobenius_residual(fs, rho, args.grid)
        report = {"mode": "residual", "residual": residual,
                  "pass": residual <= args.tol}
    else:
        rep = solve_density(fs, args.cutoff, tol=args.tol)
        report = {"mode": "solve", "feasible": rep.feasible,
                  "residual": rep.residual, "cutoff": rep.cutoff}
        if rep.feasible:
            report["rho_coefficients"] = trig_to_dict(rep.rho.rho)
            report["rho_log_form"] = rep.rho.log
    path = os.path.join(args.out, "frobenius.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report, indent=1))
    ok = report.get("pass", report.get("feasible", False))
    return EXIT_OK if ok else EXIT_FAIL


def cmd_pseudoholo(args):
    fx = fields_from_file(args.x_field)
    fy = fields_from_file(args.y_field)
    if fx.torus.dim != 4 or fy.torus.dim != 4:
        raise InvalidInputError("pseudoholomorphic construction needs d = 4")
    if fx.n != 1 or fy.n != 1:
        raise InvalidInputError("expected a single field per file")
    rep = pseudoholomorphic_construct(fx.fields[0], fy.fields[0],
                                      grid=args.grid)
    report = {"feasible": rep.feasible,
              "flow_residual": rep.flow_residual,
              "divergence_residual": rep.divergence_residual}
    if rep.feasible:
        grid_path = os.path.join(args.out, "J_grid.json")
        with open(grid_path, "w") as fh:
            json.dump({"points": rep.structure.points.tolist(),
                       "J": rep.structure.J.tolist(),
                       "rho": rep.structure.rho.tolist(),
                       "certificate": rep.structure.certificate()}, fh)
        report["J_grid_path"] = grid_path
    path = os.path.join(args.out, "pseudoholo.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report, indent=1))
    return EXIT_OK if rep.feasible else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="holocycle",
        description="Constructive approximation of holonomic measures by "
                    "cycles on flat tori.",
        epilog="report.csv columns: " + ",".join(CSV_COLUMNS))
    p.add_argument("--config", help="run configuration (INI)")
    p.add_argument("--seed", type=int, help="seed override")
    p.add_argument("--out", default=".", help="output directory")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-measure", help="generate a measure file")
    g.add_argument("--kind", required=True,
                   choices=["curve", "flow", "foliation"])
    g.add_argument("--expr", help="curve components, e.g. 't, 1.618*t'")
    g.add_argument("--interval", default="0,1")
    g.add_argument("--atoms", type=int, default=256)
    g.add_argument("--field", help="vector-field file")
    g.add_argument("--rho", help="density file")
    g.add_argument("--horizon", type=float, default=1.0)
    g.add_argument("--grid", type=int, default=16)
    g.add_argument("--output", default="measure.txt")
    g.set_defaults(func=cmd_gen_measure)

    c = sub.add_parser("check-hol", help="holonomy residual of a measure")
    c.add_argument("measure")
    c.add_argument("--cutoff", type=int, default=2)
    c.add_argument("--tol", type=float, default=1e-6)
    c.set_defaults(func=cmd_check_hol)

    a = sub.add_parser("approximate", help="run the cycle pipeline")
    a.set_defaults(func=cmd_approximate)

    f = sub.add_parser("frobenius", help="integrability check / density solve")
    f.add_argument("fields")
    f.add_argument("--rho", help="explicit density: residual-only mode")
    f.add_argument("--cutoff", type=int, default=4)
    f.add_argument("--grid", type=int, default=16)
    f.add_argument("--tol", type=float, default=1e-6)
    f.set_defaults(func=cmd_frobenius)

    h = sub.add_parser("pseudoholo",
                       help="almost-complex structure on T^4")
    h.add_argument("x_field")
    h.add_argument("y_field")
    h.add_argument("--grid", type=int, default=6)
    h.set_defaults(func=cmd_pseudoholo)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    try:
        return args.func(args)
    except (InvalidInputError, FileNotFoundError, KeyError,
            configparser.Error, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
