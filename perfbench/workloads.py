"""The benchmark's workloads: their inputs, their operations and their checks.

An operation is one pipeline level, or one foliation call.  A workload's
`run(clock)` runs every operation once, closing one clock lap per
operation, and returns a `finish()` callable.  `finish()` runs the
independent checks, outside every operation's time, and returns one `Op`
per operation: its raw and rescaled seconds, whether it failed the
program's own residual gate, and the problems the checks found.

Seeds reach the program only through `PipelineConfig.seed` (the CLI's
`--seed`) or through the generated vector fields.  `plane-n2` and
`varying-n1` run fixed pipeline seeds; the comments at `PLANE_INI` and
`VARYING_SEED` say why.
"""
import configparser
import json
import os
from dataclasses import dataclass, field

import numpy as np

import checks

PHI = (1.0 + 5.0 ** 0.5) / 2.0

# configs/kronecker.ini with k_max capped at 4: k=5 alone takes ~75 s.
KRONECKER_INI = """\
[torus]
d = 2
n = 1

[density]
type = bump
centers = 1.0 1.6180339887498949
eps = 0.125

[pipeline]
k_max = 4
k_min = 1
leaves = 4
leaf_length = 3.0
seed = 0
nodes_per_unit = 64

[lagrangian]
energy = 1 + vnorm2
"""

# configs/plane.ini with k_max capped at 2: k=3 alone takes ~86 s.  Its run
# time is chaotic in the pipeline seed, which only moves anchors by 1e-5 and
# frames by 1e-4 here: over seeds 0-9 level k=2 took 21 s to 87 s, with 147k
# to 577k atoms, as pairing and gluing decisions flip.  No bound within 25%
# covers that, so this workload runs the config's own seed 0 and ignores
# --seed.
PLANE_INI = """\
[torus]
d = 3
n = 2

[density]
type = frame
frame = 1 0 0; 0 1 0

[pipeline]
k_max = 2
k_min = 1
leaves = 4
patch_size = 1.0
seed = 0
frame_jitter = 1e-4
nodes_per_unit = 16
"""

# The spatially varying workload's levels k >= 2 fail the residual gate
# because `glue` keeps the piece's quadrature resolution for its Hermite
# blends.  A failing operation must fail on every run, so its inputs must
# not depend on --seed: this workload always runs pipeline seed 0.
VARYING_SEED = 0
VARYING_K_MAX = 3


@dataclass
class Op:
    name: str
    raw_s: float
    rescaled_s: float
    failed: bool = False      # failed the residual gate: a known fault
    problems: list = field(default_factory=list)  # wrong output or a crash


class _Laps:
    """Collects clock laps, one per finished operation."""

    def __init__(self, clock):
        self.clock = clock
        self.laps = []

    def __call__(self, *_):
        self.laps.append(self.clock.lap())


def _check_levels(hc, rows, artifacts, n, falling):
    """Per-level (failed, problems) plus problems across levels."""
    results = []
    for row, art in zip(rows, artifacts):
        mu = hc.chain_measure(art["eta"])
        gate_ok, problems = checks.check_hol(mu.x, mu.v, mu.w, row["hol_residual"])
        problems += checks.check_row(row, checks.total_weight(mu.w))
        if n == 1:
            problems += checks.check_n1_cycle(hc.chain_to_dict(art["eta_cells"]))
        results.append((not gate_ok, problems))
    across = checks.check_falling(rows) if falling else []
    return results, across


class CliPipeline:
    """`holocycle approximate` through `cli.main` on a capped bundled config.

    The CLI calls `approximate` without a progress callback, so the round
    swaps `cli.approximate` for a call that passes one: each finished level
    closes a lap of the clock.  The CLI's report and cycle writing after the
    last level is timed as part of the last level.
    """

    def __init__(self, hc, seed, out_dir, ini_text, n):
        """seed None runs the config's own pipeline seed."""
        self.hc = hc
        self.seed = seed
        self.out_dir = out_dir
        self.n = n
        self.ini = os.path.join(out_dir, "config.ini")
        with open(self.ini, "w") as fh:
            fh.write(ini_text)
        cp = configparser.ConfigParser()
        cp.read_string(ini_text)
        self.levels = list(range(cp.getint("pipeline", "k_min"),
                                 cp.getint("pipeline", "k_max") + 1))

    def run(self, clock):
        cli = self.hc.cli
        laps = _Laps(clock)
        real = cli.approximate
        captured = {}

        def approximate_with_laps(model, cfg):
            captured["out"] = real(model, cfg, progress=laps)
            return captured["out"]

        cli.approximate = approximate_with_laps
        seed = [] if self.seed is None else ["--seed", str(self.seed)]
        try:
            code = cli.main(["--config", self.ini, *seed, "--out", self.out_dir,
                             "approximate"])
        finally:
            cli.approximate = real
        tail = clock.lap()
        if code != 0 or len(laps.laps) != len(self.levels):
            return lambda: [Op(f"k={k}", 0.0, 0.0, False,
                               [f"holocycle approximate exited with {code}"])
                            for k in self.levels]
        laps.laps[-1] = tuple(a + b for a, b in zip(laps.laps[-1], tail))
        return lambda: self._check(laps.laps, captured["out"]["artifacts"])

    def _check(self, laps, artifacts):
        with open(os.path.join(self.out_dir, "report.json")) as fh:
            rows = json.load(fh)
        with open(os.path.join(self.out_dir, "cycle.json")) as fh:
            written = json.load(fh)
        results, across = _check_levels(self.hc, rows, artifacts, self.n,
                                        falling=True)
        if self.n == 1:
            across += checks.check_n1_cycle(written)
        ops = [Op(f"k={k}", raw, res, failed, problems)
               for k, (raw, res), (failed, problems)
               in zip(self.levels, laps, results)]
        ops[-1].problems += across
        return ops


class VaryingPipeline:
    """`approximate()` on (1 + cos(2 pi x1) / 2) times the kronecker bump.

    The CLI cannot express an x-dependent density.  This is the only
    workload on the non-x-constant branches: the base-measure descent,
    thinning in `sample_cells`, `_base_cloud`, the unmerged quadrature
    chains and `glue`'s Hermite blends.
    """

    def __init__(self, hc, seed, out_dir):
        self.hc = hc
        torus = hc.FlatTorus(2)
        bump = hc.velocity_bump_model(torus, 1, [[1.0, PHI]], 0.125)

        def density(x, v):
            return (1.0 + 0.5 * np.cos(2.0 * np.pi * x[:, 0])) * bump.density(x, v)

        self.model = hc.SmoothDensityModel(torus, 1, density, bump.radius,
                                           x_constant=False,
                                           v_sampler=bump.v_sampler)
        self.cfg = hc.PipelineConfig(k_max=VARYING_K_MAX, k_min=1, leaves=4,
                                     leaf_length=3.0, seed=VARYING_SEED,
                                     nodes_per_unit=64)
        self.levels = list(range(1, VARYING_K_MAX + 1))

    def run(self, clock):
        laps = _Laps(clock)
        try:
            out = self.hc.approximate(self.model, self.cfg, progress=laps)
        except self.hc.InvalidInputError as exc:
            clock.lap()
            return lambda: [Op(f"k={k}", 0.0, 0.0, False, [str(exc)])
                            for k in self.levels]
        return lambda: self._check(laps.laps, out)

    def _check(self, laps, out):
        results, across = _check_levels(self.hc, out["rows"], out["artifacts"],
                                        1, falling=False)
        ops = [Op(f"k={k}", raw, res, failed, problems)
               for k, (raw, res), (failed, problems)
               in zip(self.levels, laps, results)]
        ops[-1].problems += across
        return ops


def _const(hc, dim, value):
    return hc.TrigPolynomial.constant(dim, float(value))


class Foliation:
    """Density solves on T^3 and almost-complex structures on T^4.

    Four calls per round, with amplitudes drawn from the seed:
    `solve_density` on the twisted field (no density at cutoff 4), on the
    sheared pushforward of (e1, e2) (density 1) followed by its
    `frobenius_residual` certificate, and `pseudoholomorphic_construct` on
    a sheared pair (feasible) and an obstructed pair (infeasible).
    """

    GRID = 12

    def __init__(self, hc, seed, out_dir):
        self.hc = hc
        rng = np.random.default_rng(seed)
        twist, shear, sheet, obstruction = 0.5 + rng.random(4)
        shear *= 0.25
        sheet *= 0.25
        self.sheet = sheet
        T3 = hc.FlatTorus(3)
        mode = hc.TrigPolynomial.mode
        e1 = (_const(hc, 3, 1), _const(hc, 3, 0), _const(hc, 3, 0))
        self.twisted = hc.VectorFieldSet(T3, (
            e1, (_const(hc, 3, 0), _const(hc, 3, 1),
                 mode(3, (1, 0, 0), "sin") * twist)))
        # pushforward of (e1, e2) under (x1, x2, x3 + shear sin 2 pi x1)
        self.sheared = hc.VectorFieldSet(T3, (
            (_const(hc, 3, 1), _const(hc, 3, 0),
             mode(3, (1, 0, 0), "cos") * (2.0 * np.pi * shear)),
            (_const(hc, 3, 0), _const(hc, 3, 1), _const(hc, 3, 0))))
        self.X = tuple(_const(hc, 4, c) for c in (1, 0, 0, 0))
        self.Y_sheet = (_const(hc, 4, 0), _const(hc, 4, 1), _const(hc, 4, 0),
                        mode(4, (0, 1, 0, 0), "sin") * sheet)
        self.Y_obstructed = (_const(hc, 4, 0), _const(hc, 4, 1),
                             mode(4, (1, 0, 0, 0), "sin") * obstruction,
                             _const(hc, 4, 0))

    def _sheet_fields(self, pts):
        """X = e1 and Y = e2 + sheet sin(2 pi x2) e4, evaluated here."""
        Xv = np.zeros((len(pts), 4))
        Xv[:, 0] = 1.0
        Yv = np.zeros((len(pts), 4))
        Yv[:, 1] = 1.0
        Yv[:, 3] = self.sheet * np.sin(2.0 * np.pi * pts[:, 1])
        return Xv, Yv

    def run(self, clock):
        hc = self.hc
        twisted = hc.solve_density(self.twisted, 4)
        laps = [clock.lap()]
        sheared = hc.solve_density(self.sheared, 1)
        cert = (hc.frobenius_residual(self.sheared, sheared.rho)
                if sheared.feasible else float("inf"))
        laps.append(clock.lap())
        sheet = hc.pseudoholomorphic_construct(self.X, self.Y_sheet, grid=self.GRID)
        laps.append(clock.lap())
        blocked = hc.pseudoholomorphic_construct(self.X, self.Y_obstructed,
                                                 grid=self.GRID)
        laps.append(clock.lap())
        return lambda: self._check(laps, twisted, sheared, cert, sheet, blocked)

    def _check(self, laps, twisted, sheared, cert, sheet, blocked):
        problems = {"twisted": checks.check_infeasible(twisted.feasible,
                                                       "twisted field"),
                    "sheared": checks.check_feasible(sheared.feasible,
                                                     "sheared pushforward"),
                    "pseudoholo": checks.check_feasible(sheet.feasible,
                                                        "sheared T^4 pair"),
                    "obstructed": checks.check_infeasible(blocked.feasible,
                                                          "obstructed T^4 pair")}
        if sheared.feasible:
            problems["sheared"] += checks.check_density_one(sheared.rho.rho.terms, 3)
            if cert > 1e-6:
                problems["sheared"].append(f"density certificate {cert:.3e} above 1e-6")
        if sheet.feasible:
            pts = np.asarray(sheet.structure.points)
            problems["pseudoholo"] += checks.check_complex_structure(
                sheet.structure.J, *self._sheet_fields(pts))
        return [Op(name, raw, res, False, probs)
                for (name, probs), (raw, res) in zip(problems.items(), laps)]


WORKLOADS = {
    "kronecker-n1": lambda hc, seed, out: CliPipeline(hc, seed, out, KRONECKER_INI, 1),
    "plane-n2": lambda hc, seed, out: CliPipeline(hc, None, out, PLANE_INI, 2),
    "varying-n1": VaryingPipeline,
    "foliation": Foliation,
}
