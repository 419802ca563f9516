import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holocycle.geometry import (
    DifferentialForm,
    FlatTorus,
    InvalidInputError,
    TrigPolynomial,
    form_basis,
    gram_volume,
)
from holocycle.measures import (
    DiscreteMeasure,
    TestFamily,
    convolve,
    dist,
    exact_form_pairings,
    hol_residual,
    read_measure,
    write_measure,
)

T2 = FlatTorus(2)


def random_measure(seed, n=1, k=8, signed=False):
    rng = np.random.default_rng(seed)
    w = rng.random(k) + 0.1
    if signed:
        w *= rng.choice([-1.0, 1.0], size=k)
    return DiscreteMeasure(T2, n, rng.random((k, 2)), rng.normal(size=(k, n, 2)),
                           w, positive=not signed)


def loop_measure(resolution=200):
    """Young measure of the closed loop t -> (t, 2t mod 1)."""
    t = (np.arange(resolution) + 0.5) / resolution
    x = np.stack([t, (2 * t) % 1.0], axis=1)
    v = np.tile([[1.0, 2.0]], (resolution, 1)).reshape(resolution, 1, 2)
    return DiscreteMeasure(T2, 1, x, v, np.full(resolution, 1.0 / resolution))


def segment_measure(resolution=200):
    """Young measure of the open segment t -> (t, 0), t in [0, 1/4]."""
    t = (np.arange(resolution) + 0.5) / resolution * 0.25
    x = np.stack([t, np.zeros(resolution)], axis=1)
    v = np.tile([[1.0, 0.0]], (resolution, 1)).reshape(resolution, 1, 2)
    return DiscreteMeasure(T2, 1, x, v, np.full(resolution, 0.25 / resolution))


# -- mass / pairing ---------------------------------------------------

def test_mass_examples():
    mu = DiscreteMeasure(T2, 2, [[0, 0]], [[[1, 0], [0, 1]]], [1.0])
    assert mu.mass() == pytest.approx(1.0)
    mu2 = DiscreteMeasure(T2, 2, [[0, 0]], [[[1, 0], [0, 2]]], [0.5])
    assert mu2.mass() == pytest.approx(1.0)
    assert DiscreteMeasure.empty(T2, 2).mass() == 0.0


def test_total_mass():
    mu = DiscreteMeasure(T2, 1, [[0, 0], [0.5, 0.5]], [[[1, 0]], [[0, 3]]], [0.25, 0.75])
    assert mu.total_mass() == pytest.approx(1.0)


def test_pair_delta_volume_form():
    mu = DiscreteMeasure(T2, 2, [[0, 0]], [[[1, 0], [0, 1]]], [1.0])
    w = DifferentialForm(T2, 2, {(0, 1): TrigPolynomial.constant(2, 1.0)})
    assert mu.pair(w) == pytest.approx(1.0)


def test_pair_orientation_cancellation():
    mu = DiscreteMeasure(T2, 2, [[0, 0], [0, 0]],
                         [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [1.0, 1.0])
    w = DifferentialForm(T2, 2, {(0, 1): TrigPolynomial.constant(2, 1.0)})
    assert mu.pair(w) == pytest.approx(0.0)


def test_pair_degree_mismatch():
    mu = DiscreteMeasure(T2, 1, [[0, 0]], [[[1, 0]]], [1.0])
    w = DifferentialForm(T2, 2, {(0, 1): TrigPolynomial.constant(2, 1.0)})
    with pytest.raises(InvalidInputError):
        mu.pair(w)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_pair_linear_in_weights(seed):
    mu = random_measure(seed)
    w = DifferentialForm(T2, 1, {(0,): TrigPolynomial.mode(2, (1, 0))})
    assert mu.scaled(2.0).pair(w) == pytest.approx(2.0 * mu.pair(w))


def test_positive_flag_enforced():
    with pytest.raises(InvalidInputError):
        DiscreteMeasure(T2, 1, [[0, 0]], [[[1, 0]]], [-1.0], positive=True)


# -- metric -----------------------------------------------------------

def test_dist_identity_and_symmetry():
    fam = TestFamily(T2, 1)
    a = loop_measure()
    b = segment_measure()
    assert dist(a, a, fam, 16) == 0.0
    assert dist(a, b, fam, 16) == pytest.approx(dist(b, a, fam, 16))
    assert dist(a, b, fam, 16) > 0


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_dist_triangle_inequality(seed):
    fam = TestFamily(T2, 1)
    a = random_measure(seed)
    b = random_measure(seed + 1)
    c = random_measure(seed + 2)
    assert dist(a, b, fam, 12) <= dist(a, c, fam, 12) + dist(c, b, fam, 12) + 1e-12


def test_dist_two_close_atoms_direct_summation_oracle():
    # direct evaluation of the truncated series for two unit atoms at
    # tuple distance 0.1 (x offset only)
    a = DiscreteMeasure(T2, 1, [[0.3, 0.4]], [[[1.0, 0.5]]], [1.0])
    b = DiscreteMeasure(T2, 1, [[0.4, 0.4]], [[[1.0, 0.5]]], [1.0])
    fam = TestFamily(T2, 1)
    val = dist(a, b, fam, 64)
    expected = abs(a.mass() - b.mass())
    for m in range(1, 65):
        f, bound = fam.function(m)
        expected += abs(a.integrate(f) - b.integrate(f)) / (2.0 ** m * bound)
    assert val == pytest.approx(expected, rel=1e-12)
    assert val > 0


def per_function_dist(mu1, mu2, family, truncation):
    """The truncated metric summed one TestFamily.function at a time."""
    total = abs(mu1.mass() - mu2.mass())
    for m in range(1, truncation + 1):
        f, bound = family.function(m)
        total += abs(mu1.integrate(f) - mu2.integrate(f)) / (2.0 ** m * bound)
    return total


@given(st.integers(0, 10_000), st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2)]),
       st.integers(0, 40))
@settings(max_examples=30, deadline=None)
def test_dist_via_moments_is_bit_identical(seed, dims, k):
    d, n = dims
    torus = FlatTorus(d)
    rng = np.random.default_rng(seed)

    def measure(size):
        return DiscreteMeasure(torus, n, rng.random((size, d)),
                               rng.normal(size=(size, n, d)), rng.random(size))

    a, b = measure(k), measure(k // 2 + 1)
    fam = TestFamily(torus, n)
    for truncation in (1, 7, 16):
        assert dist(a, b, fam, truncation) == per_function_dist(a, b, fam, truncation)
    assert fam.moments(a, 16)[0] == a.mass()


def test_test_functions_follow_their_formula():
    # f = trig(2 pi m.x) for pure x-modes, else trig * exp(-|v|^2 / (2 s^2)) * (1 + vol)
    torus = FlatTorus(3)
    rng = np.random.default_rng(1)
    x, v = rng.random((50, 3)), rng.normal(size=(50, 2, 3))
    fam = TestFamily(torus, 2)
    for index, ((m, kind), j) in enumerate(fam._entries(16), start=1):
        f, bound = fam.function(index)
        phase = 2.0 * math.pi * (x @ np.asarray(m, dtype=float))
        trig = np.cos(phase) if kind == "cos" else np.sin(phase)
        if j is None:
            expect = trig
            assert bound == 1.0
        else:
            sigma = 2.0 ** j
            flat = v.reshape(len(v), -1)
            gauss = np.exp(-np.sum(flat * flat, axis=1) / (2.0 * sigma * sigma))
            expect = trig * gauss * (1.0 + gram_volume(v))
            assert bound == 1.0 + (sigma * math.sqrt(2)) ** 2 * math.exp(-1.0)
        assert np.array_equal(f(x, v), expect)


def test_test_family_exhaustion():
    fam = TestFamily(T2, 1, freq_cutoff=0, max_bandwidth=0)
    mu = loop_measure(10)
    assert len(fam.moments(mu, 1)) == 2
    for call in (lambda: fam.function(2), lambda: fam.function(0),
                 lambda: fam.moments(mu, 2), lambda: dist(mu, mu, fam, 2)):
        with pytest.raises(InvalidInputError):
            call()


def test_dist_monotone_in_truncation():
    fam = TestFamily(T2, 1)
    a = loop_measure(50)
    b = segment_measure(50)
    vals = [dist(a, b, fam, m) for m in (1, 4, 8, 16)]
    assert all(vals[i + 1] >= vals[i] for i in range(len(vals) - 1))


# -- holonomy residual ------------------------------------------------

def test_hol_residual_closed_loop():
    assert hol_residual(loop_measure(400), 2) <= 1e-8


def test_hol_residual_delta_atom_analytic():
    # delta at x = 0 with v = e1 pairs with d((1/2pi) sin(2pi x1)) to 1
    mu = DiscreteMeasure(T2, 1, [[0, 0]], [[[1.0, 0.0]]], [1.0])
    w = DifferentialForm(T2, 0, {(): TrigPolynomial.mode(2, (1, 0), kind="sin")})
    dw = w.exterior_derivative()
    assert mu.pair(dw) == pytest.approx(2 * math.pi)  # = 2pi cos(0)
    assert hol_residual(mu, 1) > 0


def test_hol_residual_open_segment_analytic():
    # integral of cos(2 pi t) over [0, 1/4] is 1/(2 pi)
    mu = segment_measure(2000)
    w = DifferentialForm(T2, 0, {(): TrigPolynomial.mode(2, (1, 0), kind="sin")})
    dw = w.exterior_derivative()
    assert mu.pair(dw) == pytest.approx(1.0, rel=1e-5)  # 2pi * 1/(2pi)
    assert hol_residual(mu, 1) >= 1 / (4 * math.pi)


def per_form_pairings(mu, cutoff):
    """Reference loop: pair mu with d(omega) one basis form at a time."""
    out = []
    for omega in form_basis(mu.torus, mu.n - 1, cutoff):
        dw = omega.exterior_derivative()
        val = mu.pair(dw)
        out.append((val, abs(val) / (1.0 + dw.sup_bound())))
    return np.array(out).reshape(-1, 2)


@st.composite
def engine_cases(draw):
    d = draw(st.integers(2, 4))
    n = draw(st.integers(1, d))
    cutoff = draw(st.integers(0, 2))
    k = draw(st.integers(0, 12))
    signed = draw(st.booleans())
    seed = draw(st.integers(0, 10_000))
    return d, n, cutoff, k, signed, seed


@given(engine_cases())
@settings(max_examples=60, deadline=None)
def test_exact_form_pairings_match_per_form_loop(case):
    d, n, cutoff, k, signed, seed = case
    torus = FlatTorus(d)
    rng = np.random.default_rng(seed)
    w = rng.random(k) + 0.1
    if signed:
        w *= rng.choice([-1.0, 1.0], size=k)
    mu = DiscreteMeasure(torus, n, rng.random((k, d)), rng.normal(size=(k, n, d)), w,
                         positive=not signed)
    pairing, normalized = exact_form_pairings(mu, cutoff)
    ref = per_form_pairings(mu, cutoff)
    assert pairing.shape == normalized.shape == (len(ref),)
    tol = 1e-12 * (1.0 + np.abs(ref))
    assert np.all(np.abs(pairing - ref[:, 0]) <= tol[:, 0])
    assert np.all(np.abs(normalized - ref[:, 1]) <= tol[:, 1])
    assert hol_residual(mu, cutoff) == pytest.approx(ref[:, 1].max(initial=0.0),
                                                     rel=1e-12, abs=1e-12)


def test_exact_form_pairings_reject_bad_degree_and_cutoff():
    with pytest.raises(InvalidInputError):
        exact_form_pairings(DiscreteMeasure.empty(T2, 0), 1)
    with pytest.raises(InvalidInputError):
        exact_form_pairings(loop_measure(10), -1)


# -- convolution ------------------------------------------------------

@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_convolve_preserves_total_mass(seed):
    mu = random_measure(seed, k=3)
    out = convolve(mu, 0.1, 3)
    assert out.total_mass() == pytest.approx(mu.total_mass(), abs=1e-12)


def test_convolve_support_bound():
    mu = DiscreteMeasure(T2, 1, [[0, 0]], [[[0.0, 0.0]]], [1.0])
    out = convolve(mu, 0.1, 4)
    # every cloud atom within per-axis shift eps/2 of the original
    assert np.max(np.abs(np.mod(out.x + 0.5, 1.0) - 0.5)) <= 0.05 + 1e-12
    assert np.max(np.abs(out.v)) <= 0.05 + 1e-12


def test_convolve_rejects_bad_bandwidth():
    with pytest.raises(InvalidInputError):
        convolve(loop_measure(10), 0.0)


def test_convolve_residual_slope():
    # pairing perturbation is O(eps): measured log-log slope about 1 or more
    mu = segment_measure(100)
    base = hol_residual(mu, 1)
    eps = np.array([0.2, 0.1, 0.05])
    gaps = np.array([abs(hol_residual(convolve(mu, e, 5), 1) - base) for e in eps])
    slope = np.polyfit(np.log(eps), np.log(gaps), 1)[0]
    assert slope >= 0.9


# -- file format ------------------------------------------------------

def test_measure_file_round_trip():
    mu = random_measure(42, n=2, k=5, signed=True)
    buf = io.StringIO()
    write_measure(mu, buf)
    buf.seek(0)
    back = read_measure(buf)
    assert back.torus == mu.torus and back.n == mu.n and not back.positive
    assert np.array_equal(back.x, mu.x)
    assert np.array_equal(back.v, mu.v)
    assert np.array_equal(back.w, mu.w)


def test_measure_file_header_and_digits(tmp_path):
    mu = DiscreteMeasure(T2, 1, [[1 / 3, 0]], [[[1.0, 0.0]]], [1 / 7])
    path = tmp_path / "m.txt"
    write_measure(mu, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "torus d=2 n=1 signed=0"
    assert "0.33333333333333331" in lines[1]


def test_malformed_measure_rejected():
    with pytest.raises(InvalidInputError):
        read_measure(io.StringIO("not a header\n"))
