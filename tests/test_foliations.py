import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holocycle.geometry import (
    FlatTorus,
    InvalidInputError,
    TrigPolynomial,
    frequency_modes,
)
from holocycle.measures import hol_residual
from holocycle.foliations import (
    AlmostComplexGrid,
    DensityCandidate,
    VectorFieldSet,
    commutator_residual,
    foliation_to_measure,
    frobenius_residual,
    grid_points,
    pseudoholomorphic_construct,
    solve_density,
    _collocation,
    _solve_density_exp,
)

T3 = FlatTorus(3)
T4 = FlatTorus(4)

ZERO3 = TrigPolynomial.constant(3, 0.0)
ONE3 = TrigPolynomial.constant(3, 1.0)


def coordinate_pair():
    return VectorFieldSet.constant(T3, [[1, 0, 0], [0, 1, 0]])


def twisted_pair():
    X1 = (ONE3, ZERO3, ZERO3)
    X2 = (ZERO3, ONE3, TrigPolynomial.mode(3, (1, 0, 0), "sin"))
    return VectorFieldSet(T3, (X1, X2))


def sheared_pair(eps=0.3):
    # pushforward of (e1, e2) under (x1, x2, x3 + eps sin 2 pi x1): an
    # integrable plane field with non-constant coefficients
    Z1 = (ONE3, ZERO3,
          TrigPolynomial.mode(3, (1, 0, 0), "cos") * (2 * math.pi * eps))
    Z2 = (ZERO3, ONE3, ZERO3)
    return VectorFieldSet(T3, (Z1, Z2))


# -- residuals ---------------------------------------------------------

def test_coordinate_pair_is_integrable():
    assert frobenius_residual(coordinate_pair(), DensityCandidate.one(3)) == 0.0


def test_twisted_pair_residual_is_two_pi():
    # the only surviving divergence is d/dx1 sin(2 pi x1); include the
    # maximizing point x1 = 0 in the evaluation grid
    pts = np.zeros((1, 3))
    val = frobenius_residual(twisted_pair(), DensityCandidate.one(3), pts)
    assert val == pytest.approx(2 * math.pi, abs=1e-12)


def test_residual_is_homogeneous_in_rho():
    X = twisted_pair()
    r1 = frobenius_residual(X, DensityCandidate.one(3), 8)
    r3 = frobenius_residual(
        X, DensityCandidate(TrigPolynomial.constant(3, 3.0)), 8)
    assert r3 == pytest.approx(3 * r1, rel=1e-12)


def test_commutator_matches_general_residual():
    X = twisted_pair()
    rho = DensityCandidate.one(3)
    a = frobenius_residual(X, rho, 16)
    b = commutator_residual(X.fields[0], X.fields[1], rho, 16)
    assert a == pytest.approx(b, rel=1e-9)


def test_commutator_antisymmetric_in_fields():
    X = twisted_pair()
    rho = DensityCandidate(
        TrigPolynomial.constant(3, 1.0)
        + TrigPolynomial.mode(3, (0, 0, 1), "cos") * 0.3)
    a = commutator_residual(X.fields[0], X.fields[1], rho, 8)
    b = commutator_residual(X.fields[1], X.fields[0], rho, 8)
    assert a == pytest.approx(b, rel=1e-12)


def test_commutator_rejects_vanishing_density():
    rho = DensityCandidate(TrigPolynomial.mode(3, (1, 0, 0), "cos"))
    X = coordinate_pair()
    pts = np.array([[0.25, 0.0, 0.0]])  # cos(2 pi x1) vanishes here
    with pytest.raises(InvalidInputError):
        commutator_residual(X.fields[0], X.fields[1], rho, pts)


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_integrable_instances_have_zero_residuals(seed):
    # shears along the flow direction preserve integrability exactly
    rng = np.random.default_rng(seed)
    eps = float(rng.uniform(-0.5, 0.5))
    X = sheared_pair(eps)
    rho = DensityCandidate.one(3)
    assert frobenius_residual(X, rho, 8) <= 1e-8
    assert commutator_residual(X.fields[0], X.fields[1], rho, 8) <= 1e-8


# -- field-set validation ----------------------------------------------

def test_independence_margin():
    assert coordinate_pair().independence_margin() == pytest.approx(1.0)
    dep = VectorFieldSet.constant(T3, [[1, 0, 0], [2, 0, 0]])
    with pytest.raises(InvalidInputError):
        dep.validate()


def test_component_count_guard():
    with pytest.raises(InvalidInputError):
        VectorFieldSet(T3, ((ONE3, ZERO3),))


# -- density search ----------------------------------------------------

def test_solve_recovers_constant_density():
    rep = solve_density(coordinate_pair(), 2)
    assert rep.feasible
    assert rep.residual <= 1e-10
    pts = grid_points(3, 8)
    assert np.allclose(rep.rho(pts), 1.0, atol=1e-9)


def test_twisted_pair_infeasible_at_low_cutoff():
    rep = solve_density(twisted_pair(), 4)
    assert not rep.feasible
    assert rep.rho is None
    # frozen least-squares floor of this instance at cutoff 4
    assert rep.residual == pytest.approx(6.5467464, rel=1e-6)
    assert rep.residual >= 0.1


def test_solve_pushforward_instance():
    rep = solve_density(sheared_pair(0.25), 1)
    assert rep.feasible
    assert rep.residual <= 1e-6


def test_solve_invariant_under_relabeling():
    X = sheared_pair(0.25)
    swapped = VectorFieldSet(
        T3, (X.fields[1], tuple(c * (-1.0) for c in X.fields[0])))
    a = solve_density(X, 1)
    b = solve_density(swapped, 1)
    assert a.feasible == b.feasible
    assert a.residual == pytest.approx(b.residual, abs=1e-9)


@pytest.mark.parametrize("cutoff", [1, 2])
def test_exp_pass_recovers_log_density(cutoff):
    # X = (cos 2 pi x2, -cos 2 pi x1 sin 2 pi x2) on T^2 keeps the density
    # exp(sin 2 pi x1) invariant: div(rho X) = 0
    T2 = FlatTorus(2)
    X = VectorFieldSet(T2, ((TrigPolynomial.mode(2, (0, 1), "cos"),
                             TrigPolynomial.mode(2, (1, 0), "cos")
                             * TrigPolynomial.mode(2, (0, 1), "sin") * -1.0),))
    pts = grid_points(2, 4 * cutoff)
    modes = [(m, kind) for m, kind in frequency_modes(2, cutoff) if any(m)]
    rep = _solve_density_exp(*_collocation(X, modes, pts), modes, cutoff, 1e-6)
    assert rep.feasible and rep.rho.log
    assert rep.residual <= 1e-9
    x = grid_points(2, 16)
    assert np.abs(rep.rho.rho(x) - np.sin(2 * math.pi * x[:, 0])).max() <= 1e-9
    assert frobenius_residual(X, rep.rho, x) <= 1e-9


# -- foliation measures ------------------------------------------------

def test_measure_is_probability_on_atoms():
    mu = foliation_to_measure(coordinate_pair(), DensityCandidate.one(3), 8)
    assert mu.total_mass() == pytest.approx(1.0)
    assert np.allclose(mu.v[:, 0], [1, 0, 0])
    assert np.allclose(mu.v[:, 1], [0, 1, 0])


def test_coordinate_foliation_measure_is_holonomic():
    mu = foliation_to_measure(coordinate_pair(), DensityCandidate.one(3), 32)
    assert hol_residual(mu, 2) <= 1e-3


def test_hol_residual_vanishes_for_integrable():
    # trig integrands are integrated exactly by uniform grids, so the
    # residual of an integrable instance sits at the float-noise floor
    # already at modest resolutions
    X = sheared_pair(0.25)
    rho = DensityCandidate.one(3)
    r = [hol_residual(foliation_to_measure(X, rho, g), 2) for g in (8, 16, 32)]
    assert max(r) <= 1e-10


def test_nonintegrable_measure_residual_bounded_below():
    rho = DensityCandidate.one(3)
    r = [hol_residual(foliation_to_measure(twisted_pair(), rho, g), 2)
         for g in (8, 16, 32)]
    assert min(r) > 1e-2


# -- almost-complex structures -----------------------------------------

ZERO4 = TrigPolynomial.constant(4, 0.0)
ONE4 = TrigPolynomial.constant(4, 1.0)


def test_standard_complex_structure():
    X = (ONE4, ZERO4, ZERO4, ZERO4)
    Y = (ZERO4, ONE4, ZERO4, ZERO4)
    rep = pseudoholomorphic_construct(X, Y, grid=3)
    assert rep.feasible
    assert rep.structure.certificate() <= 1e-12
    assert np.allclose(rep.structure.rho, 1.0)


def test_variable_y_instance_feasible_with_certificates():
    X = (ONE4, ZERO4, ZERO4, ZERO4)
    Y = (ZERO4, ONE4, TrigPolynomial.mode(4, (0, 1, 0, 0), "sin"), ZERO4)
    rep = pseudoholomorphic_construct(X, Y, grid=5)
    assert rep.feasible
    s = rep.structure
    assert s.certificate() <= 1e-8
    # J X = Y / rho at every grid point
    Yv = np.stack([c(s.points) for c in Y], axis=1)
    Xv = np.stack([c(s.points) for c in X], axis=1)
    JX = np.einsum("kij,kj->ki", s.J, Xv)
    assert np.abs(JX - Yv / s.rho[:, None]).max() <= 1e-8
    # and J (Y / rho) = -X
    JYr = np.einsum("kij,kj->ki", s.J, Yv / s.rho[:, None])
    assert np.abs(JYr + Xv).max() <= 1e-8


def test_flow_dependent_projection_infeasible():
    X = (ONE4, ZERO4, ZERO4, ZERO4)
    Y = (ZERO4, ONE4, TrigPolynomial.mode(4, (1, 0, 0, 0), "sin"), ZERO4)
    rep = pseudoholomorphic_construct(X, Y, grid=5)
    assert not rep.feasible
    assert rep.flow_residual > 1.0
    assert rep.structure is None


def test_construct_guards():
    X = (ONE4, ZERO4, ZERO4, ZERO4)
    with pytest.raises(InvalidInputError):
        pseudoholomorphic_construct(X[:3], X, grid=2)
    with pytest.raises(InvalidInputError):
        pseudoholomorphic_construct((ZERO4,) * 4, X, grid=2)
