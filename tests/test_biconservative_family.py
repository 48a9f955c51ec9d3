import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import hyp2f1

from solgeo import biconservative_family
from solgeo.biconservative_family import (CONSTANTS, DENSE_REACH_STEPS,
                                          EXPLICIT, EXPLICIT_U_MIN, IMPLICIT,
                                          ProfileAngleError, ProfileSolution,
                                          build_profile,
                                          f_explicit,
                                          f_prime_explicit, f_prime_implicit,
                                          f_second_explicit,
                                          f_second_implicit, family_surface,
                                          family_rows,
                                          gaussian_curvature_closed_form,
                                          integrate_implicit_profile,
                                          profile_to_csv, psi_anchor,
                                          psi_explicit, solve_f,
                                          theta_explicit,
                                          theta_prime_explicit)
from solgeo.numerics import central_diff, hermite_eval
from solgeo.surface_calculus import (LocalGeometry, biconservative_residual,
                                     shape_data)

# 40-digit reference values (adaptive Gauss-Legendre for the quadratures,
# anchored at u0 = -1): columns theta, f, Psi, Phi1.
ORACLE = {
    -4.0: (3.079631100303538816, 0.026890120078212097,
           2.814402759748696390, 2.571668350624391519),
    -2.0: (2.793080119938342865, 0.148299355671356867,
           0.848438031312653260, 0.752940336430151208),
    -1.0: (2.347062254032765164, 0.309858529205785760, 0.0, 0.0),
    -0.5: (1.992016289707103781, 0.396300357435310086,
           -0.283306533087743215, -0.349645159010202401),
    -0.01: (1.579481388524919558, 0.434242167888013564,
            -0.388577883232505925, -0.683450969556217777),
}

K_ORACLE = {
    -4.0: -0.999495852013653818,
    -2.0: -0.984666154540096805,
    -1.0: -0.933057879700057183,
    -0.5: -0.890498143621912297,
    -0.01: -0.868527009366812646,
}

# implicit relation roots at c = 1
IMPLICIT_ROOTS = {
    2.2: 1.089331931455026844,
    2.0: 1.110150000372771728,
    1.8: 1.124306008881896218,
}

profile_u = st.floats(min_value=-8.0, max_value=-0.01)

EPS = np.finfo(float).eps


def test_constants():
    a1, a2 = CONSTANTS.a1, CONSTANTS.a2
    assert abs(a1 - 0.434258545910664882) < 1e-15
    assert abs(a2 + 0.767591879243998216) < 1e-15
    # both roots of 3 a^2 + a - 1
    for a in (a1, a2):
        assert abs(3.0 * a * a + a - 1.0) < 1e-15
    with pytest.raises(AttributeError):
        CONSTANTS.a1 = 0.5


@pytest.mark.parametrize("u", sorted(ORACLE))
def test_theta_f_against_oracle(u):
    theta, f, _, _ = ORACLE[u]
    assert abs(theta_explicit(u) - theta) < 1e-14
    assert abs(f_explicit(u) - f) < 1e-15


@pytest.mark.parametrize("u", sorted(ORACLE))
def test_quadratures_against_oracle(explicit_profile, u):
    _, _, psi, phi1 = ORACLE[u]
    assert abs(explicit_profile.state_at(u)[2] - psi) < 1e-12
    assert abs(explicit_profile.phi1_at(u) - phi1) < 1e-12


@pytest.mark.parametrize("u", sorted(K_ORACLE))
def test_gaussian_curvature_against_oracle(u):
    assert abs(gaussian_curvature_closed_form(u) - K_ORACLE[u]) < 1e-14


def test_gaussian_curvature_wall_limit():
    # K tends to -2 a1 as u -> 0-
    assert abs(gaussian_curvature_closed_form(-1e-9)
               + 2.0 * CONSTANTS.a1) < 1e-8


@given(profile_u)
def test_theta_ode_two_routes(u):
    assert abs(theta_prime_explicit(u) + 2.0 * f_explicit(u)) < 1e-12


@given(profile_u)
def test_scalar_ode_closed_form(u):
    f, fp = f_explicit(u), f_prime_explicit(u)
    th = theta_explicit(u)
    assert abs(3.0 * f * fp + fp * math.sin(th)
               + f * math.sin(2.0 * th)) < 1e-14


@given(profile_u)
def test_angle_stays_in_upper_left_quadrant(u):
    th = theta_explicit(u)
    assert math.pi / 2.0 < th < math.pi


def test_derivative_ladder_finite_differences():
    for u in (-3.0, -1.0, -0.3):
        fd1 = central_diff(f_explicit, u, 1e-6)
        assert abs(fd1 - f_prime_explicit(u)) < 1e-9
        fd2 = central_diff(f_prime_explicit, u, 1e-6)
        assert abs(fd2 - f_second_explicit(u)) < 1e-9


def test_psi_and_phi_derivatives(explicit_profile, patch_x1):
    # the x1 patch places Phi1 at component 1 and Psi at component 2
    for u in (-2.5, -1.0, -0.2):
        th = theta_explicit(u)
        f = f_explicit(u)
        first, _, second, _, _ = patch_x1.derivatives(u, 0.0)
        _, phi1_prime, psi_prime = first
        _, phi1_second, psi_second = second
        assert abs(psi_prime - math.cos(th)) < 1e-14
        assert abs(psi_second - 2.0 * f * math.sin(th)) < 1e-13
        psi = explicit_profile.state_at(u)[2]
        assert abs(phi1_prime + math.sin(th) * math.exp(psi)) < 1e-12
        # second derivative against finite differences of the first
        fd = central_diff(lambda s: patch_x1.derivatives(s, 0.0)[0][1], u,
                          1e-6)
        assert abs(phi1_second - fd) < 1e-8


def test_psi_anchor(explicit_profile):
    assert explicit_profile.u0 == -1.0
    assert abs(explicit_profile.state_at(-1.0)[2]) < 1e-15
    assert abs(explicit_profile.phi1_at(-1.0)) < 1e-15


def test_phi1_closed_form_between_simpson_nodes(explicit_profile):
    # a node of linspace(-7, -0.001, 300), off the fixture's grid
    u = -0.1180401337792647
    assert abs(explicit_profile.phi1_at(u) + 0.6101795413533483731) < 1e-13


def test_explicit_phi1_far_from_the_anchor():
    profile = build_profile(EXPLICIT, u_grid=[EXPLICIT_U_MIN, -10.0, -1.0])
    want = 12.00635386042802220948
    assert abs(profile.phi1[1] - want) < 1e-13 * want
    assert profile.phi1[2] == 0.0
    # at the low end of the domain, against scipy's 2F1 at -w itself
    oracle = -(math.exp(profile.c0) / (2.0 * CONSTANTS.a1)) * (
        _phi1_primitive_oracle(EXPLICIT_U_MIN) - _phi1_primitive_oracle(-1.0))
    assert abs(profile.phi1[0] - oracle) <= 2e-15 * abs(oracle)


def _phi1_primitive_oracle(u):
    # G(u) of the module docstring through scipy's 2F1 at -w itself, the
    # form the Pfaff series replaces
    a = CONSTANTS.a1
    p = (1.0 - 3.0 * a) / 4.0
    return np.exp((2.0 * a - 1.0) * u) / p * hyp2f1(p, 2.0 * p, p + 1.0,
                                                    -np.exp(4.0 * a * u))


phi1_u = st.floats(min_value=-5000.0, max_value=-1e-300)


@given(phi1_u)
def test_phi1_series_matches_hyp2f1_on_floats(u):
    got = biconservative_family._phi1_primitive(u)
    assert isinstance(got, float)
    want = float(_phi1_primitive_oracle(np.float64(u)))
    assert abs(got - want) <= 2e-15 * abs(want)


@given(st.lists(phi1_u, min_size=1, max_size=30))
def test_phi1_series_matches_hyp2f1_on_arrays(us):
    u = np.array(us)
    got = biconservative_family._phi1_primitive(u)
    assert got.shape == u.shape
    np.testing.assert_allclose(got, _phi1_primitive_oracle(u), rtol=2e-15,
                               atol=0.0)


@given(phi1_u)
def test_phi1_series_float_and_one_element_array_agree(u):
    # numpy's exp and power may each differ from libm's by an ulp, and the
    # division by p can widen that: 3 ulps at most over 200,000 u
    one = biconservative_family._phi1_primitive(u)
    batch = biconservative_family._phi1_primitive(np.array([u]))
    assert abs(batch[0] - one) <= 4.0 * EPS * abs(one)


def test_phi1_series_where_it_converges_slowest():
    # u -> 0- sends the Pfaff argument w / (1 + w) to 1/2; the 40-digit
    # values are G(0-) = 2F1(p, 2p; p + 1; -1) / p, G(-1e-9) and G(-0.5)
    want_at_zero = -13.071680245872539534
    for u in (-5e-324, -1e-300, -1e-16):
        got = biconservative_family._phi1_primitive(u)
        assert abs(got - want_at_zero) <= 2e-15 * abs(want_at_zero)
        assert abs(got - _phi1_primitive_oracle(u)) <= 2e-15 * abs(got)
    got = biconservative_family._phi1_primitive(np.array([-1e-9, -0.5]))
    np.testing.assert_allclose(got, [-13.071680247801754576,
                                     -14.040812797863907687],
                               rtol=2e-15, atol=0.0)


def test_explicit_domain_bound():
    # e^{2 a1 u} = 2^-52 at the bound, so theta is one ulp below pi there,
    # on the float path and on the array path
    assert EXPLICIT_U_MIN == -26.0 * math.log(2.0) / CONSTANTS.a1
    assert -41.50023 < EXPLICIT_U_MIN < -41.50022
    below_pi = math.nextafter(math.pi, 0.0)
    assert theta_explicit(EXPLICIT_U_MIN) == below_pi
    assert theta_explicit(np.array([EXPLICIT_U_MIN]))[0] == below_pi


def test_explicit_profile_rejects_rounded_angle():
    # samples 0.1 apart near the bound: theta rounds to the same double at
    # the first two
    with pytest.raises(ProfileAngleError,
                       match=r"angle must decrease strictly, but it stops "
                             r"at u = -40\.899749373433586: "):
        build_profile(EXPLICIT, u_grid=np.linspace(-41.0, -1.0, 400))


def test_samples_matrix(explicit_profile):
    m = explicit_profile.samples
    assert m.shape == (len(explicit_profile.u), 5)
    assert np.array_equal(m[:, 0], explicit_profile.u)


# -- implicit branch -------------------------------------------------------


@pytest.mark.parametrize("theta", sorted(IMPLICIT_ROOTS))
def test_solve_f_against_oracle(theta):
    f = solve_f(theta, 1.0)
    assert abs(f - IMPLICIT_ROOTS[theta]) < 1e-13
    a1, a2 = CONSTANTS.a1, CONSTANTS.a2
    y = math.sin(theta)
    rel = 6.0 * a2 * math.log(f - a1 * y) - 6.0 * a1 * math.log(f - a2 * y)
    assert abs(rel) < 1e-13


def test_solve_f_branch_ordering():
    f = solve_f(2.2, 1.0)
    assert f > CONSTANTS.a1 * math.sin(2.2) > 0.0


def test_solve_f_validation():
    with pytest.raises(ValueError):
        solve_f(2.2, -1.0)
    with pytest.raises(ValueError):
        solve_f(0.0, 1.0)  # sin(theta) = 0
    with pytest.raises(ValueError):
        solve_f(2.2, 1e300)  # no bracketing root at absurd c


def _log_relation(theta, f, c):
    a1, a2 = CONSTANTS.a1, CONSTANTS.a2
    y = math.sin(theta)
    return (6.0 * a2 * math.log(f - a1 * y) - 6.0 * a1 * math.log(f - a2 * y)
            - math.log(c))


def _brentq_f(theta, c):
    """The oracle: brentq on the original log relation in f, bracketed
    above a1 sin(theta) by doubling."""
    lo = CONSTANTS.a1 * math.sin(theta) * (1.0 + 1e-14)
    hi = CONSTANTS.a1 * math.sin(theta) + 1.0
    while _log_relation(theta, hi, c) > 0.0:
        hi *= 2.0
    return brentq(lambda f: _log_relation(theta, f, c), lo, hi, xtol=1e-300,
                  rtol=8.9e-16, maxiter=200)


# theta in (pi/2, pi) and log-uniform c in [1e-6, 1e6]
branch_theta = st.floats(min_value=math.pi / 2.0, max_value=math.pi,
                         exclude_min=True, exclude_max=True)
log_uniform_c = st.floats(min_value=math.log(1e-6),
                          max_value=math.log(1e6)).map(math.exp)


@given(branch_theta, log_uniform_c)
def test_solve_f_matches_brentq(theta, c):
    expected = _brentq_f(theta, c)
    assert abs(solve_f(theta, c) - expected) <= 4e-15 * expected


def test_solve_f_extremes():
    # c at the smallest subnormal: ln c alone is rounded by 5.7e-14, which
    # moves f by 8e-15 relative, so the two solvers agree to that floor
    f = solve_f(2.2, 5e-324)
    assert math.isfinite(f)
    assert abs(f - _brentq_f(2.2, 5e-324)) <= 2e-14 * f
    # f -> 1 as theta -> pi at c = 1, with f - 1 of order sin(theta)^2
    assert abs(solve_f(math.pi - 1e-15, 1.0) - 1.0) <= 1e-15


@given(st.lists(branch_theta, min_size=1, max_size=40), log_uniform_c)
def test_solve_f_array_matches_float(thetas, c):
    # each entry is the float solve, up to numpy's exp and log against
    # libm's in the last place
    floats = np.array([solve_f(theta, c) for theta in thetas])
    batch = solve_f(np.array(thetas), c)
    assert isinstance(batch, np.ndarray) and batch.shape == floats.shape
    np.testing.assert_allclose(batch, floats, rtol=4.0 * EPS, atol=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, 4.0])
def test_solve_f_array_validation_names_theta(bad):
    # non-finite entries and entries with sin(theta) <= 0 refuse the
    # whole array, as they refuse a float
    with pytest.raises(ValueError, match=r"\btheta\b"):
        solve_f(np.array([2.2, bad, 2.0]), 1.0)


NON_FINITE_IMPLICIT_INPUTS = [
    (solve_f, (math.nan, 1.0), "theta"),
    (solve_f, (math.inf, 1.0), "theta"),
    (solve_f, (2.2, math.nan), "c"),
    (solve_f, (2.2, math.inf), "c"),
    (integrate_implicit_profile, (1.0, 2.2, math.inf), "u_span"),
    (integrate_implicit_profile, (1.0, 2.2, math.nan), "u_span"),
    (integrate_implicit_profile, (1.0, 2.2, 1.0, math.nan), "step"),
    (integrate_implicit_profile, (1.0, 2.2, 1.0, math.inf), "step"),
    (integrate_implicit_profile, (math.nan, 2.2, 1.0), "c"),
    (integrate_implicit_profile, (1.0, math.nan, 1.0), "theta"),
]


@pytest.mark.parametrize(
    "function,args,name", NON_FINITE_IMPLICIT_INPUTS,
    ids=[f"{function.__name__}{args}"
         for function, args, _ in NON_FINITE_IMPLICIT_INPUTS])
def test_implicit_inputs_must_be_finite(function, args, name):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        function(*args)


@pytest.mark.parametrize("u_span,step", [(1.0, 5e-324), (1e308, 1e-3)])
def test_implicit_step_count_must_be_finite(u_span, step):
    # u_span / step overflows to inf, so no step count exists
    with pytest.raises(ValueError, match=r"\bstep\b"):
        integrate_implicit_profile(1.0, 2.2, u_span, step)


def test_implicit_step_schedule_is_lazy():
    # 5e19 steps of 1e-20 fit in no list; f is about 1e41, so u* is
    # about 1e-41 and the profile halts at u = 0
    sol = integrate_implicit_profile(1e-300, 2.2, 0.5, 1e-20)
    assert sol.halt_reason == "angle_degenerate"
    assert list(sol.u) == [0.0]


@settings(deadline=None)
@given(log_uniform_c, branch_theta, st.floats(min_value=1e-2, max_value=0.3))
def test_implicit_march_sweep(c, theta_start, step):
    sol = integrate_implicit_profile(c, theta_start, 1.0, step)
    assert sol.halt_reason in ("span_exhausted", "angle_degenerate")
    for theta, f in zip(sol.theta.tolist(), sol.f.tolist()):
        assert abs(_log_relation(theta, f, c)) <= 1e-10


def test_f_prime_implicit_oracle():
    f = solve_f(2.2, 1.0)
    assert abs(f_prime_implicit(2.2, f) - 0.254289834183491265) < 1e-13


def test_implicit_march(implicit_solution):
    sol = implicit_solution
    assert sol.kind == IMPLICIT
    assert sol.halt_reason == "angle_degenerate"
    assert sol.theta[-1] > math.pi / 2.0
    assert np.all(np.diff(sol.u) > 0)
    assert np.all(np.diff(sol.theta) < 0)
    assert np.all(np.diff(sol.f) > 0)
    assert sol.theta_error_estimate is not None
    assert sol.theta_error_estimate < 1e-10


def _u_by_quad(c, theta_lo, theta_hi):
    """The oracle: scipy's quad of u(theta) = int dphi / (2 f(phi))."""
    return quad(lambda phi: 0.5 / solve_f(phi, c), theta_lo, theta_hi,
                epsabs=1e-16, epsrel=2e-14)[0]


@pytest.mark.parametrize("c,theta_start,step", [(1.0, 2.2, 1e-3),
                                                (100.0, 3.1, 0.2),
                                                (1e-3, 2.9, 0.01)])
def test_theta_quadrature_matches_quad(c, theta_start, step):
    # every sample sits where the quadrature in theta reaches k step
    sol = integrate_implicit_profile(c, theta_start, 1.5, step)
    assert sol.halt_reason == "angle_degenerate" and len(sol.u) > 5
    assert np.array_equal(sol.u, np.arange(len(sol.u)) * step)
    pieces = [_u_by_quad(c, lo, hi)
              for lo, hi in zip(sol.theta[1:], sol.theta[:-1])]
    assert np.max(np.abs(np.cumsum(pieces) - sol.u[1:])) <= 1e-13
    # the halt point u* = u(pi / 2): a span just short of it is used up,
    # one just past it is not
    u_star = _u_by_quad(c, math.pi / 2.0, theta_start)
    assert integrate_implicit_profile(
        c, theta_start, u_star - 1e-13, step).halt_reason == "span_exhausted"
    assert integrate_implicit_profile(
        c, theta_start, u_star + 1e-13, step).halt_reason == "angle_degenerate"


def test_solve_f_calls_do_not_grow_with_samples(monkeypatch):
    calls = []

    def counted(theta, c):
        calls.append(np.size(theta))
        return solve_f(theta, c)

    monkeypatch.setattr(biconservative_family, "solve_f", counted)
    coarse = integrate_implicit_profile(1.0, 2.2, 1.5, 1e-3)
    coarse_calls, calls[:] = len(calls), []
    fine = integrate_implicit_profile(1.0, 2.2, 1.5, 5e-4)
    # twice the samples, the same number of (array) root solves
    assert len(fine.u) >= 2 * len(coarse.u) - 1
    assert len(calls) == coarse_calls
    assert sum(calls) > len(fine.u)


def test_gauss_rule_is_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert np.array_equal(biconservative_family._GAUSS_NODES, nodes)
    assert np.array_equal(biconservative_family._GAUSS_WEIGHTS, weights)


@pytest.mark.parametrize("c,theta_start,step", [(1.0, 2.2, 1e-3),
                                                (100.0, 3.1, 0.2)])
def test_implicit_quadratures_match_quad(c, theta_start, step):
    # Psi and Phi1 integrate cos(theta) and -sin(theta) e^Psi over the
    # Hermite cubics of theta and Psi, step by step
    sol = integrate_implicit_profile(c, theta_start, 1.5, step)
    assert len(sol.u) > 5

    def theta(s):
        return hermite_eval(s, sol.u, sol.theta, -2.0 * sol.f)

    def psi(s):
        return hermite_eval(s, sol.u, sol.psi, np.cos(sol.theta))

    steps = list(zip(sol.u[:-1], sol.u[1:]))
    d_psi = [quad(lambda s: math.cos(theta(s)), a, b, epsabs=1e-15)[0]
             for a, b in steps]
    d_phi1 = [quad(lambda s: -math.sin(theta(s)) * math.exp(psi(s)), a, b,
                   epsabs=1e-15)[0] for a, b in steps]
    assert sol.psi[0] == sol.phi1[0] == 0.0
    assert np.max(np.abs(np.cumsum(d_psi) - sol.psi[1:])) < 1e-15
    assert np.max(np.abs(np.cumsum(d_phi1) - sol.phi1[1:])) < 1e-15


def test_implicit_dense_output_consistent(implicit_solution):
    u = 0.1234
    th, f, _ = implicit_solution.state_at(u)
    assert abs(f - solve_f(th, 1.0)) < 1e-12


def test_f_second_implicit_matches_the_explicit_closed_form():
    # the explicit profile solves the same ODE, so the ODE's f'' at its
    # (theta, f) is its closed-form f''
    u = np.linspace(-12.0, -1e-3, 2001)
    ode = f_second_implicit(theta_explicit(u), f_explicit(u))
    assert np.max(np.abs(ode - f_second_explicit(u))) < 1e-14


def test_implicit_f_second_matches_a_difference_of_f_prime(
        implicit_solution):
    # inside the profile, which halts at u = 0.281
    u = np.linspace(implicit_solution.u[1], implicit_solution.u[-2], 2001)
    h = 1e-6
    fd = (implicit_solution.f_prime_at(u + h)
          - implicit_solution.f_prime_at(u - h)) / (2.0 * h)
    assert np.max(np.abs(implicit_solution.f_second_at(u) - fd)) < 1e-8
    # the family's mean-curvature field reads it
    field = family_surface(implicit_solution, "x1").mean_curvature
    assert field.hessian(0.2, 0.3) == (implicit_solution.f_second_at(0.2),
                                       0.0, 0.0)


def test_implicit_halt_span_exhausted():
    sol = integrate_implicit_profile(c=1.0, theta_start=2.2, u_span=0.1,
                                     step=1e-3)
    assert sol.halt_reason == "span_exhausted"
    assert abs(sol.u[-1] - 0.1) < 1e-12


def test_implicit_halt_immediately_degenerate():
    sol = integrate_implicit_profile(c=1.0, theta_start=1.4, u_span=0.5,
                                     step=1e-3)
    assert sol.halt_reason == "angle_degenerate"
    assert len(sol.u) == 1
    with pytest.raises(ValueError):
        sol.state_at(0.0)  # dense output needs two samples


def test_implicit_stage_angle_off_branch_halts():
    # f is about 1e41 here, so u* is about 1e-41, short of one step
    sol = integrate_implicit_profile(1e-300, 2.2, 0.5)
    assert sol.halt_reason == "angle_degenerate"
    assert list(sol.u) == [0.0] and list(sol.theta) == [2.2]


def test_profile_solution_validation():
    u = np.array([0.0, 1.0])
    good = dict(kind=IMPLICIT, u=u, theta=np.array([2.2, 2.1]),
                f=np.array([1.0, 1.1]), psi=np.zeros(2), phi1=np.zeros(2),
                u0=0.0, c=1.0)
    ProfileSolution(**good)
    with pytest.raises(ValueError):
        ProfileSolution(**{**good, "u": np.array([1.0, 0.0])})
    with pytest.raises(ValueError):
        ProfileSolution(**{**good, "f": np.array([1.0, -1.0])})
    with pytest.raises(ValueError):
        ProfileSolution(**{**good, "theta": np.array([2.1, 2.2])})
    with pytest.raises(ValueError, match=r"^unknown profile kind 'affine'$"):
        ProfileSolution(**{**good, "kind": "affine"})
    with pytest.raises(ValueError, match=r"^implicit profile requires "
                                         r"increasing f"):
        ProfileSolution(**{**good, "f": np.array([1.1, 1.0])})


@pytest.mark.parametrize("column,values", [
    ("u", [0.0, math.inf]), ("u", [math.nan, 1.0]),
    ("theta", [2.2, math.nan]), ("theta", [math.inf, 2.1]),
    ("f", [math.nan, 0.3]), ("f", [1.0, math.inf]),
    ("psi", [math.nan, math.inf]), ("psi", [0.0, -math.inf]),
    ("phi1", [0.0, math.nan]), ("phi1", [math.inf, 0.0])])
def test_profile_solution_rejects_non_finite_samples(column, values):
    # NaN fails each column's test, so no CSV row holds nan or inf
    good = dict(kind=IMPLICIT, u=[0.0, 1.0], theta=[2.2, 2.1], f=[1.0, 1.1],
                psi=[0.0, 0.0], phi1=[0.0, 0.0], u0=0.0)
    bad = 0 if not math.isfinite(values[0]) else 1
    with pytest.raises(ValueError, match=rf"^profile {column} must be "
                                         rf"finite, got {values[bad]:g} at "
                                         rf"sample {bad}$"):
        ProfileSolution(**{**good, column: values})


def test_implicit_dense_evaluators_reject_non_finite_u(implicit_solution):
    # as the explicit closed forms do; finite u past the span extrapolates
    # the end cubics, as the frame stencils need
    sol = implicit_solution
    evaluators = (sol.state_at, sol.phi1_at, sol.f_prime_at, sol.f_second_at)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluate in evaluators:
            for u in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError,
                                   match=rf"finite u, got u = {u:g}$"):
                    evaluate(u)
            with pytest.raises(ValueError, match=r"got u = nan$"):
                evaluate(np.array([0.1, math.nan, math.inf]))
            assert np.all(np.isfinite(evaluate(sol.u[-1] + 1e-5)))
            assert np.all(np.isfinite(evaluate(sol.u[0] - 1e-12)))


def test_implicit_dense_evaluators_reach_a_few_steps_past_the_samples():
    # the end cubic at u = 10 reads theta = 335.6 and f = -58.6 here
    sol = integrate_implicit_profile(c=1.0, theta_start=2.2, u_span=0.5)
    reach = DENSE_REACH_STEPS * float(np.max(np.diff(sol.u)))
    assert sol.u[-1] == pytest.approx(0.281)
    evaluators = (sol.state_at, sol.phi1_at, sol.f_prime_at, sol.f_second_at)
    inside = (sol.u[0] - reach, sol.u[-1] + reach)
    outside = (sol.u[0] - 1.01 * reach, sol.u[-1] + 1.01 * reach, 10.0)
    for evaluate in evaluators:
        for u in inside:
            assert np.all(np.isfinite(evaluate(u)))
        assert np.all(np.isfinite(evaluate(np.array(inside))))
        for u in outside:
            with pytest.raises(ValueError,
                               match=rf"at most {reach:g} past its samples "
                                     rf"on \[0, 0\.281\], got u = {u:g}$"):
                evaluate(u)
        with pytest.raises(ValueError, match=r"got u = 10$"):
            evaluate(np.array([0.1, 10.0, -1.0]))


def test_profile_c0_anchors_psi(explicit_profile, implicit_solution):
    # c0 is derived, not an argument: Psi(u0) = 0 on every profile
    assert explicit_profile.c0 == psi_anchor(explicit_profile.u0)
    assert explicit_profile.state_at(explicit_profile.u0)[2] == 0.0
    assert implicit_solution.c0 == 0.0
    with pytest.raises(TypeError):
        ProfileSolution(kind=EXPLICIT, u=[-2.0, -1.0], theta=[2.8, 2.3],
                        f=[0.1, 0.3], psi=[0.0, 0.0], phi1=[0.0, 0.0],
                        u0=-1.0, c0=1.0)


def test_build_profile_validations():
    with pytest.raises(ValueError):
        build_profile(EXPLICIT, u_grid=np.array([-1.0, 0.0]))
    with pytest.raises(ValueError):
        build_profile(IMPLICIT, c=1.0, u_grid=np.array([-0.5, 0.5]),
                      theta_start=2.2)
    with pytest.raises(ValueError):
        # halts immediately: fewer than two usable samples
        build_profile(IMPLICIT, c=1.0, u_grid=np.linspace(0.0, 0.5, 8),
                      theta_start=1.4)
    with pytest.raises(ValueError):
        build_profile("affine", u_grid=[-2.0, -1.0])


@pytest.mark.parametrize("kind,options,message", [
    (EXPLICIT, dict(u_grid=[-1.0]), "u_grid must contain at least two points"),
    (EXPLICIT, dict(u_grid=[-1.0, -2.0]), "u_grid must be strictly increasing"),
    (IMPLICIT, dict(u_grid=[0.0, 0.1], theta_start=2.2),
     "implicit profiles need c and theta_start"),
    (IMPLICIT, dict(u_grid=[0.0, 0.1], c=1.0),
     "implicit profiles need c and theta_start"),
    (IMPLICIT, dict(u_grid=np.linspace(0.0, 0.2, 5), c=1.0, theta_start=2.2,
                    u0=0.25), "anchor u0 outside the integrated span"),
], ids=["one-point", "decreasing", "no-c", "no-theta-start", "anchor"])
def test_build_profile_names_what_is_wrong(kind, options, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        build_profile(kind, **options)


def test_explicit_forms_reject_nan():
    for form in (theta_explicit, theta_prime_explicit, f_explicit,
                 f_prime_explicit, f_second_explicit, psi_explicit,
                 psi_anchor, gaussian_curvature_closed_form):
        with pytest.raises(ValueError):
            form(math.nan)
    with pytest.raises(ValueError):
        build_profile(EXPLICIT, u_grid=np.linspace(-2.0, -0.5, 4),
                      u0=math.nan)


def _domain_error(u):
    return "^" + re.escape(f"explicit profile requires {EXPLICIT_U_MIN!r} "
                           f"<= u < 0, got u = {u!r}") + "$"


@pytest.mark.parametrize("u", [math.nextafter(EXPLICIT_U_MIN, -math.inf),
                               -1000.0, 0.0, math.nan],
                         ids=["just_below", "far_below", "zero", "nan"])
def test_explicit_domain_is_refused_at_every_layer(u, explicit_profile):
    # one ValueError, naming the first u outside the domain, from every
    # closed form on floats and on arrays, from the profile by grid and by
    # anchor, and from the family patches and the records built on them
    match = _domain_error(u)
    forms = (theta_explicit, theta_prime_explicit, f_explicit,
             f_prime_explicit, f_second_explicit, psi_explicit, psi_anchor,
             gaussian_curvature_closed_form)
    for form in forms:
        for arg in (u, np.array([-1.0, u, -2.0])):
            with pytest.raises(ValueError, match=match):
                form(arg)
    columns = dict(theta=[2.8, 2.3], f=[0.1, 0.3], psi=[0.0, 0.0],
                   phi1=[0.0, 0.0])
    with pytest.raises(ValueError, match=match):
        ProfileSolution(kind=EXPLICIT, u=[-2.0, -1.0], u0=u, **columns)
    with pytest.raises(ValueError, match=match):
        build_profile(EXPLICIT, u_grid=[-2.0, -1.0], u0=u)
    if not math.isnan(u):  # a NaN grid is not increasing, which fails first
        grid = sorted([u, -1.0 if u < -1.0 else -2.0])
        with pytest.raises(ValueError, match=match):
            ProfileSolution(kind=EXPLICIT, u=grid, u0=-1.0, **columns)
        with pytest.raises(ValueError, match=match):
            build_profile(EXPLICIT, u_grid=grid)
    for variant in ("x1", "x2"):
        patch = family_surface(explicit_profile, variant)
        with pytest.raises(ValueError, match=match):
            patch.derivatives(u, 0.25)
        with pytest.raises(ValueError, match=match):
            shape_data(patch, u, 0.25)
        with pytest.raises(ValueError, match=match):
            LocalGeometry(patch, np.array([-1.0, u]), np.array([0.25, -0.5]))


def test_record_at_the_domain_bound():
    # the family record's h is f to round-off down to the bound
    profile = build_profile(EXPLICIT, u_grid=[EXPLICIT_U_MIN, -1.0])
    u = np.array([EXPLICIT_U_MIN, EXPLICIT_U_MIN, -30.0])
    v = np.array([0.25, -0.5, 0.9])
    for variant in ("x1", "x2"):
        patch = family_surface(profile, variant)
        geo = LocalGeometry(patch, u, v)
        np.testing.assert_allclose(geo.h, f_explicit(u), rtol=2e-15, atol=0.0)
        sd = shape_data(patch, EXPLICIT_U_MIN, 0.25)
        assert abs(sd.h - f_explicit(EXPLICIT_U_MIN)) \
            <= 2e-15 * f_explicit(EXPLICIT_U_MIN)


def test_explicit_psi_samples_are_the_closed_form(explicit_profile):
    p = explicit_profile
    for k, u in enumerate(p.u):
        assert p.psi[k] == p.state_at(u)[2]


def test_build_profile_implicit_clips_to_halt():
    profile = build_profile(IMPLICIT, c=1.0, u_grid=np.linspace(0.0, 1.0, 21),
                            theta_start=2.2)
    assert profile.u[-1] <= 0.29  # integration halts near u = 0.281
    assert len(profile.u) >= 2
    assert profile.halt_reason == "angle_degenerate"


def test_family_surface_names(explicit_profile):
    assert family_surface(explicit_profile, "x1").name == "family_x1_explicit"
    assert family_surface(explicit_profile, "x2").name == "family_x2_explicit"
    with pytest.raises(ValueError):
        family_surface(explicit_profile, "x3")


@pytest.mark.parametrize("variant", ["x1", "x2"])
def test_family_surface_partials_match_finite_differences(
        explicit_profile, variant):
    patch = family_surface(explicit_profile, variant)
    h = 1e-6

    def first(u, v):
        return np.array(patch.derivatives(u, v)[:2])

    for u, v in ((-2.0, 0.3), (-0.7, -0.6)):
        du, dv, duu, duv, dvv = patch.derivatives(u, v)
        fd_du = central_diff(lambda s: patch.immersion(s, v), u, h)
        fd_dv = central_diff(lambda t: patch.immersion(u, t), v, h)
        assert np.allclose(du, fd_du, atol=1e-8)
        assert np.allclose(dv, fd_dv, atol=1e-8)
        fd_duu = central_diff(lambda s: first(s, v)[0], u, h)
        fd_duv = central_diff(lambda t: first(u, t)[0], v, h)
        fd_dvv = central_diff(lambda t: first(u, t)[1], v, h)
        assert np.allclose(duu, fd_duu, atol=1e-7)
        assert np.allclose(duv, fd_duv, atol=1e-8)
        assert np.allclose(dvv, fd_dvv, atol=1e-8)


def test_family_surface_mean_curvature_handles(explicit_profile, patch_x1):
    field = patch_x1.mean_curvature
    assert field.value(-1.0, 0.4) == pytest.approx(
        f_explicit(-1.0), abs=1e-15)
    assert field.first_partials(-1.0, 0.4) == (f_prime_explicit(-1.0), 0.0)
    assert field.second_partials(-1.0, 0.4) == (f_second_explicit(-1.0),
                                                0.0, 0.0)


def test_family_handles_evaluate_the_profile_once(monkeypatch,
                                                  explicit_profile):
    # the partials handle reads theta, f and Psi from one state_at call,
    # which checks the domain once
    calls = {}

    def counted(name, form):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return form(*args)
        return wrapper

    for name in ("_require_domain", "_phi1_primitive"):
        form = getattr(biconservative_family, name)
        monkeypatch.setattr(biconservative_family, name, counted(name, form))
    monkeypatch.setattr(ProfileSolution, "state_at",
                        counted("state_at", ProfileSolution.state_at))
    patch = family_surface(explicit_profile, "x1")
    patch.derivatives(-1.0, 0.2)
    assert calls == {"state_at": 1, "_require_domain": 1}
    calls.clear()
    # the counter sees Phi1 where the position reads it, beside Psi
    patch.position(-1.0, 0.2)
    assert calls == {"state_at": 1, "_phi1_primitive": 1,
                     "_require_domain": 2}
    calls.clear()
    # two one-point records, each reading the partials handle once, f' once
    # and the position never: no Phi1
    shape_data(patch, -1.0, 0.2)
    biconservative_residual(patch, -1.0, 0.2)
    assert calls == {"state_at": 2, "_require_domain": 4}


def _profiles():
    return (build_profile(EXPLICIT, u_grid=np.linspace(-3.0, -0.01, 9)),
            build_profile(IMPLICIT, c=1.0, theta_start=2.2,
                          u_grid=np.linspace(0.0, 0.25, 9)))


def _state_oracle(profile, u):
    """(theta, f, Psi) at u from the public closed forms, or from the
    Hermite cubics of the samples with the ODE's slopes."""
    if profile.kind == EXPLICIT:
        return theta_explicit(u), f_explicit(u), psi_explicit(u, profile.c0)
    slopes = (-2.0 * profile.f, f_prime_implicit(profile.theta, profile.f),
              np.cos(profile.theta))
    return tuple(hermite_eval(u, profile.u, column, slope) for column, slope
                 in zip((profile.theta, profile.f, profile.psi), slopes))


@pytest.mark.parametrize("profile", _profiles(), ids=[EXPLICIT, IMPLICIT])
def test_state_at_is_the_three_evaluators(profile):
    # bit for bit, a float for a float and an (N,) array for an array
    us = np.linspace(profile.u[0], profile.u[-1], 23)
    for u in [*us.tolist(), us]:
        state = profile.state_at(u)
        assert len(state) == 3
        for got, want in zip(state, _state_oracle(profile, u)):
            assert type(got) is type(u)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _refusal(evaluate, u):
    with pytest.raises(ValueError) as info:
        evaluate(u)
    return str(info.value)


@pytest.mark.parametrize("profile", _profiles(), ids=[EXPLICIT, IMPLICIT])
def test_state_at_refuses_what_the_evaluators_refuse(profile):
    if profile.kind == EXPLICIT:
        bad = (math.nextafter(EXPLICIT_U_MIN, -math.inf), 0.0, math.nan)
    else:
        reach = DENSE_REACH_STEPS * float(np.max(np.diff(profile.u)))
        bad = (math.nan, profile.u[-1] + 1.01 * reach,
               profile.u[0] - 1.01 * reach)
    for u in bad:
        for given in (u, np.array([profile.u[1], u, profile.u[2]])):
            message = _refusal(profile.state_at, given)
            assert message == _refusal(profile.phi1_at, given)
            assert message == _refusal(profile.f_prime_at, given)


def _count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` from here on."""
    calls = []
    form = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return form(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("u", [0.1, np.linspace(0.0, 0.25, 5)],
                         ids=["float", "array"])
def test_each_dense_evaluation_checks_u_once(monkeypatch, implicit_solution,
                                             u):
    # f' and f'' read theta and f after one check, as state_at does
    calls = _count_calls(monkeypatch, ProfileSolution, "_require_reach")
    for name in ("state_at", "phi1_at", "f_prime_at", "f_second_at"):
        calls.clear()
        getattr(implicit_solution, name)(u)
        assert len(calls) == 1, name


def test_explicit_build_checks_each_sample_twice(monkeypatch):
    # one check for the anchor's c0, one per sample for (theta, f, Psi)
    # and one for Phi1, and the profile's own two: its grid and its c0
    calls = _count_calls(monkeypatch, biconservative_family,
                         "_require_domain")
    build_profile(EXPLICIT, u_grid=np.linspace(-3.0, -0.01, 10))
    assert len(calls) == 23


def test_mirrored_variant_swaps_roles(explicit_profile):
    p1 = family_surface(explicit_profile, "x1")
    p2 = family_surface(explicit_profile, "x2")
    a = p1.position(-2.0, 0.3)
    b = p2.position(-2.0, 0.3)
    assert b[0] == pytest.approx(a[1], abs=1e-15)
    assert b[1] == pytest.approx(a[0], abs=1e-15)
    assert b[2] == pytest.approx(-a[2], abs=1e-15)


@pytest.mark.parametrize("variant", ["x1", "x2"])
@pytest.mark.parametrize("kind,u0", [(EXPLICIT, None), (EXPLICIT, -2.0),
                                     (IMPLICIT, None), (IMPLICIT, 0.1)])
def test_family_vertices_are_patch_positions(variant, kind, u0):
    if kind == EXPLICIT:
        profile = build_profile(EXPLICIT, u_grid=np.linspace(-3.0, -0.01, 9),
                                u0=u0)
    else:
        profile = build_profile(IMPLICIT, c=1.0, theta_start=2.2, u0=u0,
                                u_grid=np.linspace(0.0, 0.25, 9))
    vs = np.linspace(-1.0, 1.0, 5)
    patch = family_surface(profile, variant)

    def exact(points):
        # repr keeps the sign of zero, which the mesh text shows
        return [tuple(repr(float(x)) for x in point) for point in points]

    expected = exact(patch.position(float(u), float(v))
                     for u in profile.u for v in vs)
    rows = list(family_rows(profile, variant))
    assert len(rows) == len(profile.u)
    assert all(row.count(None) == 1 for row in rows)
    filled = (tuple(float(v) if x is None else x for x in row)
              for row in rows for v in vs)
    assert exact(filled) == expected
    with pytest.raises(ValueError):
        family_rows(profile, "x3")


def test_profile_to_csv_layout(explicit_profile):
    text = profile_to_csv(explicit_profile)
    lines = text.strip().split("\n")
    assert lines[0] == "u,theta,f,Psi,Phi,K"
    assert len(lines) == len(explicit_profile.u) + 1
    row = lines[1].split(",")
    assert len(row) == 6
    assert all(len(cell.split(".")[1]) == 12 for cell in row)
    assert float(row[5]) < 0  # K column negative
    assert "-0.000000000000" not in text


def test_profile_to_csv_implicit_footer(implicit_solution, tmp_path):
    path = tmp_path / "profile.csv"
    text = profile_to_csv(implicit_solution, str(path))
    assert path.read_text() == text
    assert "# halt_reason: angle_degenerate" in text
    assert "# theta_error_estimate:" in text


def test_profile_to_csv_rows(explicit_profile, implicit_solution):
    # each value is its 12-decimal f-string, with -0.0 written as 0.0
    for profile in (explicit_profile, implicit_solution):
        columns = (profile.u, profile.theta, profile.f, profile.psi,
                   profile.phi1, profile.gaussian_curvature())
        rows = [",".join(f"{value + 0.0:.12f}" for value in row)
                for row in zip(*(column.tolist() for column in columns))]
        lines = profile_to_csv(profile).splitlines()
        assert lines[1:len(rows) + 1] == rows
    signed = ProfileSolution(kind=IMPLICIT, u=[0.0, 1.0], theta=[2.2, 2.1],
                             f=[1.0, 1.1], psi=[-0.0, 1.0],
                             phi1=[-0.0, -1e-13], u0=0.0)
    row = profile_to_csv(signed).splitlines()[1].split(",")
    assert row[3] == row[4] == "0.000000000000"
    # only a zero loses its sign: a negative value that rounds to zero
    # keeps it, as the f-string does
    assert profile_to_csv(signed).splitlines()[2].split(",")[4] \
        == "-0.000000000000"


def test_profile_to_csv_deterministic(explicit_profile):
    assert profile_to_csv(explicit_profile) == profile_to_csv(
        explicit_profile)


def _closed_forms(profile):
    """(name, closed form, size of its terms) for every explicit closed
    form the family patch reads, the derivatives of Psi and Phi1 as the x1
    patch's du and duu components 2 and 1.  The size bounds what rounding
    of the terms can do to the result where they cancel: f'' near its
    zero, Psi and Phi1 near the anchor, cos(theta) near pi/2, and the
    factor e^Psi, which turns an ulp of Psi into |Psi| ulps."""
    a, c0 = CONSTANTS.a1, profile.c0
    patch = family_surface(profile, "x1")

    def grows(u):
        psi = psi_explicit(u, c0)
        return np.exp(psi) * (1.0 + np.abs(psi))

    def itself(u, value):
        return np.abs(value)

    return [
        ("theta", theta_explicit, itself),
        ("theta'", theta_prime_explicit, itself),
        ("f", f_explicit, itself),
        ("f'", f_prime_explicit, itself),
        ("f''", f_second_explicit, lambda u, value: 4.0 * a * a
         * f_explicit(u) * (1.0 + 2.0 * (f_explicit(u) / a) ** 2)),
        ("Psi", lambda u: psi_explicit(u, c0), lambda u, value: np.abs(u)
         + np.log1p(np.exp(4.0 * a * u)) / (2.0 * a) + abs(c0)),
        ("Phi1", profile.phi1_at, lambda u, value: np.abs(value)
         + math.exp(c0) / a * abs(profile._g_u0)),
        ("psi'", lambda u: patch.derivatives(u, 0.0)[0][2],
         lambda u, value: np.ones_like(u)),
        ("psi''", lambda u: patch.derivatives(u, 0.0)[2][2],
         lambda u, value: 2.0 * f_explicit(u)),
        ("Phi1'", lambda u: patch.derivatives(u, 0.0)[0][1],
         lambda u, value: grows(u)),
        ("Phi1''", lambda u: patch.derivatives(u, 0.0)[2][1],
         lambda u, value: grows(u) * (2.0 * f_explicit(u) + 1.0)),
        ("K", gaussian_curvature_closed_form, itself),
    ]


def _assert_arrays_match_floats(profile, u):
    """Each closed form on an array is finite and within 4 eps of the size
    of its terms from the float call at every entry: numpy's ufuncs and
    libm differ by an ulp or two per elementary function."""
    for name, form, size in _closed_forms(profile):
        batch = form(u)
        floats = np.array([form(float(s)) for s in u])
        assert np.all(np.isfinite(batch)), name
        bound = 4.0 * EPS * size(u, floats)
        worst = np.argmax(np.abs(batch - floats) - bound)
        assert abs(batch[worst] - floats[worst]) <= bound[worst], \
            (name, float(u[worst]))


def test_array_closed_forms_match_float_calls(explicit_profile):
    # the whole domain, its low end included
    u = np.append(-np.geomspace(1e-9, -EXPLICIT_U_MIN, 4001), EXPLICIT_U_MIN)
    _assert_arrays_match_floats(explicit_profile, u)


@given(st.lists(st.floats(min_value=EXPLICIT_U_MIN, max_value=-1e-9),
                min_size=1, max_size=20))
def test_array_closed_forms_sweep(explicit_profile, us):
    _assert_arrays_match_floats(explicit_profile, np.array(us))


def test_implicit_array_hermite_matches_per_point(implicit_solution):
    nodes = implicit_solution.u
    h = nodes[1] - nodes[0]
    u = np.concatenate([nodes, 0.5 * (nodes[1:] + nodes[:-1]),
                        [nodes[0] - 0.3 * h, nodes[-1] + 0.3 * h]])
    # the f slopes are one array call; the per-sample loop is the reference,
    # up to an ulp of numpy's sin against libm's
    loop = [f_prime_implicit(t, f)
            for t, f in zip(implicit_solution.theta, implicit_solution.f)]
    np.testing.assert_allclose(implicit_solution._slopes["f"], loop,
                               rtol=4.0 * EPS, atol=0.0)
    for column in ("theta", "f", "psi", "phi1"):
        values = getattr(implicit_solution, column)
        slopes = implicit_solution._slopes[column]
        expected = [hermite_eval(x, nodes, values, slopes) for x in u]
        assert np.array_equal(hermite_eval(u, nodes, values, slopes),
                              expected), column
    patch = family_surface(implicit_solution, "x1")
    evaluators = [(name, getattr(implicit_solution, name)) for name in
                  ("state_at", "f_prime_at", "phi1_at")]
    # (Phi1', Psi') and (Phi1'', Psi''): components 1 and 2 of the x1 patch
    evaluators += [("d_u", lambda x: patch.derivatives(x, 0.0)[0][1:]),
                   ("d_uu", lambda x: patch.derivatives(x, 0.0)[2][1:])]
    for name, evaluate in evaluators:
        batch = np.asarray(evaluate(u))
        floats = np.array([evaluate(float(x)) for x in u]).T
        # the Hermite cubics are arithmetic only; sin, cos and exp on top
        # of them may differ from libm by an ulp
        np.testing.assert_allclose(batch, floats, rtol=4.0 * EPS, atol=0.0,
                                   err_msg=name)


def test_march_step_count_is_capped():
    # 2.8e11 samples fit in no memory: refused before any is computed
    with pytest.raises(ValueError, match=r"^step 1e-12 is too small for "
                                         r"u_span 1\.0: .* 1000000 steps"):
        integrate_implicit_profile(1.0, 2.2, 1.0, 1e-12)
    assert biconservative_family.MAX_MARCH_STEPS == 10 ** 6
