"""Acceptance suite: one test per published criterion, each emitting a
single pass/fail line with its pinned tolerances and time budget."""

import math
import time

import numpy as np
import pytest

from solgeo.biconservative_family import (CONSTANTS, EXPLICIT, build_profile,
                                          family_surface,
                                          gaussian_curvature_closed_form,
                                          integrate_implicit_profile,
                                          theta_prime_explicit, f_explicit,
                                          f_prime_explicit)
from solgeo.exact_poly import (IntPolynomial, nonexistence_combination,
                               obstruction_cubic, obstruction_quintic)
from solgeo.sol_space import (Point, TangentVector, canonical_leaf,
                              curvature_tensor, curvature_tensor_fd,
                              frame_vector, sectional_curvature)
from solgeo.surface_calculus import fundamental_forms, shape_data
from solgeo.verification import (_frame_eval, _identity_residuals,
                                 _residual_norm, graph_patch_fixture,
                                 rotated_leaf_fixture, run_suite)


def _verdict(number, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {number} ({name}): {status} "
          f"[{detail}; {elapsed:.2f}s of {budget:.0f}s budget]")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number}: over time budget"


def test_criterion_1_sectional_curvatures():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        p = Point(*rng.uniform(-5.0, 5.0, 3))
        e1, e2, e3 = (frame_vector(p, i) for i in (1, 2, 3))
        worst = max(worst,
                    abs(sectional_curvature(e1, e3) + 1.0),
                    abs(sectional_curvature(e2, e3) + 1.0),
                    abs(sectional_curvature(e1, e2) - 1.0))
    _verdict(1, "sectional curvatures (-1,-1,+1)", worst <= 1e-12,
             f"max deviation {worst:.2e} <= 1e-12 at 100 random points",
             time.time() - t0, 1.0)


def test_criterion_2_curvature_tensor_fd_oracle():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        p = Point(*rng.uniform(-2.0, 2.0, 3))
        x, y, z = (TangentVector(p, rng.uniform(-1.0, 1.0, 3))
                   for _ in range(3))
        closed = curvature_tensor(x, y, z).components
        fd = curvature_tensor_fd(x, y, z, step=1e-4).components
        worst = max(worst, float(np.max(np.abs(closed - fd))))
    _verdict(2, "closed-form curvature vs finite differences",
             worst <= 1e-6,
             f"max component gap {worst:.2e} <= 1e-6, step 1e-4, 50 triples",
             time.time() - t0, 5.0)


def test_criterion_3_canonical_leaves():
    t0 = time.time()
    worst_sigma = 0.0
    for kind, level in (("x_const", 0.3), ("y_const", -0.2)):
        leaf = canonical_leaf(kind, level)
        us, vs = leaf.grid(7, 7)
        for u in us:
            for v in vs:
                forms = fundamental_forms(leaf, u, v)
                worst_sigma = max(worst_sigma,
                                  float(np.max(np.abs(forms.second))))
    leaf = canonical_leaf("z_const", 0.15)
    us, vs = leaf.grid(7, 7)
    worst_h = worst_k = worst_eig = 0.0
    for u in us:
        for v in vs:
            sd = shape_data(leaf, u, v)
            worst_h = max(worst_h, abs(sd.h))
            worst_k = max(worst_k, abs(sd.K))
            worst_eig = max(worst_eig, float(np.max(np.abs(
                np.sort(sd.principal_curvatures) - np.array([-1.0, 1.0])))))
    ok = worst_sigma <= 1e-9 and worst_h <= 1e-10 and worst_k <= 1e-8 \
        and worst_eig <= 1e-9
    _verdict(3, "canonical leaves",
             ok,
             f"|sigma| {worst_sigma:.1e} <= 1e-9, |h| {worst_h:.1e} <= "
             f"1e-10, |K| {worst_k:.1e} <= 1e-8, eigen gap {worst_eig:.1e} "
             f"<= 1e-9",
             time.time() - t0, 1.0)


def test_criterion_4_family_curvatures(patch_x1):
    t0 = time.time()
    a = CONSTANTS.a1
    us, vs = patch_x1.grid(64, 16)
    worst_h = worst_k = 0.0
    max_k = -math.inf
    for u in us:
        f_ref = 2.0 * a * math.exp(-2.0 * a * u) \
            / (1.0 + math.exp(-4.0 * a * u))
        k_ref = gaussian_curvature_closed_form(u)
        for v in vs:
            sd = shape_data(patch_x1, u, v)
            worst_h = max(worst_h, abs(sd.h - f_ref))
            worst_k = max(worst_k, abs(sd.K - k_ref))
            max_k = max(max_k, sd.K)
    ok = worst_h <= 1e-8 and worst_k <= 1e-7 and max_k < 0.0
    _verdict(4, "family mean and Gauss curvature",
             ok,
             f"|h-f| {worst_h:.1e} <= 1e-8, |K-closed| {worst_k:.1e} <= "
             f"1e-7, max K {max_k:.3f} < 0 on u in [-4,-0.01]",
             time.time() - t0, 10.0)


def test_criterion_5_tangential_residual(patch_x1, patch_x2):
    t0 = time.time()
    worst = 0.0
    for patch in (patch_x1, patch_x2):
        us, vs = patch.grid(64, 16)
        for u in us:
            for v in vs:
                worst = max(worst, _residual_norm(patch, u, v))
    stripped = patch_x1.without_curvature_handles()
    us = np.linspace(-3.5, -0.5, 8)
    vs = np.linspace(-0.8, 0.8, 5)
    errors = []
    for step in (0.02, 0.01, 0.005):
        fd_patch = stripped.with_fd_step(step)
        errors.append(max(_residual_norm(fd_patch, u, v)
                          for u in us for v in vs))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    ok = worst <= 1e-6 and min(orders) >= 1.8
    _verdict(5, "biconservative residual",
             ok,
             f"analytic residual {worst:.1e} <= 1e-6 on both variants "
             f"(64x16); FD orders {orders[0]:.2f},{orders[1]:.2f} >= 1.8",
             time.time() - t0, 30.0)


def test_criterion_6_profile_odes(implicit_solution):
    t0 = time.time()
    dense = np.linspace(-4.0, -0.01, 257)
    worst_theta = max(abs(theta_prime_explicit(u) + 2.0 * f_explicit(u))
                      for u in dense)
    worst_scalar = 0.0
    for u in dense:
        f, fp = f_explicit(u), f_prime_explicit(u)
        th = math.pi / 2.0 + math.atan(math.sinh(-2.0 * CONSTANTS.a1 * u))
        worst_scalar = max(worst_scalar,
                           abs(3.0 * f * fp + fp * math.sin(th)
                               + f * math.sin(2.0 * th)))

    sol = implicit_solution
    a1, a2 = CONSTANTS.a1, CONSTANTS.a2
    worst_rel = 0.0
    for th, fv in zip(sol.theta, sol.f):
        y = math.sin(th)
        rel = 6.0 * a2 * math.log(fv - a1 * y) \
            - 6.0 * a1 * math.log(fv - a2 * y)
        worst_rel = max(worst_rel, abs(rel))  # log c = 0 at c = 1

    # Scalar identity along the profile, f' from a 4th-order stencil over
    # the uniform node prefix.
    spacings = np.diff(sol.u)
    n = len(sol.u)
    if abs(spacings[-1] - spacings[0]) > 1e-9 * spacings[0]:
        n -= 1
    fu, thu, h = sol.f[:n], sol.theta[:n], float(spacings[0])
    df = (-fu[4:] + 8.0 * fu[3:-1] - 8.0 * fu[1:-3] + fu[:-4]) / (12.0 * h)
    worst_scalar_impl = float(np.max(np.abs(
        3.0 * fu[2:-2] * df + df * np.sin(thu[2:-2])
        + fu[2:-2] * np.sin(2.0 * thu[2:-2]))))

    # O(h^2) behaviour of the integrated angle: halving the step must
    # shrink the 3-point ODE residual by about 4.
    residuals = []
    for step in (2e-3, 1e-3):
        s = integrate_implicit_profile(c=1.0, theta_start=2.2, u_span=0.2,
                                       step=step)
        du = s.u[2:] - s.u[:-2]
        dth = (s.theta[2:] - s.theta[:-2]) / du
        residuals.append(float(np.max(np.abs(dth + 2.0 * s.f[1:-1]))))
    order = math.log2(residuals[0] / residuals[1])

    ok = worst_theta <= 1e-12 and worst_scalar <= 1e-8 \
        and worst_scalar_impl <= 1e-8 and worst_rel <= 1e-10 \
        and order >= 1.8
    _verdict(6, "profile ODEs and implicit relation",
             ok,
             f"theta' + 2f {worst_theta:.1e} <= 1e-12; scalar ODE "
             f"{worst_scalar:.1e} explicit / {worst_scalar_impl:.1e} "
             f"implicit <= 1e-8; log relation {worst_rel:.1e} <= 1e-10; "
             f"implicit FD order {order:.2f}",
             time.time() - t0, 10.0)


def test_criterion_7_biharmonic_obstruction():
    t0 = time.time()
    a = CONSTANTS.a1
    us = np.linspace(-4.0, -0.01, 201)

    def lap_closed(u):
        th = 2.0 * math.atan(math.exp(-2.0 * a * u))
        f = a / math.cosh(2.0 * a * u)
        fp = -2.0 * a * a * math.tanh(2.0 * a * u) / math.cosh(2.0 * a * u)
        s = 1.0 / math.cosh(2.0 * a * u)
        fpp = 4.0 * a ** 3 * s * (1.0 - 2.0 * s * s)
        return fpp + math.cos(th) * fp

    def lap_rational(u):
        m = math.exp(-2.0 * a * u)
        tt = m * m
        num = (2.0 * a ** 3 - a ** 2) * (tt + 1.0 / tt) \
            + 2.0 * a ** 2 - 12.0 * a ** 3
        return 4.0 * m ** 3 * num / (1.0 + tt) ** 3

    worst_gap = 0.0
    max_lap = -math.inf
    min_rhs = math.inf
    for u in us:
        la, lb = lap_closed(u), lap_rational(u)
        worst_gap = max(worst_gap, abs(la - lb))
        max_lap = max(max_lap, la)
        th = 2.0 * math.atan(math.exp(-2.0 * a * u))
        f = a / math.cosh(2.0 * a * u)
        s = math.sin(th)
        min_rhs = min(min_rhs, 4.0 * f * (f * f + f * s + s * s))
    ok = max_lap < 0.0 and min_rhs > 0.0 and worst_gap <= 1e-9
    _verdict(7, "biharmonic sign obstruction",
             ok,
             f"max Delta f {max_lap:.2e} < 0, min rhs {min_rhs:.2e} > 0, "
             f"route gap {worst_gap:.1e} <= 1e-9 at 201 points",
             time.time() - t0, 5.0)


def test_criterion_8_polynomial_identity():
    t0 = time.time()
    combo = nonexistence_combination()
    expected = (160, 656, -1872, -13224, -19352, 15840, 85632, 92760, 25128)
    p1, p2 = obstruction_quintic(), obstruction_cubic()
    term_a = IntPolynomial([2, 6]) * p1 * p2
    term_b = IntPolynomial([-1, 1, 3]) \
        * (p1 * p2.derivative() - p2 * p1.derivative())
    cancel = term_a.coefficients[9] + term_b.coefficients[9]
    ok = combo.degree == 8 and combo.coefficients == expected \
        and cancel == 0
    _verdict(8, "degree-8 integer identity",
             ok,
             "coefficients (25128, 92760, 85632, 15840, -19352, -13224, "
             "-1872, 656, 160) matched exactly, constant factor 1, "
             "degree-9 terms cancel to exact zero",
             time.time() - t0, 1.0)


def test_criterion_9_negative_controls():
    t0 = time.time()
    graph = graph_patch_fixture()
    us, vs = graph.grid(8, 8)
    graph_res = max(_residual_norm(graph, u, v) for u in us for v in vs)

    leaf, coeffs = rotated_leaf_fixture()
    eval_ = _frame_eval(leaf, (1, 1), coeffs)
    rotated_res = abs(_identity_residuals(eval_)[1, 0])

    frames = {r.check_id: r for r in run_suite("frames")}
    control_graph = frames["negative_control_graph_residual"]
    control_rotated = frames["negative_control_rotated_leaf_sin2beta"]
    harness_ok = control_graph.status == "pass" \
        and control_rotated.status == "pass" \
        and "property" in control_graph.context["expected"] \
        and "property" in control_rotated.context["expected"]

    ok = graph_res >= 1e-3 and rotated_res >= 0.5 and harness_ok
    _verdict(9, "negative controls",
             ok,
             f"graph residual {graph_res:.2e} >= 1e-3; rotated-leaf "
             f"sin(2 beta) residual {rotated_res:.2f}; suites report them "
             "as property failures, not harness failures",
             time.time() - t0, 60.0)
