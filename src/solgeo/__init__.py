"""Geometry toolkit for the solvable homogeneous 3-space with metric
e^{2z} dx^2 + e^{-2z} dy^2 + dz^2.

Modules: :mod:`solgeo.sol_space` (metric, connection, curvature),
:mod:`solgeo.patch` / :mod:`solgeo.surface_calculus` (immersed surfaces,
shape operators, adapted frames, residuals), :mod:`solgeo.
biconservative_family` (the one-parameter profile family and its two
surface variants), :mod:`solgeo.exact_poly` (integer-polynomial
obstruction), :mod:`solgeo.verification` (report suites) and
:mod:`solgeo.cli`.

``import solgeo`` loads the five geometry modules and numpy without
``numpy.random``; the names of ``verification`` and ``exact_poly`` load
their module on first use (PEP 562), and ``solgeo.cli`` loads both.
"""

import importlib

from .biconservative_family import (CONSTANTS, EXPLICIT, IMPLICIT,
                                    FamilyConstants, ProfileAngleError,
                                    ProfileSolution, build_profile, f_explicit,
                                    f_prime_explicit, family_rows,
                                    family_surface,
                                    gaussian_curvature_closed_form,
                                    integrate_implicit_profile,
                                    profile_to_csv, solve_f, theta_explicit,
                                    theta_prime_explicit)
from .patch import ScalarField, SurfacePatch
from .sol_space import (DegeneratePlaneError, Point, TangentVector,
                        canonical_leaf, christoffel, covariant_derivative,
                        curvature_tensor, curvature_tensor_fd,
                        frame_connection, frame_vector, metric_at,
                        sectional_curvature)
from .surface_calculus import (AdaptedFrameSample, CmcDegenerateError,
                               DegenerateParametrizationError,
                               FundamentalForms, LocalGeometry, ShapeData,
                               adapted_frame, biconservative_residual,
                               biharmonic_normal_residual, fundamental_forms,
                               laplace_beltrami, shape_data)

__version__ = "0.1.0"

__all__ = [
    "AdaptedFrameSample",
    "CONSTANTS",
    "CheckReport",
    "CmcDegenerateError",
    "DegenerateParametrizationError",
    "DegeneratePlaneError",
    "EXPLICIT",
    "FamilyConstants",
    "FundamentalForms",
    "IMPLICIT",
    "IntPolynomial",
    "LocalGeometry",
    "Point",
    "ProfileAngleError",
    "ProfileSolution",
    "SUITE_NAMES",
    "ScalarField",
    "ShapeData",
    "SurfacePatch",
    "TangentVector",
    "adapted_frame",
    "biconservative_residual",
    "biharmonic_normal_residual",
    "build_profile",
    "canonical_leaf",
    "check_angle_constraints",
    "check_biharmonic_obstruction",
    "check_cmc_rigidity",
    "check_frame_identities",
    "check_polynomial_obstruction",
    "christoffel",
    "covariant_derivative",
    "curvature_tensor",
    "curvature_tensor_fd",
    "f_explicit",
    "f_prime_explicit",
    "family_rows",
    "family_surface",
    "frame_connection",
    "frame_vector",
    "fundamental_forms",
    "gaussian_curvature_closed_form",
    "graph_patch_fixture",
    "integrate_implicit_profile",
    "laplace_beltrami",
    "metric_at",
    "nonexistence_combination",
    "obstruction_cubic",
    "obstruction_quintic",
    "profile_to_csv",
    "real_roots_interval",
    "reports_to_json",
    "rotated_leaf_fixture",
    "run_suite",
    "sectional_curvature",
    "shape_data",
    "solve_f",
    "theta_explicit",
    "theta_prime_explicit",
    "vertical_cylinder_fixture",
    "__version__",
]

_LAZY = dict.fromkeys(("IntPolynomial", "nonexistence_combination",
                       "obstruction_cubic", "obstruction_quintic",
                       "real_roots_interval"), "exact_poly")
_LAZY.update(dict.fromkeys((
    "CheckReport", "SUITE_NAMES", "check_angle_constraints",
    "check_biharmonic_obstruction", "check_cmc_rigidity",
    "check_frame_identities", "check_polynomial_obstruction",
    "graph_patch_fixture", "reports_to_json", "rotated_leaf_fixture",
    "run_suite", "vertical_cylinder_fixture"), "verification"))


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
