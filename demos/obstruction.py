"""Why the family contains no non-minimal biharmonic surface.

Two independent obstructions: a sign mismatch in the normal bitension
component, and an exact integer polynomial identity whose positive roots
cannot occur.  Run with: python3 demos/obstruction.py
"""

import numpy as np

from solgeo import (EXPLICIT, build_profile, nonexistence_combination,
                    obstruction_cubic, obstruction_quintic,
                    real_roots_interval)


def _laplacian_and_rhs(profile, u):
    """Delta f = f'' + cos(theta) f' and the value 4 f (f^2 + f sin(theta)
    + sin^2(theta)) that the biharmonic equation requires of it, at u."""
    theta, f, _ = profile.state_at(u)
    lap = profile.f_second_at(u) + np.cos(theta) * profile.f_prime_at(u)
    s = np.sin(theta)
    return lap, 4.0 * f * (f * f + f * s + s * s)


def main():
    us = np.linspace(-4.0, -0.01, 201)
    profile = build_profile(EXPLICIT, u_grid=us)
    print("sign obstruction along the explicit profile")
    print(f"  {'u':>6} {'Delta f':>14} {'required rhs':>14}")
    for u in (-4.0, -2.0, -1.0, -0.5, -0.1):
        lap, rhs = _laplacian_and_rhs(profile, u)
        print(f"  {u:6.1f} {lap:14.6e} {rhs:14.6e}")
    print("  Delta f stays negative while the equation needs it positive,")
    print("  so the normal bitension component never vanishes.")

    lap, rhs = _laplacian_and_rhs(profile, us)
    gap = np.max(lap - rhs)
    print(f"  largest gap Delta f - rhs over the grid: {gap:.6e} (< 0)")

    print("\ninteger identity obstruction")
    combo = nonexistence_combination()
    print(f"  quintic: {obstruction_quintic().coefficients}")
    print(f"  cubic:   {obstruction_cubic().coefficients}")
    print(f"  combination degree {combo.degree}, ascending coefficients:")
    print(f"    {combo.coefficients}")
    roots = real_roots_interval(combo, 0, 3)
    print(f"  positive real roots: {len(roots)} isolated intervals")
    for lo, hi in roots:
        print(f"    ({float(lo):.6f}, {float(hi):.6f})")
    print("  neither interval contains the admissible constant, and a")
    print("  constant angle contradicts the nonvanishing gradient anyway.")


if __name__ == "__main__":
    main()
