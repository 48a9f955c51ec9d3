"""Follow the implicit branch of the family until it degenerates.

Run with: python3 demos/implicit_family.py
"""

import math

from solgeo import CONSTANTS, integrate_implicit_profile


def main():
    sol = integrate_implicit_profile(c=1.0, theta_start=2.2, u_span=1.5,
                                     step=1e-3)
    print(f"c = {sol.c}, starting angle = {sol.theta[0]:.6f}")
    print(f"sampled {len(sol.u)} nodes, halted: {sol.halt_reason}")
    print(f"final u = {sol.u[-1]:.3f}, final angle = {sol.theta[-1]:.6f}")
    print(f"quadrature error estimate for theta: "
          f"{sol.theta_error_estimate:.2e}")

    a1, a2 = CONSTANTS.a1, CONSTANTS.a2
    worst = 0.0
    for th, f in zip(sol.theta, sol.f):
        y = math.sin(th)
        rel = 6.0 * a2 * math.log(f - a1 * y) - 6.0 * a1 * math.log(f - a2 * y)
        worst = max(worst, abs(rel - math.log(sol.c)))
    print(f"defining relation residual along the profile: {worst:.2e}")

    print("\nsamples (u, theta, f):")
    for i in range(0, len(sol.u), len(sol.u) // 6):
        print(f"  {sol.u[i]:6.3f} {sol.theta[i]:10.6f} {sol.f[i]:10.6f}")

    print("\na steep start exhausts the admissible angles immediately:")
    short = integrate_implicit_profile(c=1.0, theta_start=1.4, u_span=1.5,
                                       step=1e-3)
    print(f"  theta_start = 1.4 -> {len(short.u)} node(s), "
          f"halted: {short.halt_reason}")


if __name__ == "__main__":
    main()
