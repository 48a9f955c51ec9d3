"""Tour of the ambient model: frame, connection, curvature, flat leaves.

Run with: python3 demos/ambient_geometry.py
"""

import numpy as np

from solgeo import (Point, canonical_leaf, frame_connection, frame_vector,
                    sectional_curvature, shape_data)


def main():
    p = Point(0.4, -1.1, 0.25)
    print(f"base point ({p.x}, {p.y}, {p.z})")

    print("\nconnection coefficients nabla_{E_i} E_j in the frame:")
    basis = np.eye(3)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            # + 0.0 turns the table's -0.0 entries into 0.0
            w = np.array(frame_connection(basis[i - 1], basis[j - 1])) + 0.0
            if np.any(w != 0.0):
                print(f"  nabla_E{i} E{j} = {w}")
    x, y = (1.0, 2.0, 0.5), (-1.0, 0.0, 3.0)
    print(f"  on X = {x}, Y = {y}: nabla_X Y = "
          f"{np.array(frame_connection(x, y)) + 0.0}")

    e1, e2, e3 = (frame_vector(p, i) for i in (1, 2, 3))
    print("\nsectional curvatures of the frame planes:")
    print(f"  K(E1,E3) = {sectional_curvature(e1, e3):+.12f}")
    print(f"  K(E2,E3) = {sectional_curvature(e2, e3):+.12f}")
    print(f"  K(E1,E2) = {sectional_curvature(e1, e2):+.12f}")

    print("\ncoordinate leaves through the same point:")
    for kind, level in (("x_const", p.x), ("y_const", p.y), ("z_const", p.z)):
        leaf = canonical_leaf(kind, level)
        sd = shape_data(leaf, 0.1, -0.2)
        lam = np.sort(sd.principal_curvatures)
        print(f"  {leaf.name:<14} h = {sd.h:+.3e}  K = {sd.K:+.3e}  "
              f"principal = ({lam[0]:+.3f}, {lam[1]:+.3f})")
    print("\nthe vertical leaves are totally geodesic; the horizontal one")
    print("is minimal but intrinsically flat with opposite bendings.")


if __name__ == "__main__":
    main()
