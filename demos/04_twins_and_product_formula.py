#!/usr/bin/env python3
"""The lexicographic product and its dimension formula.

Product points are pairs base|fiber. Across different base points the base
distance rules; inside one fiber the second factor's distance is capped at
twice the nearness of that base point, so each fiber is a gravitational copy
of the second factor. The dimension of the product is the sum of the fiber
dimensions plus one extra landmark for all but one member of every special
twin class.
"""

import numpy as np

from lexmetric import (
    FiniteMetricSpace,
    complete_graph,
    fiber,
    formula_rhs,
    graph_metric,
    lexicographic,
    metric_dimension,
    path_graph,
    special_classes,
    twin_classes,
    verify_dimension,
)

K2 = graph_metric(complete_graph(2))
P3 = graph_metric(path_graph(3))

print("=" * 64)
print("1. K2 o K2 is the complete graph on four points")
print("=" * 64)
prod = lexicographic(K2, K2)
print("points:", prod.space.points)
print(np.asarray(prod.space.dist))
print("dim =", metric_dimension(prod.space).dimension, "(3 = 1 + 1 + one twin excess)")

print("\n" + "=" * 64)
print("2. Fibers are gravitational copies of the second factor")
print("=" * 64)
tall = lexicographic(K2, graph_metric(path_graph(4)))
fib = fiber(tall, "v1")
print("fiber over v1 of K2 o P4 (P4 capped at 2):")
print(np.asarray(fib.dist))

print("\n" + "=" * 64)
print("3. Twin classes and the far-witness test")
print("=" * 64)
print("twin classes of P3:", twin_classes(P3).classes)
print("twin classes of K2:", twin_classes(K2).classes, "(two points are vacuous twins)")

special = special_classes(K2, P3)
print("\nspecial classes of (K2, P3):", special.member_classes)
print("(each endpoint basis of the fiber P3 sees the center b at the gap 1)")

half = FiniteMetricSpace(("y1", "y2"), [[0, 0.5], [0.5, 0]])
special = special_classes(K2, half)
print("\nspecial classes of (K2, pair at 0.5):", special.member_classes)
for cls, (member, basis) in special.counterexamples.items():
    print(f"  class {cls} fails at member {member}: fiber basis {basis} has no far witness")
print("(capped distances stay below the gap 1)")

print("\n" + "=" * 64)
print("4. The formula against the solver")
print("=" * 64)
for name, base, second in [
    ("K2 o K2", K2, K2),
    ("K2 o P3", K2, P3),
    ("P3 o K2", P3, K2),
    ("K2 o half-pair", K2, half),
]:
    report = verify_dimension(base, second)
    print(f"  {name}: solver {report.lhs} vs formula {report.rhs} -> "
          f"{'PASS' if report.passed else 'FAIL'}")
print("closed form alone:", formula_rhs(K2, P3))
