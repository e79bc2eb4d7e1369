"""Greedy minimum-size explanations for accepted predictions, step by step.

Each feature's gain is how much pinning it lifts the worst-case lower score
bound.  Sorting by gain and taking the shortest prefix that covers the
required margin is provably optimal; the walk below shows the crossing.
"""

import numpy as np

from minaxp import (
    Instance,
    LinearModel,
    RejectClassifier,
    brute_force_minimum,
    cover_problem,
    greedy_explanation,
    predict,
    unit_box,
)

model = LinearModel(weights=np.array([3.0, -2.0, 1.0]), bias=0.0, domains=unit_box(3))
clf = RejectClassifier(model, t_minus=-1.0, t_plus=1.0)
x = Instance.validated(model, [1.0, 0.0, 1.0])

pred = predict(clf, x)
print(f"score(x) = {pred.score:+.2f} > t_plus = {clf.t_plus:+.2f}  ->  {pred.label.value}")

problem = cover_problem(clf, x)
explanation = greedy_explanation(problem)
print(f"\nrequired margin (t_plus - worst-case floor): {problem.need_down:.2f}")
print("features by gain (descending, ties by index):")
running = 0.0
order = np.argsort(-problem.gain_down, kind="stable")
for rank, j in enumerate(order, start=1):
    gain = problem.gain_down[j]
    running += gain
    marker = "<- margin covered here" if rank == explanation.size else ""
    print(f"  #{rank}: feature {j} gain {gain:.2f}, prefix sum {running:.2f} {marker}")

print(f"\nexplanation: pin features {list(explanation.indices)} "
      f"(size {explanation.size}, certified minimum: {explanation.certified_minimum})")

oracle = brute_force_minimum(clf, x)
print(f"exhaustive search over all {2 ** model.n_features} subsets agrees: size {oracle.size}")

print("\nreading: feature 0 alone guarantees the score stays above t_plus,")
print("no matter what values features 1 and 2 take in their domains.")
