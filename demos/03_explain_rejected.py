"""Explaining a rejection exactly: the 0-1 program and its solver.

A rejection explanation must keep the score inside the band from both
sides, which makes it a two-constraint covering problem over the
per-feature gains.  This demo builds the program, solves it with the
built-in branch and bound, checks the answer with ``CoverProblem.holds``
(the one validity test every reported explanation passes), and contrasts
the result with the deletion-based subset-minimal baseline.
"""

import numpy as np

from minaxp import (
    Explanation,
    ExplanationKind,
    Instance,
    LinearModel,
    RejectClassifier,
    cover_problem,
    deletion_explanation,
    predict,
    solve_rejection_ilp,
    unit_box,
)

# Feature 0 alone covers both sides of the band; features 1 and 2 each
# cover only one side.  Ascending deletion drops feature 0 first (the
# remainder still works) and then has to keep both specialists.
model = LinearModel(weights=np.array([2.0, 1.0, 1.0]), bias=0.0, domains=unit_box(3))
clf = RejectClassifier(model, t_minus=1.0, t_plus=3.0)
x = Instance.validated(model, [0.5, 0.0, 1.0])

pred = predict(clf, x)
print(f"score(x) = {pred.score:+.2f} inside [{clf.t_minus:+.2f}, {clf.t_plus:+.2f}]"
      f"  ->  {pred.label.value}")

problem = cover_problem(clf, x)
print("\nprogram: minimize number of pinned features subject to")
print(f"  sum_j z_j * {np.round(problem.gain_up, 2)} >= {problem.need_up:+.2f}   (upper bound below t_plus)")
print(f"  sum_j z_j * {np.round(problem.gain_down, 2)} >= {problem.need_down:+.2f}   (lower bound above t_minus)")

solution = solve_rejection_ilp(problem)
print(f"\nsolver: selected {solution.selected.tolist()}, objective {solution.objective}, "
      f"optimal {solution.optimal}, nodes {solution.nodes_explored}")

explanation = Explanation(solution.selected, ExplanationKind.REJECTION, solution.optimal)
baseline = deletion_explanation(problem)
print(f"exact explanation:    {list(explanation.indices)} (size {explanation.size}), "
      f"holds {problem.holds(explanation.index_array)}")
print(f"baseline explanation: {list(baseline.indices)} (size {baseline.size})")
print("\nthe baseline is irredundant (no single remaining feature can be")
print("dropped), yet one size larger: deleting feature 0 early locked it")
print("into keeping both one-sided specialists.")
