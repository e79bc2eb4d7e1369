"""Worst-case score bounds: why pinning features locks a prediction in.

A tiny two-feature model shows the machinery every explainer builds on:
each feature's gains (how far pinning it moves the worst-case score bounds),
the reachable score interval for a pinned feature set, and how an
explanation is just a pinned set whose interval clears the right
threshold(s).
"""

import numpy as np

from minaxp import (
    ExplanationKind,
    Instance,
    LinearModel,
    RejectClassifier,
    cover_problem,
    is_valid_explanation,
    predict,
    unit_box,
)

model = LinearModel(weights=np.array([2.0, -2.0]), bias=0.0, domains=unit_box(2))
clf = RejectClassifier(model, t_minus=-1.0, t_plus=1.0)
x = Instance.validated(model, [0.5, 0.5])

pred = predict(clf, x)
print(f"score(x) = {pred.score:+.2f}  ->  label {pred.label.value}")
print(f"rejection band: [{clf.t_minus:+.2f}, {clf.t_plus:+.2f}]")
print()

problem = cover_problem(clf, x)
print(f"nothing pinned, the score ranges over [{problem.bottom:+.2f}, {problem.top:+.2f}]")
print("pinning a feature lowers the top by gain_up and raises the bottom by gain_down:")
for j in range(model.n_features):
    print(f"  feature {j}: gain_up={problem.gain_up[j]:+.2f} gain_down={problem.gain_down[j]:+.2f}")
print(f"staying rejected needs gain_up >= {problem.need_up:+.2f} and gain_down >= {problem.need_down:+.2f}")
print()

print("reachable score interval per pinned set:")
for pinned in ([], [0], [1], [0, 1]):
    hi, lo = problem.bounds(pinned)
    ok = is_valid_explanation(clf, x, pinned, ExplanationKind.REJECTION)
    print(f"  pinned {str(pinned):8s} -> [{lo:+.2f}, {hi:+.2f}]  still rejected for sure: {ok}")
print()
print("pinning either single feature already traps the score inside the band,")
print("so this rejection has two distinct minimum-size explanations of size 1.")
