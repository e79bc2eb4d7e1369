"""Greedy explanation runtime as the feature count doubles.

The classified-instance explainer is dominated by one sort, so doubling the
number of features should roughly double the time.  Medians over repeated
runs keep the numbers steady.  The last column counts minor page faults per
call: memory the allocator handed back to the system and has to fault in
again, which shows as a step in the ratios.
"""

import resource
import time

import numpy as np

from minaxp import Instance, LinearModel, RejectClassifier, cover_problem, greedy_explanation, unit_box


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


rng = np.random.default_rng(0)
print("      n   median per explanation   ratio vs previous   minor faults per call")
previous = None
for k in range(8):
    n = 1000 * 2**k
    weights = rng.uniform(-1.0, 1.0, n)
    values = rng.uniform(0.0, 1.0, n)
    model = LinearModel(weights, 0.0, unit_box(n))
    s = float(weights @ values)
    clf = RejectClassifier(model, s - 2.0, s - 1.0)
    instance = Instance(values)

    greedy_explanation(cover_problem(clf, instance))  # warm-up
    samples = []
    faults = minor_faults()
    for _ in range(9):
        start = time.perf_counter()
        greedy_explanation(cover_problem(clf, instance))
        samples.append(time.perf_counter() - start)
    faults = (minor_faults() - faults) / len(samples)
    median = float(np.median(samples))
    ratio = "" if previous is None else f"{median / previous:.2f}x"
    print(f"{n:>7d}   {median * 1000:>10.3f} ms           {ratio:>6s}   {faults:>18.1f}")
    previous = median
print("\nratios hover near 2: time grows like n log n, not n^2.")
