"""Deletion-based subset-minimal explainer, the comparison baseline.

Starts from the full feature set and walks indices in ascending order,
dropping every feature whose removal keeps the explanation valid.  The
result is irredundant (no single remaining feature can be dropped) but not
necessarily of minimum size, which is exactly the contrast the exact
explainers are measured against.
"""

from __future__ import annotations

import numpy as np

from .model import (
    DEFAULT_EPSILON,
    CoverProblem,
    Explanation,
    Label,
)


# Candidates at most this many are walked one at a time: below it a numpy
# round costs more than the comparisons it replaces.
_SCALAR_TAIL = 64
# Rows of the benchmark's wide workload take at most 10 rounds.  Gains can be
# built so that each round settles only two features; past this many rounds
# the rest is walked one at a time, so such rows cost about twice the scalar
# walk rather than one numpy round per two features.
_MAX_ROUNDS = 16


def _first_fit(sides: list) -> np.ndarray:
    """Indices kept by a first fit in index order over ``sides``, each a
    ``(start, gains, cap)``: feature j is dropped when, on every side, the
    running sum from ``start`` plus ``gains[j]`` stays at or below ``cap``.

    Gains are non-negative, so a feature whose gain does not fit on its own
    never fits later.  Each round keeps the candidates that still fit on
    their own, adds their gains left to right (``np.add.accumulate``, the
    order a scalar walk adds them in), drops the prefix that fits, keeps the
    next candidate and goes on after it.  The last ``_SCALAR_TAIL``
    candidates, or all that are left after ``_MAX_ROUNDS`` rounds, are
    walked with the same additions in Python.
    """
    n = sides[0][1].size
    starts = [start for start, _, _ in sides]
    dropped = np.zeros(n, dtype=bool)
    candidates = np.arange(n)
    rounds = 0
    while candidates.size > _SCALAR_TAIL and rounds < _MAX_ROUNDS:
        rounds += 1
        for start, (_, gains, cap) in zip(starts, sides):
            candidates = candidates[gains[candidates] + start <= cap]
        if candidates.size <= _SCALAR_TAIL:
            break
        sums = []
        for start, (_, gains, cap) in zip(starts, sides):
            running = gains[candidates]
            running[0] += start
            np.add.accumulate(running, out=running)
            inside = running <= cap
            fit = inside if not sums else fit & inside
            sums.append(running)
        # The first candidate fits on its own, so k >= 1.
        k = int(fit.argmin())
        if fit[k]:
            k = candidates.size
        dropped[candidates[:k]] = True
        starts = [float(running[k - 1]) for running in sums]
        candidates = candidates[k + 1:]
    walk = zip(candidates.tolist(), *(gains[candidates].tolist() for _, gains, _ in sides))
    if len(sides) == 1:
        (start,), cap = starts, sides[0][2]
        for j, gain in walk:
            if start + gain <= cap:
                start += gain
                dropped[j] = True
    else:
        (up, down), cap_up, cap_down = starts, sides[0][2], sides[1][2]
        for j, gain_up, gain_down in walk:
            if up + gain_up <= cap_up and down + gain_down <= cap_down:
                up += gain_up
                down += gain_down
                dropped[j] = True
    return (~dropped).nonzero()[0]


def deletion_explanation(problem: CoverProblem) -> Explanation:
    """Subset-minimal explanation of the problem's label.

    Validity under a removal is tracked incrementally: dropping feature j
    raises the reachable maximum by ``gain_up[j]`` and lowers the reachable
    minimum by ``gain_down[j]``.  The walk is a first fit in index order
    (:func:`_first_fit`).  The minimum is walked negated: ``-s + g`` has the
    bits of ``-(s - g)``, so each comparison is the one a scalar walk makes.
    A classified label walks only its constrained side; a rejection walks
    both.  With every feature pinned both bounds collapse onto the score.
    """
    ceiling = problem.ceiling + DEFAULT_EPSILON
    floor = problem.floor - DEFAULT_EPSILON
    up = (problem.score, problem.gain_up, ceiling)
    down = (-problem.score, problem.gain_down, -floor)
    if problem.label is Label.POSITIVE:
        sides = [down]
    elif problem.label is Label.NEGATIVE:
        sides = [up]
    else:
        sides = [up, down]
    kept = _first_fit(sides)
    return Explanation(indices=kept, kind=problem.kind, certified_minimum=False)
