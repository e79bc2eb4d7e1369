"""Deletion-based subset-minimal explainer, the comparison baseline.

Starts from the full feature set and walks indices in ascending order,
dropping every feature whose removal keeps the explanation valid.  The
result is irredundant (no single remaining feature can be dropped) but not
necessarily of minimum size, which is exactly the contrast the exact
explainers are measured against.
"""

from __future__ import annotations

import numpy as np

from .model import DEFAULT_EPSILON, CoverProblem, Explanation


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
    A side whose cap is infinite never refuses a feature and is skipped.

    Gains are non-negative, so a feature whose gain does not fit on its own
    never fits later.  Each round keeps the candidates that still fit on
    their own, adds their gains left to right (``np.add.accumulate``, the
    order a scalar walk adds them in), drops the prefix that fits, keeps the
    next candidate and goes on after it.  The last ``_SCALAR_TAIL``
    candidates, or all that are left after ``_MAX_ROUNDS`` rounds, are
    walked with the same additions in Python.
    """
    sides = [side for side in sides if side[2] < np.inf]
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
    A side the label leaves free has an infinite cap, so a classified label
    walks only its constrained side.  With every feature pinned both bounds
    collapse onto the score.
    """
    kept = _first_fit([
        (problem.score, problem.gain_up, problem.ceiling + DEFAULT_EPSILON),
        (-problem.score, problem.gain_down, -(problem.floor - DEFAULT_EPSILON)),
    ])
    return Explanation(indices=kept, kind=problem.kind, certified_minimum=False)


def first_fit_columns(start: np.ndarray, columns: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """The features a first fit in index order drops from each of ``r`` rows
    at once, as an ``(r, n)`` mask.  ``start`` and ``caps`` are ``(2, r)``:
    each row's two running sums start at ``start`` and must stay at or below
    ``caps``; ``columns`` is ``(n, 2, r)``, feature j's two gains in each row.

    The walk goes over the columns with one running sum per row and side, so
    each row makes the comparisons and additions its own scalar walk makes.
    """
    running, candidate = start.copy(), np.empty_like(start)
    inside = np.empty(start.shape, dtype=bool)
    fit = np.empty(columns.shape[::2], dtype=bool)
    for j, column in enumerate(columns):
        np.add(running, column, out=candidate)
        np.less_equal(candidate, caps, out=inside)
        np.logical_and(inside[0], inside[1], out=fit[j])
        np.copyto(running, candidate, where=fit[j])
    return fit.T


def deletion_block(
    columns: np.ndarray, scores: np.ndarray, ceilings: np.ndarray, floors: np.ndarray,
) -> list[np.ndarray]:
    """:func:`deletion_explanation`'s index set for each of ``r`` rows, given
    their gains as the ``(n, 2, r)`` array ``columns`` (feature j's gains up
    and down in each row), their scores and their limits:
    :func:`first_fit_columns` over the sums and caps each row's own walk
    uses.  A side with an infinite limit never refuses a feature, so every
    label walks both.
    """
    return row_sets(~first_fit_columns(
        np.stack((scores, -scores)),
        columns,
        np.stack((ceilings + DEFAULT_EPSILON, -(floors - DEFAULT_EPSILON))),
    ))


def row_sets(mask: np.ndarray, labels: np.ndarray | None = None) -> list[np.ndarray]:
    """The columns of each row's true entries of the 2-d ``mask``, ascending,
    or ``labels`` at those columns."""
    ends = np.cumsum(np.count_nonzero(mask, axis=1)).tolist()
    columns = mask.nonzero()[1]
    if labels is not None:
        columns = labels[columns]
    return [columns[start:end] for start, end in zip([0] + ends, ends)]
