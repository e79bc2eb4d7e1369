"""Greedy minimum-size explanations for accepted (classified) predictions.

Pinning a feature raises the worst-case lower score bound by its gain
``gain_down`` (positive case) or lowers the upper bound by ``gain_up``
(negative case).  Because every feature costs one unit and gains add up
independently, the shortest prefix of the gains sorted largest first that
covers the required margin is an explanation of provably minimum size, at
O(n log n) cost: one sort of the values.  Equal gains are equal floats, so
the prefix length k does not depend on the tie order.  The explanation is
every gain above the k-th largest plus the lowest-indexed ones equal to it,
the first k of the order by gain descending, index ascending.
"""

from __future__ import annotations

import numpy as np

from .model import (
    DEFAULT_EPSILON,
    CoverProblem,
    Explanation,
    Label,
    LabelMismatchError,
)


def greedy_explanation(problem: CoverProblem) -> Explanation:
    """Minimum-size explanation of a classified problem: the greedy over its
    one constrained side, ``gain_down`` against ``need_down`` for POSITIVE
    and ``gain_up`` against ``need_up`` for NEGATIVE.  A rejected problem
    raises :class:`LabelMismatchError`; it takes ``solve_rejection_ilp``."""
    if problem.label is Label.POSITIVE:
        gains, need = problem.gain_down, problem.need_down
    elif problem.label is Label.NEGATIVE:
        gains, need = problem.gain_up, problem.need_up
    else:
        raise LabelMismatchError("instance is predicted REJECT; the greedy explains accepted ones")
    if need <= DEFAULT_EPSILON:
        chosen = np.empty(0, dtype=np.intp)
    else:
        # The work rows share one block with the gains, so a call
        # allocates nothing of length n but the index set.
        ascending, prefix_sums = problem.work
        np.copyto(ascending, gains)
        ascending.sort()
        np.add.accumulate(ascending[::-1], out=prefix_sums)
        k = int(np.searchsorted(prefix_sums, need - DEFAULT_EPSILON, side="left")) + 1
        if k > gains.size:
            raise LabelMismatchError(
                "margin not coverable by any feature subset; instance cannot carry this label"
            )
        kth = ascending[-k]
        # The prefix sums are spent; their row takes the mask.
        mask = np.greater_equal(gains, kth, out=prefix_sums.view(np.bool_)[: gains.size])
        chosen = mask.nonzero()[0]
        if chosen.size > k:  # surplus ties at the k-th value: keep the lowest-indexed
            ties = chosen[gains[chosen] == kth]
            mask[ties[k - chosen.size :]] = False
            chosen = mask.nonzero()[0]
    return Explanation(indices=chosen, kind=problem.kind, certified_minimum=True)


def greedy_block(gains: np.ndarray, need: float) -> list[np.ndarray | None]:
    """:func:`greedy_explanation`'s index set for each row of the ``(r, n)``
    matrix ``gains``, every row against the same ``need``, with whole-matrix
    operations: one row-wise sort, one row-wise running sum, one count.  A
    row's sums are added in the order its own greedy adds them, so k and
    the set are the ones it finds.  A row whose gains cannot cover ``need``
    gets None, and its own greedy says why.
    """
    rows, n = gains.shape
    if need <= DEFAULT_EPSILON:
        return [np.empty(0, dtype=np.intp) for _ in range(rows)]
    ascending = np.sort(gains, axis=1)
    prefix_sums = np.add.accumulate(ascending[:, ::-1], axis=1)
    # The running sums never fall, so the count below the need is the
    # greedy's left-sided search.
    k = np.count_nonzero(prefix_sums < need - DEFAULT_EPSILON, axis=1) + 1
    covered = k <= n
    kth = ascending[np.arange(rows), n - np.minimum(k, n)]
    mask = gains >= kth[:, None]
    mask[~covered] = False
    counts = np.count_nonzero(mask, axis=1)
    surplus = (counts > k).nonzero()[0]
    if surplus.size:  # ties at the k-th value: keep the lowest-indexed
        ties = gains[surplus] == kth[surplus, None]
        keep = k[surplus] - counts[surplus] + np.count_nonzero(ties, axis=1)
        mask[surplus] &= ~(ties & (np.cumsum(ties, axis=1) > keep[:, None]))
    chosen = mask.nonzero()[1]
    ends = np.cumsum(np.where(covered, k, 0)).tolist()
    return [
        chosen[end - size : end] if ok else None
        for end, size, ok in zip(ends, k.tolist(), covered.tolist())
    ]
