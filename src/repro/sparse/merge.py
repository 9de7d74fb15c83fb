"""Index-set unions and position maps (§VI-A of the paper).

The dominant cost in Kylix's configuration phase is merging (taking the
union of) the sorted index sets arriving from a node's neighbours, and
memoising where each neighbour's elements landed.  The production kernel
is :func:`union_with_maps`: it concatenates the sets, sorts them once with
a stable argsort (timsort, which merges the presorted runs it finds), and
reads the union and every position map off that one permutation.  These
maps are the ``f^i_jk`` / ``g^i_jk`` of §III-A: during reduction they let
a node scatter-add an arriving value vector into its partial (down pass)
and extract the slice a neighbour asked for (up pass) in O(1) per element.

The paper found merging sorted sequences ~5x faster than a hash table,
because hash probes are random memory accesses while merging streams
sequentially.  Three union strategies reproduce that ablation and serve as
the reference for the kernel; none of them is on the protocol path:

* :func:`hash_merge` — Python ``dict``-based union (the strawman),
* :func:`pairwise_merge` — left-fold of two-way merges (unbalanced; cost is
  quadratic-ish when inputs are similar sizes),
* :func:`tree_merge` — balanced binary tree of two-way merges (the paper's
  choice; each element participates in ~log2(k) merges).

:func:`position_maps` finds each set's positions in a given union with
``searchsorted``; composed with :func:`tree_merge` it is the reference
that :func:`union_with_maps` must match array for array.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "is_sorted_unique",
    "merge_two",
    "hash_merge",
    "pairwise_merge",
    "tree_merge",
    "position_maps",
    "union_with_maps",
]

_EMPTY = np.empty(0, dtype=np.uint64)


def is_sorted_unique(arr: np.ndarray) -> bool:
    """True when ``arr`` is strictly increasing (sorted with no duplicates).

    The protocol invariant for every key array and every position map:
    strict increase implies injectivity, which is what lets reduction use
    plain fancy indexing instead of ``ufunc.at``.
    """
    arr = np.asarray(arr)
    if arr.ndim != 1:
        return False
    if arr.size < 2:
        return True
    return bool(np.all(arr[1:] > arr[:-1]))


def _as_key_array(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a one-dimensional ``uint64`` array (order is not checked)."""
    arr = np.asarray(arr, dtype=np.uint64)
    if arr.ndim != 1:
        raise ValueError("index sets must be one-dimensional")
    return arr


def merge_two(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union of two sorted unique arrays.

    NumPy has no linear merge primitive, so this concatenates and sorts
    with ``kind="mergesort"`` (timsort for 64-bit keys), then
    deduplicates in one vectorized pass.  Timsort finds the two presorted
    halves as runs and merges them, so the sort is linear here.
    """
    a = _as_key_array(a)
    b = _as_key_array(b)
    if a.size == 0:
        return b
    if b.size == 0:
        return a
    merged = np.sort(np.concatenate([a, b]), kind="mergesort")
    keep = np.empty(merged.size, dtype=bool)
    keep[0] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def hash_merge(sets: Sequence[np.ndarray]) -> np.ndarray:
    """Union via a Python hash set — the slow baseline of the §VI-A ablation."""
    seen: set = set()
    for s in sets:
        seen.update(_as_key_array(s).tolist())
    return np.fromiter(sorted(seen), dtype=np.uint64, count=len(seen))


def pairwise_merge(sets: Sequence[np.ndarray]) -> np.ndarray:
    """Left-fold union: acc = merge(acc, s) over the inputs."""
    acc = _EMPTY
    for s in sets:
        acc = merge_two(acc, s)
    return acc


def tree_merge(sets: Sequence[np.ndarray]) -> np.ndarray:
    """Balanced binary-tree union — the paper's strategy (§VI-A ablation).

    Sequences sit at the leaves of a full binary tree; siblings merge
    recursively.  Merged operands stay approximately equal in length,
    which keeps total work at O(N log k) for k sets of total size N.
    """
    level = [_as_key_array(s) for s in sets]
    if not level:
        return _EMPTY
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(merge_two(level[i], level[i + 1]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def position_maps(union: np.ndarray, sets: Sequence[np.ndarray]) -> list[np.ndarray]:
    """For each set, the positions of its elements within ``union``.

    Every element of every set must be present in the union (guaranteed
    when ``union`` was produced by one of the merge functions above).
    Returned maps are ``intp`` arrays usable directly for fancy indexing.
    """
    union = _as_key_array(union)
    maps = []
    for s in sets:
        s = _as_key_array(s)
        pos = np.searchsorted(union, s).astype(np.intp)
        if s.size:
            if pos.max(initial=0) >= union.size or not np.array_equal(union[pos], s):
                raise ValueError("set contains keys missing from the union")
        maps.append(pos)
    return maps


def union_with_maps(sets: Sequence[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Union the sets and return (union, per-set position maps).

    This is the configuration-phase kernel: node ``k`` receives index sets
    from its ``d_i`` neighbours, unions them, and memoises where each
    neighbour's elements landed.  One stable argsort of the concatenated
    sets does both: the union is the heads of the sorted runs of equal
    keys, and the running count of heads, scattered back through the
    permutation, is every element's union position.  The union equals
    ``tree_merge(sets)`` and the maps equal ``position_maps`` into it, so
    each map of a sorted unique set is strictly increasing ``intp``.
    """
    parts = [_as_key_array(s) for s in sets]
    if not parts:
        return _EMPTY, []
    flat = np.concatenate(parts)
    order = np.argsort(flat, kind="stable")
    ordered = flat[order]
    head = np.empty(flat.size, dtype=bool)
    head[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    rank = np.cumsum(head, dtype=np.intp)
    rank -= 1
    pos = np.empty(flat.size, dtype=np.intp)
    pos[order] = rank
    maps = []
    lo = 0
    for part in parts:
        maps.append(pos[lo : lo + part.size])
        lo += part.size
    return ordered[head], maps
