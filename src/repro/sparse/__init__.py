"""Sparse index/value machinery: vectors, merges, and range partitioning.

These are the data-plane kernels of the Sparse Allreduce: sorted-key sparse
vectors (:class:`SparseVector`), the union-with-position-maps kernel
(:func:`union_with_maps`; :func:`tree_merge` and friends for the §VI-A
ablation), bijective index hashing for balanced partitioning, and nested
equal-range splits of the key space.
"""

from .hashing import IdentityHasher, IndexHasher, MultiplicativeHasher
from .merge import (
    hash_merge,
    is_sorted_unique,
    merge_two,
    pairwise_merge,
    position_maps,
    tree_merge,
    union_with_maps,
)
from .partition import KeyRange, ranges_tile, split_sorted
from .vector import SparseVector

__all__ = [
    "SparseVector",
    "IndexHasher",
    "MultiplicativeHasher",
    "IdentityHasher",
    "KeyRange",
    "split_sorted",
    "ranges_tile",
    "is_sorted_unique",
    "merge_two",
    "hash_merge",
    "pairwise_merge",
    "tree_merge",
    "position_maps",
    "union_with_maps",
]
