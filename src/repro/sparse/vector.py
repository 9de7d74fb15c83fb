"""Sparse vectors with sorted unique keys — the protocol payload type.

A :class:`SparseVector` pairs a sorted, duplicate-free ``uint64`` key array
with a value array whose leading axis matches the keys.  Values may have
trailing dimensions (e.g. HADI diameter estimation reduces *bit-string*
values, SGD reduces gradient blocks), so "vector" is really "keyed rows".

Everything here is NumPy-vectorized: construction from unsorted pairs is a
sort + segmented reduction, addition is the protocol's union kernel
(:func:`~repro.sparse.merge.union_with_maps`) + two scatter-adds, and
restriction is a ``searchsorted`` probe.  The paper implements these with
tree merging in Java (§VI-A); the merge-strategy ablation lives in
:mod:`repro.sparse.merge`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .merge import is_sorted_unique, union_with_maps

__all__ = ["SparseVector"]


def _as_keys(keys) -> np.ndarray:
    arr = np.asarray(keys)
    if arr.ndim != 1:
        raise ValueError("keys must be one-dimensional")
    return arr.astype(np.uint64, copy=False)


class SparseVector:
    """Immutable-by-convention sparse vector keyed by sorted unique uint64."""

    __slots__ = ("keys", "values")

    def __init__(self, keys, values, *, validate: bool = True):
        self.keys = _as_keys(keys)
        self.values = np.asarray(values)
        if self.values.shape[:1] != self.keys.shape:
            raise ValueError(
                f"leading axis of values {self.values.shape} must match "
                f"keys {self.keys.shape}"
            )
        if validate and not is_sorted_unique(self.keys):
            raise ValueError("keys must be strictly increasing (sorted, unique)")

    # -- constructors ------------------------------------------------------
    @classmethod
    def empty(cls, value_shape: tuple = (), dtype=np.float64) -> "SparseVector":
        return cls(
            np.empty(0, dtype=np.uint64),
            np.empty((0, *value_shape), dtype=dtype),
            validate=False,
        )

    @classmethod
    def from_unsorted(cls, keys, values) -> "SparseVector":
        """Build from unsorted keys with duplicates; duplicate rows are summed.

        This is the entry point for raw data (e.g. the non-zero rows a node
        produces from its local sparse matrix-vector product).
        """
        keys = _as_keys(keys)
        values = np.asarray(values)
        if values.shape[:1] != keys.shape:
            raise ValueError("leading axis of values must match keys")
        if keys.size == 0:
            return cls(keys, values, validate=False)
        uniq, inverse = np.unique(keys, return_inverse=True)
        summed = np.zeros((uniq.size, *values.shape[1:]), dtype=values.dtype)
        np.add.at(summed, inverse, values)
        return cls(uniq, summed, validate=False)

    @classmethod
    def from_dense(cls, dense) -> "SparseVector":
        """Sparsify a dense array: keys are positions of non-zero rows."""
        dense = np.asarray(dense)
        if dense.ndim == 1:
            nz = np.flatnonzero(dense)
        else:
            nz = np.flatnonzero(np.any(dense != 0, axis=tuple(range(1, dense.ndim))))
        return cls(nz.astype(np.uint64), dense[nz], validate=False)

    # -- basic protocol ------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.keys.size)

    @property
    def nbytes(self) -> int:
        """Wire footprint: keys + values (what the fabric charges for)."""
        return int(self.keys.nbytes + self.values.nbytes)

    def __len__(self) -> int:
        return self.nnz

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SparseVector(nnz={self.nnz}, value_shape={self.values.shape[1:]})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return bool(
            np.array_equal(self.keys, other.keys)
            and np.array_equal(self.values, other.values)
        )

    __hash__ = None  # keys/values are mutable arrays

    def copy(self) -> "SparseVector":
        return SparseVector(self.keys.copy(), self.values.copy(), validate=False)

    # -- algebra ------------------------------------------------------------
    def __add__(self, other: "SparseVector") -> "SparseVector":
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self.combine(other, np.add, 0)

    def combine(self, other: "SparseVector", ufunc, identity) -> "SparseVector":
        """Element-wise union-combine with an arbitrary reduction ufunc.

        Keys present on one side only keep their value (``identity`` seeds
        the union so the first combine is a no-op); shared keys combine
        via ``ufunc``.  This is the kernel for min/max label propagation
        and bitwise-or sketch merging as well as ordinary sums.
        """
        if self.values.shape[1:] != other.values.shape[1:]:
            raise ValueError("value shapes differ")
        union, (pa, pb) = union_with_maps([self.keys, other.keys])
        dtype = np.result_type(self.values.dtype, other.values.dtype)
        out = np.full((union.size, *self.values.shape[1:]), identity, dtype=dtype)
        out[pa] = ufunc(out[pa], self.values)
        out[pb] = ufunc(out[pb], other.values)
        return SparseVector(union, out, validate=False)

    def scale(self, factor: float) -> "SparseVector":
        return SparseVector(self.keys, self.values * factor, validate=False)

    def sum(self):
        """Sum of all values (axis 0)."""
        return self.values.sum(axis=0)

    # -- lookups / restriction ------------------------------------------------
    def restrict(self, keys, fill=0) -> "SparseVector":
        """Project onto ``keys`` (sorted unique); absent keys get ``fill``.

        This is the final step of an allreduce: a node asked for ``in_i``
        and extracts exactly those rows from its reduced partial.  Pass
        the reduction identity as ``fill`` for non-sum reductions.
        """
        keys = _as_keys(keys)
        out = np.full((keys.size, *self.values.shape[1:]), fill, dtype=self.values.dtype)
        if self.keys.size and keys.size:
            pos = np.searchsorted(self.keys, keys)
            pos_clipped = np.minimum(pos, self.keys.size - 1)
            hit = self.keys[pos_clipped] == keys
            out[hit] = self.values[pos_clipped[hit]]
        return SparseVector(keys, out, validate=False)

    def get(self, key: int, default=None):
        """Value row at ``key``, or ``default`` when absent."""
        pos = int(np.searchsorted(self.keys, np.uint64(key)))
        if pos < self.keys.size and self.keys[pos] == np.uint64(key):
            return self.values[pos]
        return default

    def slice_range(self, lo: int, hi: int) -> "SparseVector":
        """Rows with ``lo <= key < hi`` — a contiguous slice, zero-copy."""
        i = int(np.searchsorted(self.keys, np.uint64(lo), side="left"))
        j = int(np.searchsorted(self.keys, np.uint64(hi), side="left")) if hi < (1 << 64) else self.keys.size
        return SparseVector(self.keys[i:j], self.values[i:j], validate=False)

    # -- conversion -----------------------------------------------------------
    def to_dense(self, length: int) -> np.ndarray:
        """Densify into an array with ``length`` leading entries."""
        if self.keys.size and int(self.keys.max()) >= length:
            raise ValueError("length too small for stored keys")
        out = np.zeros((length, *self.values.shape[1:]), dtype=self.values.dtype)
        out[self.keys.astype(np.intp)] = self.values
        return out

    def items(self) -> Iterable[tuple]:
        """Python-level iteration (tests / small data only)."""
        for k, v in zip(self.keys.tolist(), self.values):
            yield k, v
