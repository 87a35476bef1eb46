"""Sparse (CSR) constraint data carried alongside :class:`StandardForm`.

Placement forms keep their dense arrays — they are convenient to build
and the placement matrices are tiny per round — but the solver core works on
compressed rows: the revised simplex prices columns through one sparse
``A.T @ y`` product per iteration and gathers basis columns without scanning
zeros.  :class:`CsrMatrix` is a deliberately small, **NumPy-only** CSR
container (three arrays plus a shape), so the native solver stack keeps the
seed's property of running without SciPy installed; the SciPy backend
converts it with :func:`scipy.sparse.csr_matrix((data, indices, indptr))`
when it needs to.

:meth:`StandardForm.sparse` caches the conversion on the (frozen) form, which
lets every consumer — presolve, the revised simplex, branch & bound node
re-solves — share one conversion per form.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["CsrMatrix", "SparseConstraints"]


@dataclasses.dataclass(frozen=True)
class CsrMatrix:
    """Minimal CSR matrix: ``shape`` plus the classic three-array layout.

    Only what the solver core needs is implemented (construction, matvec,
    densification); anything fancier should go through SciPy where it is
    available.  The field names match :class:`scipy.sparse.csr_matrix`, so
    code that only reads ``shape``/``indptr``/``indices``/``data`` accepts
    either type.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CsrMatrix":
        dense = np.asarray(dense, dtype=float)
        if dense.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {dense.shape}")
        rows, cols = np.nonzero(dense)
        indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=dense.shape[0]), out=indptr[1:])
        return cls(
            shape=dense.shape,
            indptr=indptr,
            indices=cols.astype(np.int64),
            data=dense[rows, cols].astype(float),
        )

    @classmethod
    def from_coo(
        cls,
        shape: tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        data: np.ndarray,
    ) -> "CsrMatrix":
        """Build from coordinate triplets (duplicates are not merged)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        data = np.asarray(data, dtype=float)
        order = np.lexsort((cols, rows))
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        return cls(shape=shape, indptr=indptr, indices=cols[order], data=data[order])

    @property
    def nnz(self) -> int:
        return len(self.data)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` (row-wise segment sums over the CSR layout)."""
        if self.shape[0] == 0:
            return np.zeros(0)
        products = self.data * x[self.indices]
        return np.bincount(
            np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)),
            weights=products,
            minlength=self.shape[0],
        )

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        dense[rows, self.indices] = self.data
        return dense


@dataclasses.dataclass(frozen=True)
class SparseConstraints:
    """CSR view of a form's constraint blocks (``a_ub`` and ``a_eq``)."""

    a_ub: CsrMatrix
    a_eq: CsrMatrix

    @classmethod
    def from_arrays(cls, a_ub, a_eq) -> "SparseConstraints":
        return cls(a_ub=_as_csr(a_ub), a_eq=_as_csr(a_eq))

    @property
    def nnz(self) -> int:
        return self.a_ub.nnz + self.a_eq.nnz

    def density(self) -> float:
        """Fraction of stored entries over the dense size (1.0 when empty)."""
        rows = self.a_ub.shape[0] + self.a_eq.shape[0]
        cols = self.a_ub.shape[1]
        dense_size = rows * cols
        return float(self.nnz) / dense_size if dense_size else 1.0


def _as_csr(matrix) -> CsrMatrix:
    if isinstance(matrix, CsrMatrix):
        return matrix
    if hasattr(matrix, "indptr") and hasattr(matrix, "indices") and hasattr(matrix, "data"):
        # Any CSR-layout object (e.g. scipy.sparse.csr_matrix).
        return CsrMatrix(
            shape=tuple(matrix.shape),
            indptr=np.asarray(matrix.indptr, dtype=np.int64),
            indices=np.asarray(matrix.indices, dtype=np.int64),
            data=np.asarray(matrix.data, dtype=float),
        )
    return CsrMatrix.from_dense(np.asarray(matrix, dtype=float))
