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

:meth:`StandardForm.sparse` caches the conversion on the (frozen) form, so
branch & bound converts a form once for its whole tree.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["CsrMatrix", "SparseConstraints"]


@dataclasses.dataclass(frozen=True)
class CsrMatrix:
    """Minimal CSR matrix: ``shape`` plus the classic three-array layout.

    Only what the solver core needs is implemented (construction and
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
        return cls(a_ub=CsrMatrix.from_dense(a_ub), a_eq=CsrMatrix.from_dense(a_eq))

    @property
    def nnz(self) -> int:
        return self.a_ub.nnz + self.a_eq.nnz
