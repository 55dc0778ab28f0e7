"""Dense basis handling: QR factorization, Gram-Schmidt norms, column reordering.

A lattice basis is stored column-wise: ``matrix[:, i]`` is the i-th basis
vector, so a coefficient vector ``x`` maps to the lattice point ``matrix @ x``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative diagonal threshold below which a factorization is rejected.
SINGULAR_RTOL = 1e-12


class SingularBasisError(ValueError):
    """Basis columns are linearly dependent (or numerically close to it)."""


def qr_decompose(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR-factorize a full-rank square matrix with r_ii > 0.

    LAPACK Householder QR with a sign fix on each column of Q / row of R so
    the diagonal of R is strictly positive, which makes the factorization
    unique and keeps downstream step sizes sigma/r_ii sign-stable.
    |r_ii| equals the norm of the i-th Gram-Schmidt vector either way.
    """
    b = np.asarray(matrix, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"basis matrix must be square, got shape {b.shape}")
    if b.shape[0] < 1:
        raise ValueError("basis must have dimension >= 1")
    if not np.isfinite(b).all():
        raise ValueError("basis entries must be finite (found NaN or infinity)")
    q, r = np.linalg.qr(b)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    q = q * signs[np.newaxis, :]
    r = r * signs[:, np.newaxis]
    max_col_norm = np.linalg.norm(b, axis=0).max()
    if not np.min(np.diag(r)) > SINGULAR_RTOL * max_col_norm:  # an all-zero basis too
        raise SingularBasisError(
            "basis is singular or near-singular: min |r_ii| = "
            f"{np.min(np.abs(np.diag(r))):.3e} vs column scale {max_col_norm:.3e}"
        )
    return q, r


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LatticeBasis:
    """Full-rank basis and the R of the sign-fixed QR that validated it. Immutable."""

    n: int
    matrix: np.ndarray
    r_factor: np.ndarray

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "LatticeBasis":
        _, r = qr_decompose(matrix)
        return cls(n=r.shape[0], matrix=_readonly(matrix), r_factor=_readonly(r))

    @classmethod
    def identity(cls, n: int) -> "LatticeBasis":
        return cls.from_matrix(np.eye(n))


def gram_schmidt_norms(basis: LatticeBasis) -> np.ndarray:
    """Norms of the Gram-Schmidt orthogonalized basis vectors, i.e. |r_ii|."""
    return np.abs(np.diag(basis.r_factor))


def permute_basis(basis: LatticeBasis, order) -> LatticeBasis:
    """Reorder basis columns to B[:, order] and re-factorize; `order` must permute 0..n-1."""
    order = [int(j) for j in order]
    if sorted(order) != list(range(basis.n)):
        raise ValueError(f"not a permutation of 0..{basis.n - 1}: {order}")
    return LatticeBasis.from_matrix(basis.matrix[:, order])


def load_basis(path: str) -> LatticeBasis:
    """Read a basis file: first line n, then n rows of n reals.

    Row i holds the i-th coordinate of every basis column.
    """
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"empty basis file: {path}")
    try:
        n = int(tokens[0])
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"bad dimension {tokens[0]!r} in {path}: need an integer >= 1")
    vals = tokens[1:]
    if len(vals) != n * n:
        raise ValueError(f"expected {n * n} entries after header in {path}, got {len(vals)}")
    matrix = np.array([float(v) for v in vals], dtype=float).reshape(n, n)
    return LatticeBasis.from_matrix(matrix)
