"""Structured bounded operators on l^p, closed over tail vectors.

Three variants: eventually periodic diagonals, weighted shifts, and a
finite dense block added to a diagonal.  Diagonal and WeightedShift are
two thin subclasses of one weight layout (a prefix, then one period
repeated); DenseMatrix (kind "dense") is a block on the zero diagonal.
Every operator reads as one layout, (weights, shift, block): the weights
on the diagonal, one row lower for a shift, plus the block on the
leading coordinates.  apply (exact within the tail-vector class),
operator_norm_bracket (closed form), window_action_matrix (one
formula; the square compression is its top N rows) and
window_singular_values (that window's spectrum, one SVD of the block
columns and the moduli of the later weights) all read it.
Restricted norms come from one generalized eigenvalue solve on Gram
matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import BadDimensions, DegenerateBasis
from .seqspace import (
    ELL2,
    SpaceConfig,
    Subspace,
    TailVector,
    _as_readonly_array,
    _check_positive_definite,
    _common_period,
    _realigned_tail,
    gram,
)


@dataclass(frozen=True, eq=False)
class _WeightLayout:
    """Eventually periodic values: a finite prefix, then one period repeated."""

    prefix_values: np.ndarray = field(default_factory=lambda: _as_readonly_array(()))
    periodic_values: np.ndarray = field(default_factory=lambda: _as_readonly_array((0.0,)))

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefix_values", _as_readonly_array(self.prefix_values))
        periodic = _as_readonly_array(self.periodic_values)
        if periodic.size == 0:
            raise BadDimensions(f"{type(self).__name__} needs a nonempty periodic part")
        if not (np.all(np.isfinite(self.prefix_values)) and np.all(np.isfinite(periodic))):
            raise BadDimensions(f"{type(self).__name__} weights must be finite")
        object.__setattr__(self, "periodic_values", periodic)

    def entries(self, n: int) -> np.ndarray:
        """Values 1..n as a dense array."""
        out = np.empty(n)
        d = self.prefix_values.size
        m = min(d, n)
        out[:m] = self.prefix_values[:m]
        if n > d:
            out[d:] = self.periodic_values[np.arange(n - d) % self.periodic_values.size]
        return out

    def to_dict(self) -> dict:
        return {
            "kind": self._KIND,
            "prefix": [float(x) for x in self.prefix_values],
            "periodic": [float(x) for x in self.periodic_values],
        }


class Diagonal(_WeightLayout):
    """Coordinatewise multiplier d_j, eventually periodic."""

    _KIND = "diagonal"


@dataclass(frozen=True, eq=False)
class WeightedShift(_WeightLayout):
    """Maps e_j to w_j e_{j+1}; weights share the diagonal layout."""

    periodic_values: np.ndarray = field(default_factory=lambda: _as_readonly_array((1.0,)))
    _KIND = "shift"
    weights = _WeightLayout.entries


@dataclass(frozen=True, eq=False)
class FiniteRankPlus:
    """A dense block on coordinates 1..B added to a Diagonal."""

    block: np.ndarray
    diagonal: Diagonal

    def __post_init__(self) -> None:
        block = np.array(self.block, dtype=np.float64)
        if block.ndim != 2 or block.shape[0] != block.shape[1] or block.size == 0:
            raise BadDimensions(f"block must be square and nonempty, got shape {block.shape}")
        if not np.all(np.isfinite(block)):
            raise BadDimensions("block entries must be finite")
        block.setflags(write=False)
        object.__setattr__(self, "block", block)

    @property
    def block_size(self) -> int:
        return int(self.block.shape[0])

    def to_dict(self) -> dict:
        d = self.diagonal.to_dict()
        return {
            "kind": "finite_rank_plus",
            "prefix": d["prefix"],
            "periodic": d["periodic"],
            "block": [[float(x) for x in row] for row in self.block],
        }


class DenseMatrix(FiniteRankPlus):
    """N x N matrix acting on the window 1..N; coordinates beyond N map to 0.

    It is the block added to the zero diagonal.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        super().__init__(matrix, Diagonal())

    @property
    def matrix(self) -> np.ndarray:
        return self.block

    @property
    def size(self) -> int:
        return self.block_size

    def to_dict(self) -> dict:
        return {"kind": "dense", "block": [[float(x) for x in row] for row in self.matrix]}


Operator = Union[Diagonal, WeightedShift, FiniteRankPlus]


def operator_from_dict(data: dict) -> Operator:
    kind = data.get("kind")
    if kind == "diagonal":
        return Diagonal(data.get("prefix", ()), data.get("periodic", (0.0,)))
    if kind == "shift":
        return WeightedShift(data.get("prefix", ()), data.get("periodic", (1.0,)))
    if kind == "finite_rank_plus":
        return FiniteRankPlus(
            data.get("block", ((0.0,),)),
            Diagonal(data.get("prefix", ()), data.get("periodic", (0.0,))),
        )
    if kind == "dense":
        return DenseMatrix(data.get("block", ((0.0,),)))
    raise BadDimensions(f"unknown operator kind {kind!r}")


def _apply_diagonal(T: _WeightLayout, v: TailVector) -> TailVector:
    d = T.prefix_values.size
    anchor = max(v.anchor, d)
    head = v.coords(anchor) * T.entries(anchor)
    period = _common_period(v.period, T.periodic_values.size)
    coeffs = _realigned_tail(v, anchor, period)
    didx = (anchor - d + np.arange(period)) % T.periodic_values.size
    return TailVector(head, coeffs * T.periodic_values[didx], v.tail_ratio)


def _shift_up(u: TailVector) -> TailVector:
    """Move every coordinate from index j to index j + 1."""
    prefix = np.concatenate([[0.0], u.coords(u.anchor)])
    return TailVector(prefix, u.tail_coeffs, u.tail_ratio)


def _layout(T: Operator) -> tuple[_WeightLayout, int, np.ndarray]:
    """(weights, shift, block): T is the weights on the diagonal, moved down
    by shift rows (1 for WeightedShift, else 0), plus the block on 1..B."""
    if isinstance(T, FiniteRankPlus):
        return T.diagonal, 0, T.block
    if isinstance(T, _WeightLayout):
        return T, int(isinstance(T, WeightedShift)), np.zeros((0, 0))
    raise TypeError(f"not an operator: {T!r}")


def apply(T: Operator, v: TailVector) -> TailVector:
    """Exact image T v within the tail-vector class."""
    weights, shift, block = _layout(T)
    # the image of all-zero weights is the zero vector, so it is not built
    diag = _apply_diagonal(weights, v) if weights.prefix_values.any() or weights.periodic_values.any() else TailVector()
    diag = _shift_up(diag) if shift else diag
    if not block.size:
        return diag
    image = np.trim_zeros(block @ v.coords(block.shape[0]), "b")
    anchor = max(diag.anchor, image.size)
    # adding into +0.0, as a linear combination does, turns -0.0 into 0.0
    head = diag.coords(anchor) + 0.0
    head[: image.size] += image
    return TailVector(head, _realigned_tail(diag, anchor, diag.period) + 0.0, diag.tail_ratio)


def operator_norm_bracket(T: Operator, space: SpaceConfig = ELL2) -> tuple[float, float]:
    """The l^p operator norm as a collapsed [lower, upper] bracket.

    Every variant is exact.  A shift moves the weights without changing
    their sizes, and with a block on 1..B the operator is the direct sum
    of block + diag(d_1..d_B) on coordinates 1..B and the diagonal beyond
    B, so its norm is the larger of the two parts' norms.
    """
    weights, _, block = _layout(T)
    B = block.shape[0]
    value = float(np.max(np.abs(np.concatenate([weights.prefix_values[B:], weights.periodic_values]))))
    if B:
        value = max(float(np.linalg.norm(block + np.diag(weights.entries(B)), space.p)), value)
    return value, value


def operator_norm(T: Operator, space: SpaceConfig = ELL2) -> float:
    """The exact l^p operator norm of T."""
    return operator_norm_bracket(T, space)[1]


def restriction_data(T: Operator, M: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """(gram_TM, gram_M): Gram matrices of the image of M's basis and of the basis."""
    if M.ambient.p != 2:
        raise ValueError("restricted norms require p = 2")
    images = [apply(T, b) for b in M.basis]
    return gram(images), gram(M.basis)


def _pencil_eigs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric-definite pencil (a, b), ascending, clipped at 0.

    With b = L L^T they are the eigenvalues of L^-1 a L^-T, the Cholesky
    reduction that LAPACK's sygvd performs.  a and b may be stacks
    (..., n, n); each matrix of a stack is solved as a single call would.
    """
    L = np.linalg.cholesky(b)
    reduced = np.linalg.solve(L, np.linalg.solve(L, a).swapaxes(-1, -2))
    return np.clip(np.linalg.eigvalsh(reduced), 0.0, None)


def _restricted_eigs(gram_TM: np.ndarray, gram_M: np.ndarray) -> np.ndarray:
    """Squares of ||Tm||/||m|| at the critical points of a span, ascending.

    gram_M is the Gram matrix of a basis and gram_TM that of its image,
    or stacks of both; a basis failing the rank tolerance raises
    DegenerateBasis.
    """
    _check_positive_definite(gram_M, DegenerateBasis, "restriction basis")
    return _pencil_eigs(gram_TM, gram_M)


def _eigs_on(T: Operator, M: Subspace) -> np.ndarray:
    return _restricted_eigs(*restriction_data(T, M))


def restricted_norm(T: Operator, M: Subspace) -> float:
    """||T restricted to span(M)|| = sup of ||Tm||/||m|| over the span."""
    return math.sqrt(float(_eigs_on(T, M)[-1]))


def restricted_min_modulus(T: Operator, M: Subspace) -> float:
    """inf of ||Tm||/||m|| over the span of M."""
    return math.sqrt(float(_eigs_on(T, M)[0]))


def restricted_extremes(T: Operator, M: Subspace) -> tuple[float, float]:
    """(min modulus, norm) from one generalized eigenvalue solve."""
    eigs = _eigs_on(T, M)
    return math.sqrt(float(eigs[0])), math.sqrt(float(eigs[-1]))


# Largest window matrix built, in float64 entries (128 MiB); the search
# bounds its stacked frames by the same figure, and a window spectrum
# holds at most this many singular values.
MAX_WINDOW_ENTRIES = 2**24


def window_action_matrix(T: Operator, N: int) -> np.ndarray:
    """Matrix of the true action on span{e_1..e_N}, spill rows included.

    Column j holds the full image T e_j, so Gram computations on this
    matrix agree exactly with apply() on finitely supported vectors,
    unlike the square compression which drops coordinates past N.  Every
    variant is one formula on its layout: the weights on the diagonal
    offset by the shift, plus the block columns.  A matrix above
    MAX_WINDOW_ENTRIES raises BadDimensions before any allocation.
    """
    if N < 1:
        raise BadDimensions(f"window size must be >= 1, got {N}")
    weights, shift, block = _layout(T)
    B = block.shape[0]
    rows = max(N + shift, B)
    if rows * N > MAX_WINDOW_ENTRIES:
        raise BadDimensions(
            f"window N={N} needs a matrix of {rows} rows x {N} columns, "
            f"above the cap of {MAX_WINDOW_ENTRIES} entries"
        )
    m = np.zeros((rows, N))
    m[np.arange(shift, N + shift), np.arange(N)] = weights.entries(N)
    m[:B, :B] += block[:, :N]
    return m


def truncate_operator(T: Operator, N: int) -> DenseMatrix:
    """The N x N compression with entries <T e_j, e_i> for i, j <= N."""
    return DenseMatrix(window_action_matrix(T, N)[:N])


def window_singular_values(T: Operator, N: int) -> np.ndarray:
    """Singular values of window_action_matrix(T, N), descending, in closed form.

    A column past the block holds one weight in a row of its own, so it
    adds that weight's modulus; the block's columns (the block plus the
    leading weights, at most B x B) take one SVD.  N above
    MAX_WINDOW_ENTRIES raises BadDimensions before any allocation.
    """
    if N < 1:
        raise BadDimensions(f"window size must be >= 1, got {N}")
    if N > MAX_WINDOW_ENTRIES:
        raise BadDimensions(f"window N={N} is above the cap of {MAX_WINDOW_ENTRIES} singular values")
    weights, _, block = _layout(T)
    B = min(block.shape[0], N)
    moduli = np.abs(weights.entries(N)[B:])
    if B:
        moduli = np.concatenate([np.linalg.svd(window_action_matrix(T, B), compute_uv=False), moduli])
    return np.sort(moduli)[::-1]
