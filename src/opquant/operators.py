"""Structured bounded operators on l^p, closed over tail vectors.

Four variants: eventually periodic diagonals, weighted shifts with the
same weight layout, a finite dense block added to a diagonal, and plain
dense matrices acting on a truncated window (the oracle-only variant).
Applying any of the structured variants to a TailVector stays inside the
tail-vector class exactly; operator norms come in closed form, and
restricted norms from one generalized eigenvalue solve on Gram matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np
import scipy.linalg

from .errors import BadDimensions, DegenerateBasis
from .seqspace import (
    ELL2,
    SpaceConfig,
    Subspace,
    TailVector,
    _as_readonly_array,
    _check_positive_definite,
    _realigned_tail,
    gram,
    linear_combine,
)


def _periodic_values(values: Sequence[float], what: str) -> np.ndarray:
    arr = _as_readonly_array(values)
    if arr.size == 0:
        raise BadDimensions(f"{what} needs a nonempty periodic part")
    return arr


def _materialize(prefix: np.ndarray, periodic: np.ndarray, n: int) -> np.ndarray:
    out = np.empty(n)
    d = prefix.size
    m = min(d, n)
    out[:m] = prefix[:m]
    if n > d:
        out[d:] = periodic[np.arange(n - d) % periodic.size]
    return out


@dataclass(frozen=True, eq=False)
class Diagonal:
    """Coordinatewise multiplier d_j, eventually periodic."""

    prefix_values: np.ndarray = field(default_factory=lambda: _as_readonly_array(()))
    periodic_values: np.ndarray = field(default_factory=lambda: _as_readonly_array((0.0,)))

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefix_values", _as_readonly_array(self.prefix_values))
        object.__setattr__(self, "periodic_values", _periodic_values(self.periodic_values, "Diagonal"))

    def entries(self, n: int) -> np.ndarray:
        """Diagonal values d_1..d_n as a dense array."""
        return _materialize(self.prefix_values, self.periodic_values, n)

    def to_dict(self) -> dict:
        return {
            "kind": "diagonal",
            "prefix": [float(x) for x in self.prefix_values],
            "periodic": [float(x) for x in self.periodic_values],
        }


@dataclass(frozen=True, eq=False)
class WeightedShift:
    """Maps e_j to w_j e_{j+1}; weights share the diagonal layout."""

    prefix_values: np.ndarray = field(default_factory=lambda: _as_readonly_array(()))
    periodic_values: np.ndarray = field(default_factory=lambda: _as_readonly_array((1.0,)))

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefix_values", _as_readonly_array(self.prefix_values))
        object.__setattr__(self, "periodic_values", _periodic_values(self.periodic_values, "WeightedShift"))

    def weights(self, n: int) -> np.ndarray:
        return _materialize(self.prefix_values, self.periodic_values, n)

    def to_dict(self) -> dict:
        return {
            "kind": "shift",
            "prefix": [float(x) for x in self.prefix_values],
            "periodic": [float(x) for x in self.periodic_values],
        }


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


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """N x N matrix acting on the window 1..N; coordinates beyond N map to 0."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.array(self.matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.size == 0:
            raise BadDimensions(f"matrix must be square and nonempty, got shape {matrix.shape}")
        if not np.all(np.isfinite(matrix)):
            raise BadDimensions("matrix entries must be finite")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def size(self) -> int:
        return int(self.matrix.shape[0])

    def to_dict(self) -> dict:
        return {"kind": "dense", "block": [[float(x) for x in row] for row in self.matrix]}


Operator = Union[Diagonal, WeightedShift, FiniteRankPlus, DenseMatrix]


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


def _apply_diagonal(T: Diagonal, v: TailVector) -> TailVector:
    d = T.prefix_values.size
    anchor = max(v.anchor, d)
    head = v.coords(anchor) * T.entries(anchor)
    if v.has_zero_tail:
        return TailVector(head)
    period = math.lcm(v.period, T.periodic_values.size)
    coeffs = _realigned_tail(v, anchor, period)
    didx = (anchor - d + np.arange(period)) % T.periodic_values.size
    return TailVector(head, coeffs * T.periodic_values[didx], v.tail_ratio)


def _shift_up(u: TailVector) -> TailVector:
    """Move every coordinate from index j to index j + 1."""
    prefix = np.concatenate([[0.0], u.coords(u.anchor)])
    return TailVector(prefix, u.tail_coeffs, u.tail_ratio)


def apply(T: Operator, v: TailVector) -> TailVector:
    """Exact image T v within the tail-vector class."""
    if isinstance(T, Diagonal):
        return _apply_diagonal(T, v)
    if isinstance(T, WeightedShift):
        return _shift_up(_apply_diagonal(Diagonal(T.prefix_values, T.periodic_values), v))
    if isinstance(T, FiniteRankPlus):
        diag_part = _apply_diagonal(T.diagonal, v)
        block_part = TailVector(T.block @ v.coords(T.block_size))
        return linear_combine([1.0, 1.0], [diag_part, block_part])
    if isinstance(T, DenseMatrix):
        return TailVector(T.matrix @ v.coords(T.size))
    raise TypeError(f"not an operator: {T!r}")


def operator_norm_bracket(T: Operator, space: SpaceConfig = ELL2) -> tuple[float, float]:
    """The l^p operator norm as a collapsed [lower, upper] bracket.

    Every variant is exact.  FiniteRankPlus is the direct sum of
    block + diag(d_1..d_B) on coordinates 1..B and the diagonal beyond B,
    so its norm is the larger of the two parts' norms.
    """
    if isinstance(T, (Diagonal, WeightedShift)):
        sup = float(np.max(np.abs(T.periodic_values)))
        if T.prefix_values.size:
            sup = max(sup, float(np.max(np.abs(T.prefix_values))))
        return sup, sup
    if isinstance(T, DenseMatrix):
        value = float(np.linalg.norm(T.matrix, space.p))
        return value, value
    if isinstance(T, FiniteRankPlus):
        B = T.block_size
        d = T.diagonal
        beyond = np.concatenate([d.prefix_values[B:], d.periodic_values])
        block = T.block + np.diag(d.entries(B))
        value = max(float(np.linalg.norm(block, space.p)), float(np.max(np.abs(beyond))))
        return value, value
    raise TypeError(f"not an operator: {T!r}")


def operator_norm(T: Operator, space: SpaceConfig = ELL2) -> float:
    """The exact l^p operator norm of T."""
    return operator_norm_bracket(T, space)[1]


@dataclass(frozen=True, eq=False)
class RestrictedOperatorData:
    """Gram data of a basis and its image, enough for norms on the span."""

    subspace: Subspace
    gram_M: np.ndarray
    gram_TM: np.ndarray


def restriction_data(T: Operator, M: Subspace) -> RestrictedOperatorData:
    if M.ambient.p != 2:
        raise ValueError("restricted norms require p = 2")
    images = [apply(T, b) for b in M.basis]
    return RestrictedOperatorData(M, gram(M.basis), gram(images))


def _restricted_eigs(gram_TM: np.ndarray, gram_M: np.ndarray) -> np.ndarray:
    """Squares of ||Tm||/||m|| at the critical points of a span, ascending.

    gram_M is the Gram matrix of a basis and gram_TM that of its image;
    a basis failing the rank tolerance raises DegenerateBasis.
    """
    _check_positive_definite(gram_M, DegenerateBasis, "restriction basis")
    eigs = scipy.linalg.eigh(gram_TM, gram_M, eigvals_only=True)
    return np.clip(eigs, 0.0, None)


def _eigs_on(T: Operator, M: Subspace) -> np.ndarray:
    data = restriction_data(T, M)
    return _restricted_eigs(data.gram_TM, data.gram_M)


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
# bounds its stacked frames by the same figure.
MAX_WINDOW_ENTRIES = 2**24


def _window_rows(T: Operator, N: int) -> int:
    if isinstance(T, Diagonal):
        return N
    if isinstance(T, WeightedShift):
        return N + 1
    if isinstance(T, FiniteRankPlus):
        return max(N, T.block_size)
    if isinstance(T, DenseMatrix):
        return max(N, T.size)
    raise TypeError(f"not an operator: {T!r}")


def window_action_matrix(T: Operator, N: int) -> np.ndarray:
    """Matrix of the true action on span{e_1..e_N}, spill rows included.

    Column j holds the full image T e_j, so Gram computations on this
    matrix agree exactly with apply() on finitely supported vectors,
    unlike the square compression which drops coordinates past N.  A
    matrix above MAX_WINDOW_ENTRIES raises BadDimensions before any
    allocation.
    """
    if N < 1:
        raise BadDimensions(f"window size must be >= 1, got {N}")
    rows = _window_rows(T, N)
    if rows * N > MAX_WINDOW_ENTRIES:
        raise BadDimensions(
            f"window N={N} needs a matrix of {rows} rows x {N} columns, "
            f"above the cap of {MAX_WINDOW_ENTRIES} entries"
        )
    if isinstance(T, Diagonal):
        return np.diag(T.entries(N))
    if isinstance(T, WeightedShift):
        m = np.zeros((N + 1, N))
        m[np.arange(1, N + 1), np.arange(N)] = T.weights(N)
        return m
    if isinstance(T, FiniteRankPlus):
        m = np.zeros((rows, N))
        m[:N, :N] = np.diag(T.diagonal.entries(N))
        b = min(T.block_size, N)
        m[: T.block_size, :b] += T.block[:, :b]
        return m
    m = np.zeros((rows, N))
    c = min(T.size, N)
    m[: T.size, :c] = T.matrix[:, :c]
    return m


def truncate_operator(T: Operator, N: int) -> DenseMatrix:
    """The N x N compression with entries <T e_j, e_i> for i, j <= N."""
    if N < 1:
        raise BadDimensions(f"window size must be >= 1, got {N}")
    if isinstance(T, Diagonal):
        return DenseMatrix(np.diag(T.entries(N)))
    if isinstance(T, WeightedShift):
        m = np.zeros((N, N))
        if N > 1:
            m[np.arange(1, N), np.arange(N - 1)] = T.weights(N - 1)
        return DenseMatrix(m)
    if isinstance(T, FiniteRankPlus):
        m = np.array(truncate_operator(T.diagonal, N).matrix)
        b = min(T.block_size, N)
        m[:b, :b] += T.block[:b, :b]
        return DenseMatrix(m)
    if isinstance(T, DenseMatrix):
        m = np.zeros((N, N))
        b = min(T.size, N)
        m[:b, :b] = T.matrix[:b, :b]
        return DenseMatrix(m)
    raise TypeError(f"not an operator: {T!r}")
