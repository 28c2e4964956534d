"""Finite-window analogues of the four subspace quantities.

For an operator T and a window size N, each quantity optimizes the
restricted norm or the minimal modulus over k-dimensional (inner) and
K-dimensional (outer) subspaces of span{e_1..e_N}:

  Gamma_k   = inf over k-dim M of ||T restricted to M||
  Tau_k     = sup over k-dim M of the minimal modulus on M
  Delta_kK  = sup over K-dim M of Gamma_k of the restriction
  Nabla_kK  = inf over K-dim M of Tau_k of the restriction

By Courant-Fischer each value is one order statistic, counted from the
largest: Gamma_k the (N-k+1)-th, Tau_k the k-th, Delta_kK the (K-k+1)-th
and Nabla_kK the (N-K+k)-th, of the window's singular values (spill rows
included).  The two exact methods read it from the closed-form spectrum
operators.window_singular_values: svd_oracle for any operator and
subset_oracle for a diagonal, whose coordinate witness
coordinate_subset_value gives.  A seeded Grassmannian search bounds it
for general operators (one-sided bound with certified bracket).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import operators
from .errors import BadDimensions
from .operators import (
    DenseMatrix,
    Diagonal,
    Operator,
    operator_norm,
    window_action_matrix,
    window_singular_values,
)
from .seqspace import ELL2, Subspace, TailVector


class _Shape(NamedTuple):
    """What tells the quantities apart; every route derives from it."""

    supremum: bool  # a supremum over subspaces, else an infimum
    norm: bool  # reads the restricted norm, else the minimal modulus
    outer: bool  # takes an outer K-dimensional M around the inner k


_SHAPES = {
    "Gamma": _Shape(supremum=False, norm=True, outer=False),
    "Tau": _Shape(supremum=True, norm=False, outer=False),
    "Delta": _Shape(supremum=True, norm=True, outer=True),
    "Nabla": _Shape(supremum=False, norm=False, outer=True),
}
QUANTITIES = tuple(_SHAPES)
METHODS = ("svd_oracle", "subset_oracle", "grassmann_search")


@dataclass(frozen=True)
class QuantityEstimate:
    """One evaluated quantity with its certified bracket."""

    quantity: str
    value: float
    k: int
    K: int
    N: int
    method: str
    bracket: tuple[float, float]
    seed: int = 0

    def __post_init__(self) -> None:
        if self.quantity not in QUANTITIES:
            raise ValueError(f"unknown quantity {self.quantity!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        lo, hi = self.bracket
        if not (lo <= self.value <= hi):
            raise ValueError(f"bracket {self.bracket} does not contain value {self.value}")

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "value": float(self.value),
            "k": int(self.k),
            "K": int(self.K),
            "N": int(self.N),
            "method": self.method,
            "bracket": [float(self.bracket[0]), float(self.bracket[1])],
            "seed": int(self.seed),
        }


def svd_oracle(A: DenseMatrix | np.ndarray) -> np.ndarray:
    """Singular values of a matrix by a dense SVD, descending.

    On window_action_matrix(T, N), whose rows include the coordinates past
    N that T e_j reaches, it is the dense reference for
    window_singular_values(T, N), which the estimates read; a DenseMatrix
    is read through its entries.
    """
    return np.linalg.svd(A.matrix if isinstance(A, DenseMatrix) else A, compute_uv=False)


def _check_dims(N: int, k: int, K: int) -> None:
    if not (1 <= k <= K <= N):
        raise BadDimensions(f"need 1 <= k <= K <= N, got k={k}, K={K}, N={N}")


def _shape(quantity: str) -> _Shape:
    if quantity not in _SHAPES:
        raise ValueError(f"unknown quantity {quantity!r}")
    return _SHAPES[quantity]


def _search_args(quantity: str, k: int, K: int) -> tuple[int, int, bool]:
    """(dim, obj_index, maximize) of _alternating_search for a quantity.

    Frames have dim = K with an outer dimension, else k; in a frame the
    inner k-dimensional optimum is, counted from the largest, singular
    value dim - k + 1 of a norm quantity and k of a modulus quantity.
    """
    shape = _shape(quantity)
    dim = K if shape.outer else k
    return dim, dim - k if shape.norm else k - 1, shape.supremum


def _descending_index(quantity: str, N: int, k: int, K: int) -> int:
    """Position of a window value among N descending singular values.

    By Courant-Fischer the supremum of singular value i of A Q over
    dim-dimensional frames Q is singular value i of A, and the infimum
    is singular value i + N - dim.
    """
    dim, index, supremum = _search_args(quantity, k, K)
    return index if supremum else index + N - dim


def coordinate_subset_value(
    moduli: Sequence[float], quantity: str, k: int, K: int | None = None
) -> tuple[float, tuple[int, ...]]:
    """Exact optimum of a quantity over coordinate index sets.

    Returns the value and the lexicographically smallest optimal index
    set (1-based).  The value is an order statistic of the moduli.  A set
    is optimal when it holds few enough "wrong" moduli, those above the
    value for Gamma/Nabla and below it for Tau/Delta: none for Gamma/Tau
    (k indices), at most k - 1 for Delta/Nabla (K indices).  Taking every
    index in order while the wrong ones stay within that allowance gives
    the smallest such set.
    """
    shape = _shape(quantity)
    absd = np.abs(np.asarray(moduli, dtype=np.float64))
    n = absd.size
    if not shape.outer:
        K = k
    elif K is None:
        raise BadDimensions(f"{quantity} needs an outer dimension K")
    _check_dims(n, k, K)
    value = float(np.sort(absd)[::-1][_descending_index(quantity, n, k, K)])
    wrong = absd < value if shape.supremum else absd > value
    keep = ~wrong | (np.cumsum(wrong) <= (k - 1 if shape.outer else 0))
    return value, tuple(int(j) + 1 for j in np.flatnonzero(keep)[:K])


def _alternating_search(
    A: np.ndarray, dim: int, obj_index: int, maximize: bool, restarts: int, seed: int
) -> tuple[float, np.ndarray]:
    """Seeded alternating refinement of one singular value of A Q.

    Q ranges over orthonormal N x dim frames; the objective is the
    (obj_index+1)-th largest singular value of A Q.  Each step drops the
    basis direction of the worst singular value and replaces it with the
    extremal direction of the complement, keeping strict improvements.

    The restarts advance in lockstep as stacked (restarts, N, dim)
    frames, at most MAX_WINDOW_ENTRIES // (rows (N + dim)) per stack, so
    no stacked array outgrows one capped window; a restart leaves the
    stack at its first step that does not improve.
    Stacked linalg computes each frame exactly as a per-frame call
    would, so the result is the first best frame in restart order.  With
    dim = 1 every restart's complement is the whole window, so its
    candidate, the extremal right singular vector of A, is computed once.
    """
    if restarts < 1:
        raise BadDimensions(f"restarts must be >= 1, got {restarts}")
    n = A.shape[1]
    drop = dim - 1 if maximize else 0
    pick = 0 if maximize else -1
    stack = max(1, operators.MAX_WINDOW_ENTRIES // (A.shape[0] * (n + dim)))
    rng = np.random.default_rng(seed)
    best_val = None
    best_Q = None
    if dim == 1:
        line = np.eye(n) @ np.linalg.svd(A @ np.eye(n), full_matrices=False)[2][pick]
        line_val = np.linalg.svd(A @ line[:, None], compute_uv=False)[obj_index]
    for start in range(0, restarts, stack):
        size = min(stack, restarts - start)
        Q, _ = np.linalg.qr(rng.standard_normal((size, n, dim)))
        val = np.linalg.svd(A @ Q, compute_uv=False)[:, obj_index]
        if dim == 1:
            # each restart's one step leads onto the line, or stops it; a
            # restart on the line cannot improve on it
            tol = 1e-14 * (1.0 + np.abs(val))
            better = line_val > val + tol if maximize else line_val < val - tol
            Q[better], val[better] = line[:, None], line_val
        eye = np.broadcast_to(np.eye(n), (size, n, n))
        active = np.arange(size if dim > 1 else 0)
        for _ in range(200):
            if active.size == 0:
                break
            Qa, va = Q[active], val[active]
            _, _, Vt = np.linalg.svd(A @ Qa, full_matrices=False)
            kept = Qa @ np.delete(Vt, drop, axis=1).swapaxes(1, 2)
            full, _ = np.linalg.qr(np.concatenate([kept, eye[: active.size]], axis=2), mode="complete")
            C = full[:, :, dim - 1 :]
            _, _, Vct = np.linalg.svd(A @ C, full_matrices=False)
            candidate = np.concatenate([kept, C @ Vct[:, pick, :, None]], axis=2)
            cand_val = np.linalg.svd(A @ candidate, compute_uv=False)[:, obj_index]
            tol = 1e-14 * (1.0 + np.abs(va))
            better = cand_val > va + tol if maximize else cand_val < va - tol
            active = active[better]
            Q[active] = candidate[better]
            val[active] = cand_val[better]
        i = int(np.argmax(val) if maximize else np.argmin(val))
        if best_val is None or (val[i] > best_val if maximize else val[i] < best_val):
            best_val, best_Q = float(val[i]), Q[i]
    return best_val, best_Q


def _frame_to_subspace(Q: np.ndarray) -> Subspace:
    return Subspace(tuple(TailVector(Q[:, j]) for j in range(Q.shape[1])), ELL2)


_OBJECTIVES = {"min_restricted_norm": "Gamma", "max_min_modulus": "Tau"}


def grassmann_search(
    objective: str, T: Operator, N: int, k: int, restarts: int = 64, seed: int = 0
) -> tuple[float, Subspace]:
    """Search k-dimensional subspaces of the window for an extremal value.

    objective "min_restricted_norm" minimizes the restricted norm
    (upper-bounds the k-dimensional infimum); "max_min_modulus"
    maximizes the minimal modulus (lower-bounds the supremum).  The
    returned orthonormal basis attains the returned value.
    """
    _check_dims(N, k, k)
    quantity = _OBJECTIVES.get(objective)
    if quantity is None:
        raise ValueError(f"unknown objective {objective!r}")
    A = window_action_matrix(T, N)
    value, Q = _alternating_search(A, *_search_args(quantity, k, k), restarts, seed)
    return value, _frame_to_subspace(Q)


def _resolve_method(T: Operator, method: str) -> str:
    if method == "auto":
        return "subset_oracle" if isinstance(T, Diagonal) else "svd_oracle"
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    return method


def _estimate(
    quantity: str,
    T: Operator,
    N: int,
    k: int,
    K: int,
    method: str,
    restarts: int,
    seed: int,
) -> QuantityEstimate:
    _check_dims(N, k, K)
    resolved = _resolve_method(T, method)
    if resolved == "subset_oracle" and not isinstance(T, Diagonal):
        raise BadDimensions("subset_oracle needs a diagonal operator")
    if resolved == "grassmann_search":
        dim, index, supremum = _search_args(quantity, k, K)
        value, _ = _alternating_search(window_action_matrix(T, N), dim, index, supremum, restarts, seed)
        # an attained value bounds a supremum from below, an infimum from above
        bracket = (value, max(value, operator_norm(T))) if supremum else (0.0, value)
    else:
        value = float(window_singular_values(T, N)[_descending_index(quantity, N, k, K)])
        bracket = (value, value)
    return QuantityEstimate(quantity, value, k, K, N, resolved, bracket, seed)


def gamma_k(
    T: Operator, N: int, k: int, method: str = "auto", restarts: int = 64, seed: int = 0
) -> QuantityEstimate:
    """Infimum of the restricted norm over k-dimensional window subspaces."""
    return _estimate("Gamma", T, N, k, k, method, restarts, seed)


def tau_k(
    T: Operator, N: int, k: int, method: str = "auto", restarts: int = 64, seed: int = 0
) -> QuantityEstimate:
    """Supremum of the minimal modulus over k-dimensional window subspaces."""
    return _estimate("Tau", T, N, k, k, method, restarts, seed)


def delta_kK(
    T: Operator, N: int, k: int, K: int, method: str = "auto", restarts: int = 64, seed: int = 0
) -> QuantityEstimate:
    """Supremum over K-dimensional M of the inner k-dimensional infimum."""
    return _estimate("Delta", T, N, k, K, method, restarts, seed)


def nabla_kK(
    T: Operator, N: int, k: int, K: int, method: str = "auto", restarts: int = 64, seed: int = 0
) -> QuantityEstimate:
    """Infimum over K-dimensional M of the inner k-dimensional supremum."""
    return _estimate("Nabla", T, N, k, K, method, restarts, seed)


CONVERGENCE_TOL = 1e-6


def limit_estimate(
    T: Operator,
    quantity: str,
    schedule: Sequence[tuple[int, int, int]],
    method: str = "auto",
    restarts: int = 64,
    seed: int = 0,
) -> tuple[list[QuantityEstimate], float, bool]:
    """Evaluate a quantity along a growing window schedule.

    The schedule lists (N, k, K) triples, nondecreasing in every
    component.  Returns the estimates, the final value, and a flag set
    when the last three values agree pairwise within 1e-6.
    """
    outer = _shape(quantity).outer
    if not schedule:
        raise BadDimensions("schedule must be nonempty")
    triples = [(int(N), int(k), int(K)) for N, k, K in schedule]
    for prev, cur in zip(triples, triples[1:]):
        if any(c < p for p, c in zip(prev, cur)):
            raise BadDimensions(f"schedule must be monotone, got {prev} before {cur}")
    estimates = [
        _estimate(quantity, T, N, k, K if outer else k, method, restarts, seed) for N, k, K in triples
    ]
    values = [e.value for e in estimates]
    tail = values[-3:]
    converged = len(values) >= 3 and max(tail) - min(tail) < CONVERGENCE_TOL
    return estimates, values[-1], converged
