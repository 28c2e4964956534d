"""Finite-window analogues of the four subspace quantities.

For an operator T and a window size N, each quantity optimizes the
restricted norm or the minimal modulus over k-dimensional (inner) and
K-dimensional (outer) subspaces of span{e_1..e_N}:

  Gamma_k   = inf over k-dim M of ||T restricted to M||
  Tau_k     = sup over k-dim M of the minimal modulus on M
  Delta_kK  = sup over K-dim M of Gamma_k of the restriction
  Nabla_kK  = inf over K-dim M of Tau_k of the restriction

Three methods are available: a singular-value oracle on the window
action matrix (exact for the window, spill rows included), an
exhaustive coordinate-subset oracle for diagonal operators (exact), and
a seeded Grassmannian search for general operators (one-sided bound
with certified bracket).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadDimensions
from .operators import (
    DenseMatrix,
    Diagonal,
    Operator,
    operator_norm,
    window_action_matrix,
)
from .seqspace import ELL2, Subspace, TailVector

QUANTITIES = ("Gamma", "Delta", "Tau", "Nabla")
METHODS = ("svd_oracle", "subset_oracle", "grassmann_search")

# enumeration cap for the exhaustive outer loop of Delta/Nabla
MAX_SUBSET_COMBOS = 2_000_000


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
    """Singular values of a window matrix, descending.

    The window quantities take them of window_action_matrix(T, N), whose
    rows include the coordinates past N that T e_j reaches; a DenseMatrix
    is read through its entries.
    """
    return np.linalg.svd(A.matrix if isinstance(A, DenseMatrix) else A, compute_uv=False)


def _check_dims(N: int, k: int, K: int) -> None:
    if not (1 <= k <= K <= N):
        raise BadDimensions(f"need 1 <= k <= K <= N, got k={k}, K={K}, N={N}")


def _diagonal_moduli(T: Operator, N: int) -> np.ndarray:
    if not isinstance(T, Diagonal):
        raise BadDimensions("subset_oracle needs a diagonal operator")
    return np.abs(T.entries(N))


def coordinate_subset_value(
    moduli: Sequence[float], quantity: str, k: int, K: int | None = None
) -> tuple[float, tuple[int, ...]]:
    """Exact optimum of a quantity over coordinate index sets.

    Returns the value and the lexicographically smallest optimal index
    set (1-based).  Gamma/Tau reduce to order statistics: the k smallest
    (largest) moduli attain the optimum, so only the witness needs the
    candidate scan.  Delta/Nabla enumerate all K-element outer sets; the
    inner optimum over k-element subsets is the k-th smallest (largest)
    modulus within the set.
    """
    absd = np.abs(np.asarray(moduli, dtype=np.float64))
    n = absd.size
    if quantity in ("Gamma", "Tau"):
        _check_dims(n, k, k)
        a = np.sort(absd)
        if quantity == "Gamma":
            value = float(a[k - 1])
            candidates = np.flatnonzero(absd <= value)
        else:
            value = float(a[n - k])
            candidates = np.flatnonzero(absd >= value)
        witness = tuple(int(j) + 1 for j in candidates[:k])
        return value, witness
    if K is None:
        raise BadDimensions(f"{quantity} needs an outer dimension K")
    _check_dims(n, k, K)
    if math.comb(n, K) > MAX_SUBSET_COMBOS:
        raise BadDimensions(f"C({n},{K}) outer sets exceed the enumeration cap {MAX_SUBSET_COMBOS}")
    sets = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), K)), dtype=np.intp
    ).reshape(-1, K)
    vals = absd[sets]
    if quantity == "Delta":
        inner = np.partition(vals, k - 1, axis=1)[:, k - 1]
        pos = int(np.argmax(inner))  # first optimum in lex order
    elif quantity == "Nabla":
        inner = np.partition(vals, K - k, axis=1)[:, K - k]
        pos = int(np.argmin(inner))
    else:
        raise ValueError(f"unknown quantity {quantity!r}")
    return float(inner[pos]), tuple(int(j) + 1 for j in sets[pos])


def _orthonormal_complement(Q: np.ndarray) -> np.ndarray:
    n, m = Q.shape
    if m == 0:
        return np.eye(n)
    full, _ = np.linalg.qr(np.hstack([Q, np.eye(n)]), mode="complete")
    return full[:, m:]


def _alternating_search(
    A: np.ndarray, dim: int, obj_index: int, maximize: bool, restarts: int, seed: int
) -> tuple[float, np.ndarray]:
    """Seeded alternating refinement of one singular value of A Q.

    Q ranges over orthonormal N x dim frames; the objective is the
    (obj_index+1)-th largest singular value of A Q.  Each step drops the
    basis direction of the worst singular value and replaces it with the
    extremal direction of the complement, keeping strict improvements.
    """
    if restarts < 1:
        raise BadDimensions(f"restarts must be >= 1, got {restarts}")
    n = A.shape[1]

    def objective(Q: np.ndarray) -> float:
        s = np.linalg.svd(A @ Q, compute_uv=False)
        return float(s[obj_index])

    rng = np.random.default_rng(seed)
    best_val = None
    best_Q = None
    for _ in range(restarts):
        Q, _ = np.linalg.qr(rng.standard_normal((n, dim)))
        val = objective(Q)
        for _ in range(200):
            _, _, Vt = np.linalg.svd(A @ Q, full_matrices=False)
            drop = dim - 1 if maximize else 0
            kept = Q @ np.delete(Vt, drop, axis=0).T
            C = _orthonormal_complement(kept)
            _, _, Vct = np.linalg.svd(A @ C, full_matrices=False)
            w = C @ (Vct[0] if maximize else Vct[-1])
            candidate = np.hstack([kept, w[:, None]])
            cand_val = objective(candidate)
            better = cand_val > val + 1e-14 * (1.0 + abs(val)) if maximize else cand_val < val - 1e-14 * (1.0 + abs(val))
            if not better:
                break
            Q, val = candidate, cand_val
        if best_val is None or (val > best_val if maximize else val < best_val):
            best_val, best_Q = val, Q
    return best_val, best_Q


def _frame_to_subspace(Q: np.ndarray) -> Subspace:
    return Subspace(tuple(TailVector(Q[:, j]) for j in range(Q.shape[1])), ELL2)


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
    A = window_action_matrix(T, N)
    if objective == "min_restricted_norm":
        value, Q = _alternating_search(A, k, 0, False, restarts, seed)
    elif objective == "max_min_modulus":
        value, Q = _alternating_search(A, k, k - 1, True, restarts, seed)
    else:
        raise ValueError(f"unknown objective {objective!r}")
    return value, _frame_to_subspace(Q)


def _resolve_method(T: Operator, method: str) -> str:
    if method == "auto":
        return "subset_oracle" if isinstance(T, Diagonal) else "svd_oracle"
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    return method


def _svd_value(T: Operator, N: int, index: int) -> float:
    return float(svd_oracle(window_action_matrix(T, N))[index])


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
    if resolved == "svd_oracle":
        index = {
            "Gamma": N - k,
            "Tau": k - 1,
            "Delta": K - k,
            "Nabla": N - K + k - 1,
        }[quantity]
        value = _svd_value(T, N, index)
        bracket = (value, value)
    elif resolved == "subset_oracle":
        value, _ = coordinate_subset_value(_diagonal_moduli(T, N), quantity, k, K)
        bracket = (value, value)
    else:
        A = window_action_matrix(T, N)
        if quantity == "Gamma":
            value, _ = _alternating_search(A, k, 0, False, restarts, seed)
            bracket = (0.0, value)
        elif quantity == "Tau":
            value, _ = _alternating_search(A, k, k - 1, True, restarts, seed)
            bracket = (value, max(value, operator_norm(T)))
        elif quantity == "Delta":
            value, _ = _alternating_search(A, K, K - k, True, restarts, seed)
            bracket = (value, max(value, operator_norm(T)))
        else:
            value, _ = _alternating_search(A, K, k - 1, False, restarts, seed)
            bracket = (0.0, value)
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


_DISPATCH = {"Gamma": gamma_k, "Tau": tau_k, "Delta": delta_kK, "Nabla": nabla_kK}

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
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    if not schedule:
        raise BadDimensions("schedule must be nonempty")
    triples = [(int(N), int(k), int(K)) for N, k, K in schedule]
    for prev, cur in zip(triples, triples[1:]):
        if any(c < p for p, c in zip(prev, cur)):
            raise BadDimensions(f"schedule must be monotone, got {prev} before {cur}")
    estimates = []
    for N, k, K in triples:
        if quantity in ("Gamma", "Tau"):
            estimates.append(_DISPATCH[quantity](T, N, k, method=method, restarts=restarts, seed=seed))
        else:
            estimates.append(_DISPATCH[quantity](T, N, k, K, method=method, restarts=restarts, seed=seed))
    values = [e.value for e in estimates]
    tail = values[-3:]
    converged = len(values) >= 3 and max(tail) - min(tail) < CONVERGENCE_TOL
    return estimates, values[-1], converged
