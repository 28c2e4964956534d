"""Reference computations made apart from the library's arithmetic.

Everything here works on the library's plain serialisations (tail-vector
dicts and operator dicts) with dense numpy arrays, so an error in the
closed-form tail arithmetic, the operator application or the window
oracles of `opquant` cannot hide in the reference it is checked against.

- Tail vectors become dense coordinates, out to where the tail has fallen
  below 2^-60 of its largest coefficient.
- Operators act on dense coordinates; images keep every spill coordinate.
- Window matrices hold the full image of e_1..e_N, spill rows included.
- Window quantities follow Courant-Fischer from the window singular
  values (for a diagonal, from the sorted moduli):
  Gamma_k is the k-th smallest, Tau_k the k-th largest, Delta_kK the
  (K-k+1)-th largest and Nabla_kK the (N-K+k)-th largest.
"""

from __future__ import annotations

import math

import numpy as np

# the tail is cut once |ratio|^t falls below this share of its coefficients
TAIL_CUTOFF = 2.0**-60


def dense(vector: dict) -> np.ndarray:
    """Coordinates 1..L of a tail-vector dict, L past double precision."""
    prefix = np.asarray(vector.get("prefix", ()), dtype=np.float64)
    coeffs = np.asarray(vector.get("tail_coeffs", (0.0,)), dtype=np.float64)
    ratio = float(vector.get("tail_ratio", 0.0))
    if not coeffs.any():
        return prefix
    if ratio == 0.0:
        return np.append(prefix, coeffs[0])
    length = math.ceil(math.log(TAIL_CUTOFF) / math.log(abs(ratio))) + coeffs.size
    t = np.arange(length)
    return np.concatenate([prefix, coeffs[t % coeffs.size] * ratio ** t.astype(np.float64)])


def columns(vectors: list[np.ndarray], rows: int = 0) -> np.ndarray:
    """Stack 1-d arrays as zero-padded columns of one matrix."""
    rows = max([rows, *(v.size for v in vectors)])
    out = np.zeros((rows, len(vectors)))
    for j, v in enumerate(vectors):
        out[: v.size, j] = v
    return out


class Operator:
    """Dense-coordinate model of an operator dict as `opquant` reads it."""

    def __init__(self, spec: dict):
        self.kind = spec["kind"]
        self.prefix = np.asarray(spec.get("prefix", ()), dtype=np.float64)
        default = (1.0,) if self.kind == "shift" else (0.0,)
        self.periodic = np.asarray(spec.get("periodic", default), dtype=np.float64)
        self.block = np.asarray(spec.get("block", ((0.0,),)), dtype=np.float64)

    def entries(self, n: int) -> np.ndarray:
        """Diagonal values (or shift weights) d_1..d_n."""
        d = self.prefix.size
        out = self.periodic[(np.arange(n) - d) % self.periodic.size]
        out[: min(d, n)] = self.prefix[:n]
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The full image of a finitely supported x, spill included."""
        n = x.size
        if self.kind == "diagonal":
            return self.entries(n) * x
        if self.kind == "shift":
            y = np.zeros(n + 1)
            y[1:] = self.entries(n) * x
            return y
        b = self.block.shape[0]
        if self.kind == "dense":
            head = np.zeros(b)
            head[: min(b, n)] = x[:b]
            return self.block @ head
        if self.kind == "finite_rank_plus":
            y = np.zeros(max(n, b))
            y[:n] = self.entries(n) * x
            head = np.zeros(b)
            head[: min(b, n)] = x[:b]
            y[:b] += self.block @ head
            return y
        raise ValueError(f"unknown operator kind {self.kind!r}")

    def norm(self) -> float:
        """Exact l2 operator norm.

        A finite_rank_plus operator is the direct sum of its block plus
        the leading diagonal and the rest of the diagonal, so its norm is
        the larger of the two parts' norms.
        """
        if self.kind == "dense":
            return float(np.linalg.norm(self.block, 2))
        tail = np.abs(self.periodic)
        if self.kind in ("diagonal", "shift"):
            return float(max(tail.max(), np.abs(self.prefix).max(initial=0.0)))
        b = self.block.shape[0]
        head = self.block + np.diag(self.entries(b))
        rest = max(tail.max(), np.abs(self.prefix[b:]).max(initial=0.0))
        return float(max(np.linalg.norm(head, 2), rest))

    def window_matrix(self, N: int) -> np.ndarray:
        """Columns T e_1..T e_N with every spill row kept."""
        return columns([self.apply(e) for e in np.eye(N)], rows=N)


def window_singular_values(op: Operator, N: int) -> np.ndarray:
    """Descending singular values of the window; sorted moduli for diagonals."""
    if op.kind == "diagonal":
        return np.sort(np.abs(op.entries(N)))[::-1]
    return np.linalg.svd(op.window_matrix(N), compute_uv=False)


def order_statistic(values: np.ndarray, quantity: str, N: int, k: int, K: int) -> float:
    """Courant-Fischer position of a quantity among descending values."""
    index = {"Gamma": N - k, "Tau": k - 1, "Delta": K - k, "Nabla": N - K + k - 1}[quantity]
    return float(values[index])


def window_value(op: Operator, quantity: str, N: int, k: int, K: int) -> float:
    """The window quantity as the `quantities` docstring defines it."""
    return order_statistic(window_singular_values(op, N), quantity, N, k, K)


def restricted_extremes(op: Operator, basis: list[np.ndarray]) -> tuple[float, float]:
    """(minimum modulus, norm) of op on the span of dense basis vectors.

    With X = QR the ratio ||T X c|| / ||X c|| is ||T X R^-1 u|| / ||u||,
    so the extremes are singular values of T X R^-1; no Gram matrix is
    formed, which keeps the reference free of squared conditioning.
    """
    images = [op.apply(v) for v in basis]
    rows = max(v.size for v in basis + images)
    X = columns(basis, rows)
    TX = columns(images, rows)
    _, R = np.linalg.qr(X)
    s = np.linalg.svd(np.linalg.solve(R.T, TX.T).T, compute_uv=False)
    return float(s[-1]), float(s[0])


def l2(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))


def difference(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x - y for dense arrays of possibly different lengths."""
    out = np.zeros(max(x.size, y.size))
    out[: x.size] += x
    out[: y.size] -= y
    return out


def dot(x: np.ndarray, y: np.ndarray) -> float:
    n = min(x.size, y.size)
    return float(np.dot(x[:n], y[:n]))
