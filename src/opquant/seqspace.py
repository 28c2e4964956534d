"""Exact arithmetic for sequence-space vectors with geometric tails.

Vectors live in l^p (p in {1, 2, inf}) and are stored as a finite prefix
plus a periodically modulated geometric tail, so norms, inner products and
dual pairings all reduce to finite sums of geometric series, and one routine,
gram, forms every l^2 Gram matrix.  Every common period passes one cap,
MAX_PERIOD.  Values are immutable; operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateBasis,
    DegenerateFunctionals,
    DimensionMismatch,
    IncompatibleTails,
    UnsupportedTail,
    ZeroVector,
)

# Relative eigenvalue threshold below which a Gram matrix counts as singular.
GRAM_RANK_TOL = 1e-10
# Largest common tail period formed: 8 MiB of float64 per tail array.
MAX_PERIOD = 2**20


@dataclass(frozen=True)
class SpaceConfig:
    """Ambient space l^p; the codomain uses the same exponent."""

    p: float

    def __post_init__(self) -> None:
        if self.p not in (1, 2, math.inf):
            raise ValueError(f"p must be one of 1, 2, inf; got {self.p!r}")

    @property
    def conjugate(self) -> float:
        if self.p == 1:
            return math.inf
        if self.p == math.inf:
            return 1
        return 2


ELL1 = SpaceConfig(1)
ELL2 = SpaceConfig(2)
ELLINF = SpaceConfig(math.inf)


def _as_readonly_array(values: Iterable[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional list of coordinates")
    arr = np.array(arr, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TailVector:
    """Sequence-space element: finite prefix plus geometric tail.

    Coordinates are 1-based.  Index j <= len(prefix) holds prefix[j-1];
    index j > len(prefix) holds tail_coeffs[t % P] * tail_ratio**t with
    t = j - len(prefix) - 1 and P = len(tail_coeffs).

    Canonical form: |tail_ratio| < 1; an all-zero tail is stored as
    tail_coeffs=(0.0,), tail_ratio=0.0 and carries no trailing zeros in
    the prefix.  The constructor canonicalizes automatically.
    """

    prefix: np.ndarray = field(default_factory=lambda: _as_readonly_array(()))
    tail_coeffs: np.ndarray = field(default_factory=lambda: _as_readonly_array((0.0,)))
    tail_ratio: float = 0.0

    def __post_init__(self) -> None:
        prefix = _as_readonly_array(self.prefix)
        coeffs = _as_readonly_array(self.tail_coeffs)
        ratio = float(self.tail_ratio)
        if coeffs.size == 0:
            coeffs = _as_readonly_array((0.0,))
        if not (np.all(np.isfinite(prefix)) and np.all(np.isfinite(coeffs)) and math.isfinite(ratio)):
            raise ValueError("coordinates and ratio must be finite")
        if ratio == 0.0:
            # ratio**0 == 1 makes the first tail coordinate real data;
            # every later one vanishes whatever the coefficients say
            if coeffs[0] != 0.0:
                prefix = _as_readonly_array(np.append(prefix, coeffs[0]))
            coeffs = _as_readonly_array((0.0,))
        if not coeffs.any():
            coeffs = _as_readonly_array((0.0,))
            ratio = 0.0
            prefix = _as_readonly_array(np.trim_zeros(prefix, "b"))
        elif abs(ratio) >= 1.0:
            raise ValueError(f"|tail_ratio| must be < 1 for a nonzero tail; got {ratio}")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail_coeffs", coeffs)
        object.__setattr__(self, "tail_ratio", ratio)

    @property
    def anchor(self) -> int:
        """Index of the last prefix coordinate (tail starts at anchor + 1)."""
        return int(self.prefix.size)

    @property
    def period(self) -> int:
        return int(self.tail_coeffs.size)

    @property
    def has_zero_tail(self) -> bool:
        return self.tail_ratio == 0.0 and self.tail_coeffs[0] == 0.0

    @property
    def is_zero(self) -> bool:
        return self.has_zero_tail and self.prefix.size == 0

    def coordinate(self, j: int) -> float:
        if j < 1:
            raise IndexError("coordinates are 1-based")
        if j <= self.anchor:
            return float(self.prefix[j - 1])
        t = j - self.anchor - 1
        return float(self.tail_coeffs[t % self.period] * self.tail_ratio**t)

    def coords(self, n: int) -> np.ndarray:
        """Materialize coordinates 1..n as a dense array."""
        out = np.zeros(n)
        j = min(self.anchor, n)
        out[:j] = self.prefix[:j]
        if n > self.anchor and not self.has_zero_tail:
            out[self.anchor:] = _tail_row(self, self.anchor, n - self.anchor)
        return out

    def equals(self, other: "TailVector") -> bool:
        """Exact structural equality of canonical forms."""
        return (
            np.array_equal(self.prefix, other.prefix)
            and np.array_equal(self.tail_coeffs, other.tail_coeffs)
            and self.tail_ratio == other.tail_ratio
        )

    def to_dict(self) -> dict:
        return {
            "prefix": self.prefix.tolist(),
            "tail_coeffs": self.tail_coeffs.tolist(),
            "tail_ratio": float(self.tail_ratio),
        }

    @staticmethod
    def from_dict(data: dict) -> "TailVector":
        return TailVector(
            data.get("prefix", ()),
            data.get("tail_coeffs", (0.0,)),
            data.get("tail_ratio", 0.0),
        )


def zero_vector() -> TailVector:
    return TailVector()


def unit_vector(j: int) -> TailVector:
    """The coordinate vector e_j (1-based)."""
    if j < 1:
        raise IndexError("coordinates are 1-based")
    prefix = np.zeros(j)
    prefix[j - 1] = 1.0
    return TailVector(prefix)


def canonical(v: TailVector) -> TailVector:
    """Rebuild v through the canonicalizing constructor."""
    return TailVector(v.prefix, v.tail_coeffs, v.tail_ratio)


def _common_period(*periods: int) -> int:
    """The least common multiple of tail periods; IncompatibleTails above MAX_PERIOD."""
    if (period := math.lcm(*periods)) > MAX_PERIOD:
        raise IncompatibleTails(
            f"tail periods {sorted(set(periods))} need a common period of {period}, above the cap of {MAX_PERIOD}"
        )
    return period


def _tail_row(v: TailVector, anchor: int, length: int) -> np.ndarray:
    """Coordinates anchor + 1 .. anchor + length of v, for anchor >= v.anchor: c_t r^t."""
    if v.has_zero_tail:
        return np.zeros(length)
    t = np.arange(anchor - v.anchor, anchor - v.anchor + length)
    # float exponents route through the same libm pow as coordinate()
    return v.tail_coeffs[t % v.period] * np.float64(v.tail_ratio) ** t.astype(np.float64)


def _tail_denominator(ru: float, rv: float, period: int) -> float:
    """1 - (ru rv)^period: two tails pair as the dot of their first common periods over it."""
    power = (ru * rv) ** period
    # when 1 - rho^P cancels, rho = ru rv is rounded: take rho^P from the exact ratios' logs
    return -math.expm1(period * (math.log(abs(ru)) + math.log(abs(rv)))) if power > 0.5 else 1.0 - power


def _realigned_tail(v: TailVector, anchor: int, period: int) -> np.ndarray:
    """Tail coefficients of v re-anchored at `anchor` with period `period`.

    Requires anchor >= v.anchor and period a multiple of v.period.
    """
    if v.has_zero_tail:
        return np.zeros(period)
    d = anchor - v.anchor
    s = np.arange(period)
    return v.tail_coeffs[(s + d) % v.period] * v.tail_ratio**d


def linear_combine(coeffs: Sequence[float], vectors: Sequence[TailVector]) -> TailVector:
    """Exact linear combination sum(coeffs[i] * vectors[i]) in canonical form.

    Nonzero tails must share one ratio; zero-tail vectors mix freely.
    """
    if len(coeffs) != len(vectors) or not vectors:
        raise DimensionMismatch(
            f"need equal nonzero lengths, got {len(coeffs)} coefficients and {len(vectors)} vectors"
        )
    ratios = {v.tail_ratio for v in vectors if not v.has_zero_tail}
    if len(ratios) > 1:
        raise IncompatibleTails(f"tails with distinct ratios {sorted(ratios)} cannot be combined")
    anchor = max(v.anchor for v in vectors)
    prefix = np.zeros(anchor)
    for a, v in zip(coeffs, vectors):
        if a != 0.0:
            prefix += float(a) * v.coords(anchor)
    if not ratios:
        return TailVector(prefix)
    ratio = ratios.pop()
    period = _common_period(*(v.period for v in vectors if not v.has_zero_tail))
    tail = np.zeros(period)
    for a, v in zip(coeffs, vectors):
        if a != 0.0 and not v.has_zero_tail:
            tail += float(a) * _realigned_tail(v, anchor, period)
    return TailVector(prefix, tail, ratio)


def scaled(v: TailVector, alpha: float) -> TailVector:
    return linear_combine([alpha], [v])


def inner_product(u: TailVector, v: TailVector) -> float:
    """sum_j u_j v_j in closed form: the head dot plus the tails' first common
    period, paired as coords reads it, over 1 - (r_u r_v)^P."""
    anchor = max(u.anchor, v.anchor)
    total = float(np.dot(u.coords(anchor), v.coords(anchor))) if anchor else 0.0
    if u.has_zero_tail or v.has_zero_tail:
        return total
    period = _common_period(u.period, v.period)
    tail = float(np.dot(_tail_row(u, anchor, period), _tail_row(v, anchor, period)))
    return total + tail / _tail_denominator(u.tail_ratio, v.tail_ratio, period)


def norm(v: TailVector, space: SpaceConfig = ELL2) -> float:
    """Exact l^p norm from the closed-form prefix and tail sums.

    The l^2 norm is inner_product(v, v) taken on the prefix and first tail
    period scaled by the power of two of their largest entry, so it keeps
    inner_product's bytes in the normal range and a nonzero vector whose
    coordinates lie under about 1e-154 does not read as 0.
    """
    if space.p == 2:
        x = np.concatenate((v.prefix, _tail_row(v, v.anchor, v.period)))
        k = -math.frexp(float(np.abs(x).max()))[1]
        x = np.ldexp(x, k)
        head, tail = x[:v.anchor], x[v.anchor:]
        total = float(np.dot(head, head)) + float(np.dot(tail, tail)) / _tail_denominator(
            v.tail_ratio, v.tail_ratio, v.period
        )
        return math.ldexp(math.sqrt(total), -k)
    if space.p == 1:
        total = float(np.sum(np.abs(v.prefix)))
        if not v.has_zero_tail:
            r = abs(v.tail_ratio)
            powers = r ** np.arange(v.period)
            total += float(np.dot(np.abs(v.tail_coeffs), powers)) / _tail_denominator(r, 1.0, v.period)
        return total
    # p = inf: tail terms |c_s| |r|^(s + m*P) are largest at m = 0
    best = float(np.max(np.abs(v.prefix))) if v.prefix.size else 0.0
    if not v.has_zero_tail:
        r = abs(v.tail_ratio)
        best = max(best, float(np.max(np.abs(v.tail_coeffs) * r ** np.arange(v.period))))
    return best


@dataclass(frozen=True, eq=False)
class LinearFunctional:
    """Bounded functional on l^p given by a representer in the dual l^q."""

    representer: TailVector
    dual_norm: float

    def to_dict(self) -> dict:
        return {"representer": self.representer.to_dict(), "dual_norm": float(self.dual_norm)}


def functional_from_representer(representer: TailVector, space: SpaceConfig) -> LinearFunctional:
    """Wrap a dual-space representer, caching its dual (l^q) norm."""
    q = SpaceConfig(space.conjugate)
    return LinearFunctional(representer, norm(representer, q))


def pairing(f: LinearFunctional, v: TailVector) -> float:
    """Dual pairing <f, v> = sum_j f_j v_j."""
    return inner_product(f.representer, v)


def norming_functional(v: TailVector, space: SpaceConfig) -> LinearFunctional:
    """A functional f with dual norm 1 and f(v) = ||v||.

    For p = 2 the representer is v normalized.  For p in {1, inf} the
    representer is the sign pattern (p = 1) or a signed coordinate vector
    at the first maximal coordinate (p = inf); both need v finitely
    supported since sign patterns of tails leave the geometric class.
    """
    value = norm(v, space)
    if value == 0.0:
        raise ZeroVector("cannot norm the zero vector")
    if space.p == 2:
        return functional_from_representer(scaled(v, 1.0 / value), space)
    if not v.has_zero_tail:
        raise UnsupportedTail(f"norming for p={space.p} needs a finitely supported vector")
    if space.p == 1:
        return functional_from_representer(TailVector(np.sign(v.prefix)), space)
    j = int(np.argmax(np.abs(v.prefix)))
    rep = np.zeros(j + 1)
    rep[j] = math.copysign(1.0, v.prefix[j])
    return functional_from_representer(TailVector(rep), space)


def _full_rank(g: np.ndarray) -> np.ndarray:
    """Where a nonempty Gram matrix, or each one of a stack, passes GRAM_RANK_TOL.

    The rule: the largest eigenvalue is positive and the smallest lies
    above GRAM_RANK_TOL times the largest.
    """
    eigs = np.linalg.eigvalsh(g)
    return (eigs[..., -1] > 0.0) & (eigs[..., 0] > GRAM_RANK_TOL * eigs[..., -1])


def _check_positive_definite(g: np.ndarray, error: type, what: str) -> None:
    """Raise error unless g, or every matrix of a stack of them, has full rank."""
    if g.shape[-1] == 0 or not np.all(_full_rank(g)):
        raise error(f"{what}: Gram spectrum {np.linalg.eigvalsh(g)} fails the rank tolerance {GRAM_RANK_TOL}")


def _representer_gram(
    functionals: Sequence[LinearFunctional], what: str
) -> tuple[list[TailVector], np.ndarray]:
    """The representers of nonempty functionals and their Gram matrix, checked for rank."""
    reps = [f.representer for f in functionals]
    g = gram(reps)
    _check_positive_definite(g, DegenerateFunctionals, what)
    return reps, g


def project_into_kernels(
    v: TailVector,
    functionals: Sequence[LinearFunctional],
    space: SpaceConfig = ELL2,
) -> TailVector:
    """Orthogonal projection of v onto the intersection of the kernels.

    Only defined for p = 2, where kernel projection is orthogonal
    projection off the span of the representers.
    """
    if space.p != 2:
        raise ValueError("kernel projection requires p = 2")
    if not functionals:
        return v
    return _project_off(v, *_representer_gram(functionals, "functional representers"))


def _project_off(v: TailVector, reps: Sequence[TailVector], g: np.ndarray) -> TailVector:
    """v minus its orthogonal projection onto span(reps), whose Gram matrix is g."""
    result = v
    # done once every |<r_i, result>| is within 1e-15 ||v|| ||r_i||, a floor
    # relative to both scales; one refinement pass guards against mild
    # ill-conditioning
    floor = 1e-15 * norm(v) * np.sqrt(np.diag(g))
    for _ in range(2):
        rhs = np.array([inner_product(r, result) for r in reps])
        if np.all(np.abs(rhs) <= floor):
            break
        sol = np.linalg.solve(g, rhs)
        result = linear_combine([1.0, *(-sol)], [result, *reps])
    return result


def truncate(v: TailVector, J: int, space: SpaceConfig = ELL2) -> tuple[TailVector, float]:
    """Keep coordinates 1..J; return the head and the exact norm of the rest."""
    if J < v.anchor:
        raise ValueError(f"truncation index {J} must be >= prefix length {v.anchor}")
    return TailVector(v.coords(J)), _remainder_norm(v, J, space)


def _remainder_norm(v: TailVector, J: int, space: SpaceConfig) -> float:
    """Exact norm of the coordinates of v past J, for J >= v.anchor."""
    return norm(TailVector((), _realigned_tail(v, J, v.period), v.tail_ratio), space)


def gram(vectors: Sequence[TailVector], J: int = 0) -> np.ndarray:
    """l^2 Gram matrix of the coordinates past J >= 0 of a family of tail vectors.

    Coordinates J + 1 .. the largest anchor A are read densely.  Past
    max(A, J) each vector's first common tail period is one row of w, read
    as coords reads it, and entry (i, j) adds w_i . w_j / (1 - (r_i r_j)^P),
    one denominator per pair of ratios, so a family that mixes ratios is
    paired the same way at every J.
    """
    n = len(vectors)
    top = max((v.anchor for v in vectors), default=0)
    head = np.array([v.coords(top)[J:] for v in vectors]).reshape(n, max(top - J, 0))  # coordinates J + 1 .. top
    g = head @ head.T
    if periods := [v.period for v in vectors if not v.has_zero_tail]:
        period = _common_period(*periods)
        w = np.array([_tail_row(v, max(top, J), period) for v in vectors])
        ratios = sorted({v.tail_ratio for v in vectors})
        pairs = np.array([[_tail_denominator(a, b, period) for b in ratios] for a in ratios])
        index = [ratios.index(v.tail_ratio) for v in vectors]
        g += w @ w.T / pairs.take(index, 0).take(index, 1)
    return g


@dataclass(frozen=True, eq=False)
class Subspace:
    """Finite ordered basis spanning a window into the ambient space."""

    basis: tuple[TailVector, ...]
    ambient: SpaceConfig = ELL2

    def __post_init__(self) -> None:
        basis = tuple(self.basis)
        if not basis:
            raise DegenerateBasis("a subspace needs a nonempty basis")
        object.__setattr__(self, "basis", basis)
        _check_positive_definite(gram(basis), DegenerateBasis, "subspace basis")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def to_dict(self) -> dict:
        return {"basis": [b.to_dict() for b in self.basis], "p": _p_tag(self.ambient)}


def _p_tag(space: SpaceConfig) -> float | str:
    return "inf" if space.p == math.inf else int(space.p)


def space_from_tag(tag) -> SpaceConfig:
    if tag in ("inf", "Inf", "INF", math.inf):
        return ELLINF
    return SpaceConfig(int(tag))
