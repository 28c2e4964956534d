"""Quantitative replay of the density-invariance construction.

Given a subspace M (or the ambient space), this module builds a
biorthogonal system m_n, x'_n, approximates each m_n by a finitely
supported z_n inside the kernel intersection of the earlier functionals
under a geometric error budget, and verifies that the correspondence
A : z_i -> m_i is a near isometry whose restricted norms and moduli
transfer between span{z_n} and span{m_n} with (1 +/- eps) distortion.
The four invariance experiments instantiate the constant c from a
measured quantity on a witness subspace and check the concluding bound
on the constructed span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from .errors import (
    BudgetInfeasible,
    DegenerateBasis,
    DegenerateFunctionals,
    ExhaustedSubspace,
    IncompatibleTails,
    InvalidWitness,
    OpquantError,
    ZeroVector,
)
from .operators import Operator, _restricted_eigs, apply, operator_norm, restricted_extremes
from .seqspace import (
    ELL2,
    LinearFunctional,
    SpaceConfig,
    Subspace,
    TailVector,
    _check_positive_definite,
    gram,
    linear_combine,
    norm,
    norming_functional,
    pairing,
    project_into_kernels,
    scaled,
    truncate,
    unit_vector,
)

BIORTHOGONAL_TOL = 1e-10
DEGENERATE_PROJECTION = 1e-8
INEQUALITY_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class BiorthogonalSystem:
    """Vectors m_n and functionals x'_n with x'_i m_n = 0 for i < n.

    Every m_n has unit norm; every x'_n has dual norm 1 and pairs to 1
    with its own m_n.  source records the subspace the vectors were
    drawn from (None for the ambient space).  gram_m is the l^2 Gram
    matrix of the m_n, so ||sum a_i m_i||_2^2 = a^T gram_m a.
    """

    vectors: tuple[TailVector, ...]
    functionals: tuple[LinearFunctional, ...]
    source: Optional[Subspace]
    space: SpaceConfig
    gram_m: np.ndarray

    def __len__(self) -> int:
        return len(self.vectors)

    def kernel_stack(self, n: int) -> tuple[LinearFunctional, ...]:
        """The functionals x'_1..x'_{n-1} whose kernels constrain step n."""
        return self.functionals[: n - 1]


def _validate_system(system: BiorthogonalSystem) -> None:
    for n, (m, f) in enumerate(zip(system.vectors, system.functionals), start=1):
        if abs(norm(m, system.space) - 1.0) > BIORTHOGONAL_TOL:
            raise OpquantError(f"vector {n} is not normalized")
        if abs(f.dual_norm - 1.0) > BIORTHOGONAL_TOL:
            raise OpquantError(f"functional {n} is not normalized")
        if abs(pairing(f, m) - 1.0) > BIORTHOGONAL_TOL:
            raise OpquantError(f"pairing {n} is not 1")
        for i in range(n - 1):
            if abs(pairing(system.functionals[i], m)) > BIORTHOGONAL_TOL:
                raise OpquantError(f"functional {i + 1} does not annihilate vector {n}")
    _check_positive_definite(system.gram_m, DegenerateBasis, "biorthogonal vectors")


def _ambient_pool(count: int):
    return [unit_vector(j) for j in range(1, count + 1)]


def _next_ell2_vector(
    candidates: list[TailVector],
    functionals: Sequence[LinearFunctional],
    rng: np.random.Generator,
    mix_pool: Sequence[TailVector],
) -> TailVector:
    """First candidate whose kernel projection survives, else seeded mixes."""
    for idx, candidate in enumerate(candidates):
        w = project_into_kernels(candidate, functionals) if functionals else candidate
        if norm(w) >= DEGENERATE_PROJECTION:
            candidates.pop(idx)
            return w
    for _ in range(100):
        coeffs = rng.standard_normal(len(mix_pool))
        w = linear_combine(coeffs, mix_pool)
        if functionals:
            w = project_into_kernels(w, functionals)
        if norm(w) >= DEGENERATE_PROJECTION:
            return w
    raise ExhaustedSubspace("no nonzero kernel-intersection vector found in the window")


def _next_sign_dual_vector(
    basis: Sequence[TailVector],
    used: int,
    functionals: Sequence[LinearFunctional],
) -> TailVector:
    """Kernel-intersection member as a combination of finite basis vectors.

    Sign-pattern functionals make the constraints a small linear system
    on the coefficients; the null space supplies the next vector.
    """
    k = len(basis)
    if not functionals:
        return basis[used]
    rows = np.array([[pairing(f, b) for b in basis] for f in functionals])
    null = scipy.linalg.null_space(rows)
    if null.shape[1] == 0:
        raise ExhaustedSubspace("kernel intersection is trivial in the window")
    # prefer the null direction closest to the next unused basis vector
    target = np.zeros(k)
    target[min(used, k - 1)] = 1.0
    coeffs = null @ (null.T @ target)
    if np.linalg.norm(coeffs) < DEGENERATE_PROJECTION:
        coeffs = null[:, 0]
    return linear_combine(coeffs, basis)


def build_biorthogonal(
    M: Optional[Subspace],
    count: int,
    space: SpaceConfig = ELL2,
    seed: int = 0,
) -> BiorthogonalSystem:
    """Construct count biorthogonal vector/functional pairs inside M.

    M = None draws from the ambient coordinate basis.  For p = 2 each
    new vector is the kernel projection of the next unused basis vector
    (seeded random mixes as fallback); for p in {1, inf} the basis must
    be finitely supported and the kernel constraints are solved in
    coefficient space.
    """
    if count < 1:
        raise ExhaustedSubspace("count must be at least 1")
    if M is not None and count > M.dim:
        raise ExhaustedSubspace(f"window dimension {M.dim} < requested count {count}")
    basis = list(M.basis) if M is not None else _ambient_pool(count)
    if space.p != 2 and any(not b.has_zero_tail for b in basis):
        raise OpquantError(f"p={space.p} construction needs finitely supported basis vectors")
    rng = np.random.default_rng(seed)
    vectors: list[TailVector] = []
    functionals: list[LinearFunctional] = []
    candidates = list(basis)
    for n in range(1, count + 1):
        if space.p == 2:
            w = _next_ell2_vector(candidates, functionals, rng, basis)
        else:
            w = _next_sign_dual_vector(basis, n - 1, functionals)
        nw = norm(w, space)
        if nw < DEGENERATE_PROJECTION:
            raise ExhaustedSubspace("kernel intersection vector degenerated")
        m = scaled(w, 1.0 / nw)
        vectors.append(m)
        functionals.append(norming_functional(m, space))
    system = BiorthogonalSystem(tuple(vectors), tuple(functionals), M, space, gram(vectors))
    _validate_system(system)
    return system


def _form_norm(g: np.ndarray, a: np.ndarray) -> float:
    """||sum a_i v_i||_2 from the Gram matrix g of the v_i."""
    n = a.size
    return math.sqrt(max(0.0, float(a @ g[:n, :n] @ a)))


def check_coefficient_bound(
    system: BiorthogonalSystem, w_coeffs: Sequence[float]
) -> tuple[bool, list[float]]:
    """Check |a_i| <= 2^(i-1) ||sum a_i m_i|| for every coefficient.

    For p = 2 the norm is the quadratic form on system.gram_m; for
    p in {1, inf} the combination is built and measured exactly.
    """
    coeffs = [float(a) for a in w_coeffs]
    if len(coeffs) > len(system):
        raise ValueError(f"{len(coeffs)} coefficients for a system of {len(system)}")
    if not coeffs or all(a == 0.0 for a in coeffs):
        return True, [0.0 for _ in coeffs]
    if system.space.p == 2:
        nw = _form_norm(system.gram_m, np.array(coeffs))
    else:
        nw = norm(linear_combine(coeffs, system.vectors[: len(coeffs)]), system.space)
    margins = [2.0 ** (i - 1) * nw - abs(a) for i, a in enumerate(coeffs, start=1)]
    return all(m >= -INEQUALITY_SLACK for m in margins), margins


def budget_bound(n: int, epsilon: float, c: float, T_norm: float) -> float:
    """The step-n distance budget 2^(1-2n) * epsilon * min{1, c/||T||}."""
    factor = 1.0 if T_norm == 0.0 else min(1.0, c / T_norm)
    return 2.0 ** (1 - 2 * n) * epsilon * factor


@dataclass(frozen=True, eq=False)
class CoreApproximation:
    """Finitely supported z_n near m_n, inside the kernel stack.

    The correspondence z_i -> m_i extends linearly to the bijection
    A : span{z_n} -> span{m_n}; budgets holds the realized distances
    ||z_n - m_n||, each within its geometric bound.

    The l^2 Gram matrices built here make every check on a combination
    sum a_i z_i a quadratic form a^T G a: gram_z of the z_n, gram_defects
    of the defects d_n = z_n - m_n, and gram_tz and gram_tm of the images
    T z_n and T m_n under operator, the T the approximants were built
    with (the m_n themselves have system.gram_m).  gram_defects comes
    from the exact differences: expanding ||z - Az||^2 through gram_z and
    gram_m would lose the 1e-9 inequality slack to cancellation.
    """

    system: BiorthogonalSystem
    z: tuple[TailVector, ...]
    budgets: tuple[float, ...]
    epsilon: float
    c: float
    T_norm: float
    operator: Operator
    gram_z: np.ndarray
    gram_defects: np.ndarray
    gram_tz: np.ndarray
    gram_tm: np.ndarray

    @property
    def targets(self) -> tuple[TailVector, ...]:
        """Images A z_i = m_i."""
        return self.system.vectors

    def combine(self, coeffs: Sequence[float]) -> tuple[TailVector, TailVector]:
        """(z, Az) for z = sum coeffs[i] z_i, as exact tail vectors."""
        n = len(coeffs)
        if n > len(self.z):
            raise ValueError(f"{n} coefficients for {len(self.z)} vectors")
        z = linear_combine(coeffs, self.z[:n])
        az = linear_combine(coeffs, self.targets[:n])
        return z, az


def _combination(ca: CoreApproximation, coeffs: Sequence[float]) -> np.ndarray:
    a = np.array(coeffs, dtype=np.float64)
    if a.size > len(ca.z):
        raise ValueError(f"{a.size} coefficients for {len(ca.z)} vectors")
    return a


def _image_gram(T: Operator, vectors: Sequence[TailVector]) -> np.ndarray:
    return gram([apply(T, v) for v in vectors])


def _minimal_truncation_index(v: TailVector, target: float, space: SpaceConfig) -> int:
    """Smallest J with the exact discarded-tail norm of v at most target."""
    lo = v.anchor
    if truncate(v, lo, space)[1] <= target:
        return lo
    hi = lo + 1
    for _ in range(4000):
        if truncate(v, hi, space)[1] <= target:
            break
        hi *= 2
    else:
        raise BudgetInfeasible(f"no truncation of {v!r} reaches {target}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if truncate(v, mid, space)[1] <= target:
            hi = mid
        else:
            lo = mid
    return hi


def _window_kernel_projection(
    head: np.ndarray, functionals: Sequence[LinearFunctional]
) -> Optional[np.ndarray]:
    """Project a window vector against the representers' window heads.

    A finitely supported vector pairs with a functional only through the
    representer's leading coordinates, so Euclidean projection inside
    the window gives exact kernel membership.  Returns None when the
    window Gram degenerates (caller should widen the window).
    """
    if not functionals:
        return head
    J = head.size
    g = np.array([f.representer.coords(J) for f in functionals])
    gg = g @ g.T
    eigs = np.linalg.eigvalsh(gg)
    if eigs[-1] <= 0.0 or eigs[0] <= 1e-12 * eigs[-1]:
        return None
    alpha = np.linalg.solve(gg, g @ head)
    return head - g.T @ alpha


def build_core_approximants(
    system: BiorthogonalSystem, T: Operator, epsilon: float, c: float
) -> CoreApproximation:
    """Approximate each m_n by z_n in the core within the step budget.

    Half of each budget buys the truncation index, the rest covers the
    kernel-projection correction; the realized distance is measured
    exactly and the window doubles until it fits.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon}")
    if c <= 0.0:
        raise ValueError(f"c must be positive, got {c}")
    if system.space.p != 2:
        raise ValueError("core approximants require p = 2")
    T_norm = operator_norm(T, system.space)
    zs: list[TailVector] = []
    realized: list[float] = []
    for n, m in enumerate(system.vectors, start=1):
        stack = system.kernel_stack(n)
        if m.has_zero_tail:
            zs.append(m)
            realized.append(0.0)
            continue
        bound = budget_bound(n, epsilon, c, T_norm)
        J = max(_minimal_truncation_index(m, bound / 2.0, system.space), len(stack) + 1)
        z = None
        for _ in range(60):
            projected = _window_kernel_projection(m.coords(J), stack)
            if projected is not None:
                candidate = TailVector(projected)
                distance = norm(linear_combine([1.0, -1.0], [candidate, m]), system.space)
                if distance <= bound:
                    z, gap = candidate, distance
                    break
            J *= 2
        if z is None:
            raise BudgetInfeasible(f"step {n} could not meet budget {bound}")
        zs.append(z)
        realized.append(gap)
    defects = [linear_combine([1.0, -1.0], [z, m]) for z, m in zip(zs, system.vectors)]
    ca = CoreApproximation(
        system,
        tuple(zs),
        tuple(realized),
        epsilon,
        c,
        T_norm,
        T,
        gram(zs),
        gram(defects),
        _image_gram(T, zs),
        _image_gram(T, system.vectors),
    )
    for n, (gap, z) in enumerate(zip(ca.budgets, ca.z), start=1):
        if gap > budget_bound(n, epsilon, c, T_norm):
            raise BudgetInfeasible(f"realized distance {gap} exceeds the step-{n} budget")
        for f in system.kernel_stack(n):
            if abs(pairing(f, z)) > BIORTHOGONAL_TOL:
                raise BudgetInfeasible(f"approximant {n} escapes the kernel intersection")
    _check_positive_definite(ca.gram_z, DegenerateBasis, "core approximants")
    return ca


def verify_near_isometry(
    ca: CoreApproximation, z_coeffs: Sequence[float]
) -> tuple[bool, bool, dict]:
    """Check the defect and distortion bounds for one combination.

    defect: ||z - Az|| stays below eps * min{1, c/||T||} * ||Az||;
    distortion: (1-eps) ||Az|| <= ||z|| <= (1+eps) ||Az||.  The three
    norms are quadratic forms on ca.gram_defects, ca.gram_z and
    ca.system.gram_m.
    """
    a = _combination(ca, z_coeffs)
    gap = _form_norm(ca.gram_defects, a)
    z_norm = _form_norm(ca.gram_z, a)
    az_norm = _form_norm(ca.system.gram_m, a)
    factor = 1.0 if ca.T_norm == 0.0 else min(1.0, ca.c / ca.T_norm)
    allowance = ca.epsilon * factor * az_norm
    defect_holds = gap <= allowance + INEQUALITY_SLACK
    lower = (1.0 - ca.epsilon) * az_norm
    upper = (1.0 + ca.epsilon) * az_norm
    distortion_holds = lower <= z_norm + INEQUALITY_SLACK and z_norm <= upper + INEQUALITY_SLACK
    measured = {
        "gap": gap,
        "allowance": allowance,
        "z_norm": z_norm,
        "az_norm": az_norm,
        "lower": lower,
        "upper": upper,
    }
    return defect_holds, distortion_holds, measured


def verify_transfer_bounds(
    ca: CoreApproximation, T: Operator, z_coeffs: Sequence[float]
) -> tuple[bool, bool, dict]:
    """Check that ||Tz||/||z|| brackets against the image-side ratio.

    lower: above (ratio(Az) - eps c)/(1+eps); upper: below
    (ratio(Az) + eps c)/(1-eps).  Norms are quadratic forms on ca.gram_z
    and ca.system.gram_m, and, when T is ca.operator, on ca.gram_tz and
    ca.gram_tm; for any other T the image Gram matrices are built here.
    """
    a = _combination(ca, z_coeffs)
    z_norm = _form_norm(ca.gram_z, a)
    az_norm = _form_norm(ca.system.gram_m, a)
    if z_norm == 0.0 or az_norm == 0.0:
        raise ZeroVector("transfer ratios need a nonzero combination")
    if T is ca.operator:
        gram_tz, gram_tm = ca.gram_tz, ca.gram_tm
    else:
        gram_tz, gram_tm = _image_gram(T, ca.z[: a.size]), _image_gram(T, ca.targets[: a.size])
    z_ratio = _form_norm(gram_tz, a) / z_norm
    az_ratio = _form_norm(gram_tm, a) / az_norm
    lower_threshold = (az_ratio - ca.epsilon * ca.c) / (1.0 + ca.epsilon)
    upper_threshold = (az_ratio + ca.epsilon * ca.c) / (1.0 - ca.epsilon)
    lower_holds = z_ratio > lower_threshold - INEQUALITY_SLACK
    upper_holds = z_ratio < upper_threshold + INEQUALITY_SLACK
    measured = {
        "z_ratio": z_ratio,
        "az_ratio": az_ratio,
        "lower_threshold": lower_threshold,
        "upper_threshold": upper_threshold,
    }
    return lower_holds, upper_holds, measured


def check_dense_intersection(
    functionals: Sequence[LinearFunctional],
    samples: int = 100,
    tol: float = 1e-8,
    seed: int = 0,
) -> dict:
    """Empirical density of the core inside a kernel intersection.

    Random vectors are projected into the intersection, then matched by
    finitely supported members built from truncation plus exact window
    projection, doubling the window until within tol.
    """
    if functionals:
        _check_positive_definite(
            gram([f.representer for f in functionals]), DegenerateFunctionals, "lemma functionals"
        )
    ratios = sorted({f.representer.tail_ratio for f in functionals if not f.representer.has_zero_tail})
    if len(ratios) > 1:
        raise IncompatibleTails("lemma functionals must share one tail ratio for exact projection")
    rng = np.random.default_rng(seed)
    max_distance = 0.0
    max_index = 0
    base = max([f.representer.anchor for f in functionals], default=0)
    for _ in range(samples):
        anchor = int(rng.integers(0, 5))
        prefix = rng.standard_normal(anchor)
        if ratios:
            ratio = ratios[int(rng.integers(0, len(ratios)))]
        else:
            ratio = float(rng.uniform(-0.9, 0.9))
        coeffs = rng.standard_normal(int(rng.integers(1, 4)))
        m = TailVector(prefix, coeffs, ratio)
        if functionals:
            m = project_into_kernels(m, functionals)
        if norm(m) == 0.0:
            continue
        J = max(m.anchor, base, 8)
        distance = math.inf
        for _ in range(60):
            projected = _window_kernel_projection(m.coords(J), functionals)
            if projected is not None:
                e = TailVector(projected)
                distance = norm(linear_combine([1.0, -1.0], [e, m]))
                if distance <= tol:
                    break
            J *= 2
        max_distance = max(max_distance, distance)
        max_index = max(max_index, J)
    return {
        "samples": int(samples),
        "functional_count": len(functionals),
        "tolerance": float(tol),
        "max_distance": float(max_distance),
        "max_window": int(max_index),
        "passed": bool(max_distance <= tol),
    }


PARTS = ("Gamma", "Tau", "Delta", "Nabla")


@dataclass(frozen=True, eq=False)
class CaseReport:
    """Outcome of one invariance experiment."""

    part: str
    c: float
    delta: float
    epsilon: float
    witness_M: Subspace
    constructed_L: Subspace
    measured: dict
    passed: bool

    def to_dict(self) -> dict:
        return {
            "part": self.part,
            "c": float(self.c),
            "delta": float(self.delta),
            "epsilon": float(self.epsilon),
            "witness_M": self.witness_M.to_dict(),
            "constructed_L": self.constructed_L.to_dict(),
            "measured": {
                k: (int(v) if isinstance(v, (int, np.integer)) else float(v))
                for k, v in self.measured.items()
            },
            "passed": bool(self.passed),
        }


def sub_basis_coefficients(dim: int, samples: int, seed: int) -> list[np.ndarray]:
    """Coordinate-pattern selections plus seeded random mixings.

    Each entry is a dim x r coefficient matrix; columns define a
    sub-basis of any dim-length basis.
    """
    out = []
    for r in range(1, dim + 1):
        for pattern in combinations(range(dim), r):
            m = np.zeros((dim, r))
            for col, row in enumerate(pattern):
                m[row, col] = 1.0
            out.append(m)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        r = int(rng.integers(1, dim + 1))
        out.append(rng.standard_normal((dim, r)))
    return out


def _sub_basis_eigs(gram_t: np.ndarray, gram_v: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """_restricted_eigs on the span of the combinations sum_i coeffs[i, j] v_i.

    gram_v is the Gram matrix of the v_i and gram_t that of their images.
    """
    return _restricted_eigs(coeffs.T @ gram_t @ coeffs, coeffs.T @ gram_v @ coeffs)


def run_invariance_case(
    T: Operator,
    part: str,
    witness_M: Subspace,
    epsilon: float,
    delta: float,
    seed: int = 0,
    sub_basis_samples: int = 100,
) -> CaseReport:
    """One proof-part experiment: derive c, build L, check the bound.

    Gamma: c sits just above the witness restricted norm; the
    constructed span must stay below (1+eps)/(1-eps) c.  Tau: dual with
    the minimal modulus and (1-eps)/(1+eps).  Delta and Nabla quantify
    over sub-bases V: whenever the image side satisfies its strict
    inequality against c, the preimage satisfies the transferred one.
    """
    if part not in PARTS:
        raise ValueError(f"unknown part {part!r}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon}")
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if all(b.has_zero_tail for b in witness_M.basis):
        raise InvalidWitness("witness basis lies inside the core; nothing to approximate")
    rmin, rnorm = restricted_extremes(T, witness_M)
    if part == "Gamma":
        witness_quantity, c = rnorm, rnorm * (1.0 + delta)
    elif part == "Tau":
        witness_quantity, c = rmin, rmin * (1.0 - delta)
    elif part == "Delta":
        witness_quantity, c = rnorm, rnorm * (1.0 - delta)
    else:
        witness_quantity, c = rmin, rmin * (1.0 + delta)
    if c <= 0.0:
        raise InvalidWitness(f"derived constant c = {c} is not positive")
    system = build_biorthogonal(witness_M, witness_M.dim, witness_M.ambient, seed)
    ca = build_core_approximants(system, T, epsilon, c)
    L = Subspace(ca.z, witness_M.ambient)
    measured: dict = {"witness_quantity": witness_quantity, "c": c}
    if part == "Gamma":
        threshold = (1.0 + epsilon) / (1.0 - epsilon) * c
        value = math.sqrt(float(_restricted_eigs(ca.gram_tz, ca.gram_z)[-1]))
        measured.update({"restricted_norm_L": value, "threshold": threshold})
        passed = value <= threshold + INEQUALITY_SLACK
    elif part == "Tau":
        threshold = (1.0 - epsilon) / (1.0 + epsilon) * c
        value = math.sqrt(float(_restricted_eigs(ca.gram_tz, ca.gram_z)[0]))
        measured.update({"restricted_min_modulus_L": value, "threshold": threshold})
        passed = value >= threshold - INEQUALITY_SLACK
    else:
        tested = triggered = 0
        worst = math.inf
        if part == "Delta":
            threshold = (1.0 - epsilon) / (1.0 + epsilon) * c
        else:
            threshold = (1.0 + epsilon) / (1.0 - epsilon) * c
        # V = span{Z C} for Z = (z_n) and AV = span{M C} for M = (m_n)
        for coeffs in sub_basis_coefficients(len(ca.z), sub_basis_samples, seed):
            try:
                v_eigs = _sub_basis_eigs(ca.gram_tz, ca.gram_z, coeffs)
                av_eigs = _sub_basis_eigs(ca.gram_tm, ca.system.gram_m, coeffs)
            except DegenerateBasis:
                continue
            tested += 1
            if part == "Delta":
                if math.sqrt(float(av_eigs[-1])) > c:
                    triggered += 1
                    worst = min(worst, math.sqrt(float(v_eigs[-1])) - threshold)
            elif math.sqrt(float(av_eigs[0])) < c:
                triggered += 1
                worst = min(worst, threshold - math.sqrt(float(v_eigs[0])))
        measured.update(
            {
                "sub_bases_tested": tested,
                "sub_bases_triggered": triggered,
                "threshold": threshold,
                "worst_margin": worst if triggered else 0.0,
            }
        )
        passed = triggered == 0 or worst >= -INEQUALITY_SLACK
    return CaseReport(part, c, delta, epsilon, witness_M, L, measured, passed)
