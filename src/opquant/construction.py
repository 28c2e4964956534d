"""Quantitative replay of the density-invariance construction.

Given a subspace M (or the ambient space), this module builds a
biorthogonal system m_n, x'_n, approximates each m_n by a finitely
supported z_n in the kernels of the earlier functionals (one closed-form
step, shared with the lemma check) under a geometric error budget, and
certifies from the Gram matrices, over every combination at once, that
A : z_i -> m_i is a near isometry whose restricted norms and moduli
transfer between span{z_n} and span{m_n} with (1 +/- eps) distortion;
the verify_* checks test one combination.  The four invariance
experiments instantiate the constant c from a measured quantity on a
witness subspace and check the concluding bound on the constructed span,
for Delta and Nabla on each of its sub-bases at once through the same
certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    BudgetInfeasible,
    DegenerateBasis,
    ExhaustedSubspace,
    InvalidWitness,
    OpquantError,
    ZeroVector,
)
from .operators import Operator, _restricted_eigs, apply, operator_norm, restricted_extremes
from .quantities import _SHAPES
from .seqspace import (
    ELL2,
    GRAM_RANK_TOL,
    LinearFunctional,
    SpaceConfig,
    Subspace,
    TailVector,
    _check_positive_definite,
    _full_rank,
    _project_off,
    _remainder_norm,
    _representer_gram,
    gram,
    linear_combine,
    norm,
    norming_functional,
    pairing,
    scaled,
    unit_vector,
)

BIORTHOGONAL_TOL = 1e-10
DEGENERATE_PROJECTION = 1e-8
INEQUALITY_SLACK = 1e-9
# Largest truncation window materialised (32 MiB of float64); benchmark
# and test windows stay below 70,000 coordinates.
MAX_WINDOW = 2**22
# Largest ambient system build_biorthogonal(None, count) draws: each new
# vector takes one kernel step per earlier pair, so the work grows faster
# than count^2.  Test systems hold at most 8 vectors.
_MAX_AMBIENT_VECTORS = 64


@dataclass(frozen=True, eq=False)
class BiorthogonalSystem:
    """Vectors m_n and functionals x'_n with x'_i m_n = 0 for i < n.

    Every m_n has unit norm; every x'_n has dual norm 1 and pairs to 1
    with its own m_n.  gram_m is the l^2 Gram matrix of the m_n, so
    ||sum a_i m_i||_2^2 = a^T gram_m a.
    """

    vectors: tuple[TailVector, ...]
    functionals: tuple[LinearFunctional, ...]
    space: SpaceConfig
    gram_m: np.ndarray

    def __len__(self) -> int:
        return len(self.vectors)

    def kernel_stack(self, n: int) -> tuple[LinearFunctional, ...]:
        """The functionals x'_1..x'_{n-1} whose kernels constrain step n."""
        return self.functionals[: n - 1]


def _validate_system(system: BiorthogonalSystem) -> None:
    """Refuse norms, dual norms and pairings x'_i(m_n), the last read from one Gram, off by BIORTHOGONAL_TOL."""
    reps = [f.representer for f in system.functionals]
    pairs = gram([*reps, *system.vectors])[: len(reps), len(reps) :]
    for n, (m, f) in enumerate(zip(system.vectors, system.functionals), start=1):
        if abs(norm(m, system.space) - 1.0) > BIORTHOGONAL_TOL:
            raise OpquantError(f"vector {n} is not normalized")
        if abs(f.dual_norm - 1.0) > BIORTHOGONAL_TOL:
            raise OpquantError(f"functional {n} is not normalized")
        if abs(pairs[n - 1, n - 1] - 1.0) > BIORTHOGONAL_TOL:
            raise OpquantError(f"pairing {n} is not 1")
        if (stray := np.flatnonzero(np.abs(pairs[: n - 1, n - 1]) > BIORTHOGONAL_TOL)).size:
            raise OpquantError(f"functional {stray[0] + 1} does not annihilate vector {n}")
    _check_positive_definite(system.gram_m, DegenerateBasis, "biorthogonal vectors")


def _ambient_pool(count: int):
    return [unit_vector(j) for j in range(1, count + 1)]


def _kernel_step(b: TailVector, pairs: Iterable[tuple[TailVector, LinearFunctional]]) -> TailVector:
    """The paper's step: w = b, then w -= x'_j(w) m_j for each earlier pair in order.

    Since x'_i m_j = 0 for i < j, each subtraction zeroes its own pairing
    and keeps the earlier ones at 0; w stays in span{b, m_j}.
    """
    w = b
    for m, f in pairs:
        w = linear_combine([1.0, -pairing(f, w)], [w, m])
    return w


def build_biorthogonal(
    M: Optional[Subspace],
    count: int,
    space: SpaceConfig = ELL2,
    seed: int = 0,
) -> BiorthogonalSystem:
    """Construct count biorthogonal vector/functional pairs inside M.

    M = None draws from the ambient coordinate basis.  For every p, m_n is
    the normalised kernel step on b_n, so m_n lies in span{b_1..b_n}; for
    p in {1, inf} the basis must be finitely supported.  A step that keeps
    at most DEGENERATE_PROJECTION of b_n's norm counts as degenerate.  The
    build is deterministic: seed is unused.
    """
    if count < 1:
        raise ExhaustedSubspace("count must be at least 1")
    if M is not None and count > M.dim:
        raise ExhaustedSubspace(f"window dimension {M.dim} < requested count {count}")
    if M is None and count > _MAX_AMBIENT_VECTORS:
        raise ExhaustedSubspace(
            f"ambient system of {count} vectors, above the cap of {_MAX_AMBIENT_VECTORS}"
        )
    basis = list(M.basis) if M is not None else _ambient_pool(count)
    if space.p != 2 and any(not b.has_zero_tail for b in basis):
        raise OpquantError(f"p={space.p} construction needs finitely supported basis vectors")
    vectors: list[TailVector] = []
    functionals: list[LinearFunctional] = []
    for b in basis[:count]:
        w = _kernel_step(b, zip(vectors, functionals))
        if (size := norm(w, space)) <= DEGENERATE_PROJECTION * norm(b, space):
            raise ExhaustedSubspace("kernel intersection vector degenerated")
        m = scaled(w, 1.0 / size)
        vectors.append(m)
        functionals.append(norming_functional(m, space))
    system = BiorthogonalSystem(tuple(vectors), tuple(functionals), space, gram(vectors))
    _validate_system(system)
    return system


def _form_norms(stack: np.ndarray, a: np.ndarray):
    """||sum a_i v_i||_2 on each Gram matrix of a stack of v_i families, or on one matrix.

    One batched product a^T G a over the leading a.size x a.size blocks;
    a list for a stack, a float for one matrix.
    """
    n = a.size
    return np.sqrt(np.maximum(a @ stack[..., :n, :n] @ a, 0.0)).tolist()


def _coefficients(coeffs: Sequence[float], size: int) -> np.ndarray:
    """The coefficients of a combination as a float array; ValueError if there are more than size."""
    a = np.asarray(coeffs, dtype=np.float64)
    if a.size > size:
        raise ValueError(f"{a.size} coefficients for a system of {size}")
    return a


def check_coefficient_bound(
    system: BiorthogonalSystem, w_coeffs: Sequence[float]
) -> tuple[bool, list[float]]:
    """Check |a_i| <= 2^(i-1) ||sum a_i m_i|| for every coefficient.

    For p = 2 the norm is the quadratic form on system.gram_m; for
    p in {1, inf} the combination is built and measured exactly.
    """
    a = _coefficients(w_coeffs, len(system))
    coeffs = a.tolist()
    if not any(coeffs):
        return True, [0.0 for _ in coeffs]
    if system.space.p == 2:
        nw = _form_norms(system.gram_m, a)
    else:
        nw = norm(linear_combine(coeffs, system.vectors[: len(coeffs)]), system.space)
    margins = [2.0 ** (i - 1) * nw - abs(x) for i, x in enumerate(coeffs, start=1)]
    return all(m >= -INEQUALITY_SLACK for m in margins), margins


def _budget_factor(c: float, T_norm: float) -> float:
    return 1.0 if T_norm == 0.0 else min(1.0, c / T_norm)


def budget_bound(n: int, epsilon: float, c: float, T_norm: float) -> float:
    """The step-n distance budget 2^(1-2n) * epsilon * min{1, c/||T||}."""
    return 2.0 ** (1 - 2 * n) * epsilon * _budget_factor(c, T_norm)


@dataclass(frozen=True, eq=False)
class CoreApproximation:
    """Finitely supported z_n near m_n, inside the kernel stack.

    The correspondence z_i -> m_i extends linearly to the bijection
    A : span{z_n} -> span{m_n}; defects holds the exact d_n = z_n - m_n
    and budgets their norms ||z_n - m_n||, each within its geometric
    bound.

    The l^2 Gram matrices make every check on a combination sum a_i z_i a
    quadratic form a^T G a: gram_z of the z_n, gram_defects of the d_n, and
    gram_tz, gram_tm and gram_tdefects of the images T z_n, T m_n and T d_n
    under operator, the T of the build (the m_n have system.gram_m).  Each
    is built on first read.  The two defect Grams come from the exact d_n:
    expanding them through gram_z and gram_m (or their images) would lose
    the 1e-9 inequality slack to cancellation.  The per-combination checks
    read _forms, the stack of gram_defects, gram_z, gram_m, gram_tz and
    gram_tm, formed at their first call: every norm a check needs is one
    batched quadratic form on it.
    """

    system: BiorthogonalSystem
    z: tuple[TailVector, ...]
    defects: tuple[TailVector, ...]
    budgets: tuple[float, ...]
    epsilon: float
    c: float
    T_norm: float
    operator: Operator

    gram_z = cached_property(lambda self: gram(self.z))
    gram_defects = cached_property(lambda self: gram(self.defects))
    gram_tz = cached_property(lambda self: _image_gram(self.operator, self.z))
    gram_tm = cached_property(lambda self: _image_gram(self.operator, self.targets))
    gram_tdefects = cached_property(lambda self: _image_gram(self.operator, self.defects))
    # verify_near_isometry reads the first three, verify_transfer_bounds the last four
    _forms = cached_property(
        lambda self: np.stack([self.gram_defects, self.gram_z, self.system.gram_m, self.gram_tz, self.gram_tm])
    )

    @property
    def targets(self) -> tuple[TailVector, ...]:
        """Images A z_i = m_i."""
        return self.system.vectors


def _image_gram(T: Operator, vectors: Sequence[TailVector]) -> np.ndarray:
    return gram([apply(T, v) for v in vectors])


def _minimal_truncation_index(v: TailVector, target: float, space: SpaceConfig) -> int:
    """Smallest J with the exact discarded-tail norm of v at most target.

    The tail past anchor + s + kP is exactly |r|^(kP) times the tail past
    anchor + s, so each residue s of the period P has a closed-form first
    index (_first_fitting_offset); J is the least of them.  Two probes of
    the exact remainder norm, the one truncate(v, J) returns, confirm it:
    the tail past J fits and the tail past J - 1 does not.  Should
    rounding in the closed form miss by an index, J steps by single
    indices until both hold.
    """
    anchor = v.anchor
    J = anchor if v.has_zero_tail or not target > 0.0 else anchor + _first_fitting_offset(v, target, space)
    while not _remainder_norm(v, J, space) <= target:
        if not target > 0.0:
            raise BudgetInfeasible(f"no truncation of {v!r} reaches {target}")
        J += 1
    while J > anchor and _remainder_norm(v, J - 1, space) <= target:
        J -= 1
    return J


def _first_fitting_offset(v: TailVector, target: float, space: SpaceConfig) -> int:
    """Least d with the tail of v past anchor + d at most target > 0, in exact arithmetic.

    In logs, with L_u = log |c_u r^u| for u < P: the tail past anchor + s
    holds the terms u >= s of one period, then those u < s a period
    later, and repeats scaled by q = |r|^P.  For p in {1, 2} its log norm
    is a running log-sum-exp of p L_u, less log(1 - q^p) taken through
    expm1 so that |r| near 1 keeps its digits, all over p; for p = inf it
    is a running maximum of L_u.  Nothing underflows, and a zero
    coefficient is a -inf term.
    """
    period, p = v.period, space.p
    log_r = math.log(abs(v.tail_ratio))
    log_q = period * log_r
    e = 1.0 if p == math.inf else float(p)
    running = np.maximum if p == math.inf else np.logaddexp
    with np.errstate(divide="ignore"):
        terms = e * (np.log(np.abs(v.tail_coeffs)) + log_r * np.arange(period))
    later = running.accumulate(terms[::-1])[::-1]
    wrapped = np.concatenate(([-np.inf], running.accumulate(terms)[:-1] + e * log_q))
    log_tail = running(later, wrapped) / e
    if p != math.inf:
        log_tail -= math.log(-math.expm1(e * log_q)) / e
    periods = np.ceil(np.maximum((math.log(target) - log_tail) / log_q, 0.0))
    return int(np.min(np.arange(period) + period * periods))


def _core_member(
    m: TailVector, reps: Sequence[TailVector], tol: float, what: str
) -> tuple[np.ndarray, float, int]:
    """(beta, ||z - m||, J) for z = head_J(m) + sum_i beta_i head_J(r_i) within tol of m.

    On m, r_1..r_k the heads' Gram is the full Gram minus the Gram past J
    (gram).  beta = H^-1 s, with H its r-block and s = -<head r_i,
    head m>, zeroes every <r_i, z>, and ||z - m||^2 = ||tail m||^2 + s . beta
    as heads and tails have disjoint supports.  J starts at m's truncation
    index for tol/2, at least k + 1, and doubles only while H fails the rank
    rule or the distance is above tol; a window above MAX_WINDOW raises
    BudgetInfeasible.
    """
    J = max(_minimal_truncation_index(m, tol / 2.0, ELL2), len(reps) + 1)
    full = gram([m, *reps])
    while J <= MAX_WINDOW:
        tail = gram([m, *reps], J)
        h, s = full[1:, 1:] - tail[1:, 1:], tail[1:, 0] - full[1:, 0]
        if not reps or _full_rank(h):
            beta = np.linalg.solve(h, s)
            distance = math.sqrt(max(0.0, tail[0, 0] + float(s @ beta)))
            if distance <= tol:
                return beta, distance, J
        J *= 2
    raise BudgetInfeasible(f"{what} needs a window of {J} coordinates, above the cap of {MAX_WINDOW}")


def build_core_approximants(
    system: BiorthogonalSystem, T: Operator, epsilon: float, c: float
) -> CoreApproximation:
    """Approximate each m_n by z_n in the core within the step budget.

    _core_member picks the window from the step budget: half of it buys
    the truncation index, the rest covers the head correction that puts
    z_n in the kernels.  z_n is built once at the accepted window, and
    its distance is recorded exactly.  A window above MAX_WINDOW raises
    BudgetInfeasible.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon}")
    if c <= 0.0:
        raise ValueError(f"c must be positive, got {c}")
    if system.space.p != 2:
        raise ValueError("core approximants require p = 2")
    T_norm = operator_norm(T, system.space)
    reps = [f.representer for f in system.functionals]
    members = []
    for n, m in enumerate(system.vectors, start=1):
        z = m
        if not m.has_zero_tail:
            beta, _, J = _core_member(m, reps[: n - 1], budget_bound(n, epsilon, c, T_norm), f"step {n}")
            z = TailVector(sum((b * r.coords(J) for b, r in zip(beta, reps)), m.coords(J)))
        defect = linear_combine([1.0, -1.0], [z, m])
        members.append((z, defect, norm(defect)))
    zs, defects, realized = zip(*members)
    ca = CoreApproximation(system, zs, defects, realized, epsilon, c, T_norm, T)
    pairs = gram([*reps, *zs])[: len(reps), len(reps) :]
    for n, gap in enumerate(ca.budgets, start=1):
        if gap > budget_bound(n, epsilon, c, T_norm):
            raise BudgetInfeasible(f"realized distance {gap} exceeds the step-{n} budget")
        if np.any(np.abs(pairs[: n - 1, n - 1]) > BIORTHOGONAL_TOL):
            raise BudgetInfeasible(f"approximant {n} escapes the kernel intersection")
    _check_positive_definite(ca.gram_z, DegenerateBasis, "core approximants")
    return ca


def verify_near_isometry(
    ca: CoreApproximation, z_coeffs: Sequence[float]
) -> tuple[bool, bool, dict]:
    """Check the defect and distortion bounds for one combination.

    defect: ||z - Az|| stays below eps * min{1, c/||T||} * ||Az||;
    distortion: (1-eps) ||Az|| <= ||z|| <= (1+eps) ||Az||.  The three
    norms are one batched quadratic form on ca.gram_defects, ca.gram_z
    and ca.system.gram_m.
    """
    a = _coefficients(z_coeffs, len(ca.z))
    gap, z_norm, az_norm = _form_norms(ca._forms[:3], a)
    allowance = ca.epsilon * _budget_factor(ca.c, ca.T_norm) * az_norm
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
    (ratio(Az) + eps c)/(1-eps).  Norms are one batched quadratic form on
    ca.gram_z, ca.system.gram_m and, when T is ca.operator, ca.gram_tz and
    ca.gram_tm; for any other T the image Gram matrices are built here and
    stacked the same way.
    """
    a = _coefficients(z_coeffs, len(ca.z))
    if T is ca.operator:
        forms = ca._forms[1:]
    else:
        n = a.size
        images = (_image_gram(T, ca.z[:n]), _image_gram(T, ca.targets[:n]))
        forms = np.stack([ca.gram_z[:n, :n], ca.system.gram_m[:n, :n], *images])
    z_norm, az_norm, tz_norm, tm_norm = _form_norms(forms, a)
    if z_norm == 0.0 or az_norm == 0.0:
        raise ZeroVector("transfer ratios need a nonzero combination")
    z_ratio = tz_norm / z_norm
    az_ratio = tm_norm / az_norm
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


def certify_construction(ca: CoreApproximation) -> list[tuple[str, bool, float, float, float]]:
    """(name, holds, measured, bound, slack) of each suite inequality over every a != 0.

    With z = sum a_i z_i, Az = sum a_i m_i and G = ca.system.gram_m, each
    worst case is a closed form: coefficient_bound is max_i sqrt((G^-1)_ii)
    / 2^(i-1) = sup max_i |a_i| / (2^(i-1) ||Az||) against 1; by extreme
    generalized eigenvalues, defect is sup ||z - Az|| / ||Az|| against
    eps min{1, c/||T||}, distortion_lower and distortion_upper are inf and
    sup ||z|| / ||Az|| against 1 -/+ eps, and transfer is t = sup
    ||T(z - Az)|| / ||Az|| against eps c.  With the distortion bounds, t
    gives verify_transfer_bounds on every a: sufficient, not exact.
    """
    g, eps = ca.system.gram_m, ca.epsilon
    coefficient = max(math.sqrt(v) / 2.0**i for i, v in enumerate(np.diag(np.linalg.inv(g))))
    defect = math.sqrt(float(_restricted_eigs(ca.gram_defects, g)[-1]))
    z_low, z_high = np.sqrt(_restricted_eigs(ca.gram_z, g)[[0, -1]]).tolist()
    transfer = math.sqrt(float(_restricted_eigs(ca.gram_tdefects, g)[-1]))
    allowance = eps * _budget_factor(ca.c, ca.T_norm)
    checks = [
        ("coefficient_bound", coefficient, 1.0, 1.0 - coefficient),
        ("defect", defect, allowance, allowance - defect),
        ("distortion_lower", z_low, 1.0 - eps, z_low - (1.0 - eps)),
        ("distortion_upper", z_high, 1.0 + eps, 1.0 + eps - z_high),
        ("transfer", transfer, eps * ca.c, eps * ca.c - transfer),
    ]
    return [(name, slack >= -INEQUALITY_SLACK, m, b, slack) for name, m, b, slack in checks]


def check_dense_intersection(
    functionals: Sequence[LinearFunctional],
    samples: int = 100,
    tol: float = 1e-8,
    seed: int = 0,
) -> dict:
    """Empirical density of the core inside a kernel intersection.

    Random vectors are projected into the intersection, then matched by
    the core member of the construction step (_core_member) within tol,
    from the same first window as the build, its distance read in closed
    form with no window built; a window above MAX_WINDOW raises
    BudgetInfeasible.  A sample that keeps at most DEGENERATE_PROJECTION
    of its norm in the kernels is skipped.
    """
    reps, g = _representer_gram(functionals, "lemma functionals") if functionals else ([], np.zeros((0, 0)))
    ratios = sorted({f.representer.tail_ratio for f in functionals if not f.representer.has_zero_tail})
    rng = np.random.default_rng(seed)
    max_distance, max_index = 0.0, 0
    for i in range(samples):
        anchor = int(rng.integers(0, 5))
        prefix = rng.standard_normal(anchor)
        if ratios:
            ratio = ratios[int(rng.integers(0, len(ratios)))]
        else:
            ratio = float(rng.uniform(-0.9, 0.9))
        coeffs = rng.standard_normal(int(rng.integers(1, 4)))
        sample = TailVector(prefix, coeffs, ratio)
        m = _project_off(sample, reps, g)
        if norm(m) <= DEGENERATE_PROJECTION * norm(sample):
            continue
        _, distance, J = _core_member(m, reps, tol, f"lemma sample {i}")
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
    passed = property(lambda self: self.margin[2] >= -INEQUALITY_SLACK)

    @property
    def margin(self) -> tuple[float, float, float]:
        """(measured, threshold, slack) of the concluding bound; not serialised."""
        shape = _SHAPES[self.part]
        threshold = self.measured["threshold"]
        if shape.outer:
            return self.measured["certified_margin"], threshold, self.measured["certified_margin"]
        value = self.measured["restricted_norm_L" if shape.norm else "restricted_min_modulus_L"]
        return value, threshold, value - threshold if shape.supremum else threshold - value

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


def run_invariance_case(
    T: Operator,
    part: str,
    witness_M: Subspace,
    epsilon: float,
    delta: float,
) -> CaseReport:
    """One proof-part experiment: derive c, build L, check the bound.

    Gamma: c sits just above the witness restricted norm; the
    constructed span must stay below (1+eps)/(1-eps) c.  Tau: dual with
    the minimal modulus and (1-eps)/(1+eps).  Delta and Nabla quantify
    over every sub-basis V of L: whenever the image side AV satisfies
    its strict inequality against c, V satisfies the transferred one.
    Their certified_margin is a lower bound on that margin over every V,
    read from certify_construction: with the transfer t and the
    distortion extremes, (c - t)/distortion_upper - threshold for Delta
    and threshold - (c + t)/distortion_lower for Nabla.  Every side and
    extreme comes from the quantity's shape.  A minimal modulus that fails
    the rank rule against the norm on M is rounding: InvalidWitness.
    """
    if part not in _SHAPES:
        raise ValueError(f"unknown part {part!r}")
    shape = _SHAPES[part]
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon}")
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if all(b.has_zero_tail for b in witness_M.basis):
        raise InvalidWitness("witness basis lies inside the core; nothing to approximate")
    rmin, rnorm = restricted_extremes(T, witness_M)
    if not shape.norm and rmin * rmin <= GRAM_RANK_TOL * rnorm * rnorm:
        raise InvalidWitness(f"minimal modulus {rmin} fails the rank rule against the norm {rnorm}")
    witness_quantity = rnorm if shape.norm else rmin
    c = witness_quantity * ((1.0 - delta) if shape.supremum else (1.0 + delta))
    if c <= 0.0:
        raise InvalidWitness(f"derived constant c = {c} is not positive")
    system = build_biorthogonal(witness_M, witness_M.dim, witness_M.ambient)
    ca = build_core_approximants(system, T, epsilon, c)
    L = Subspace(ca.z, witness_M.ambient)
    lower, upper = 1.0 - epsilon, 1.0 + epsilon
    threshold = (lower / upper if shape.supremum else upper / lower) * c
    measured: dict = {"witness_quantity": witness_quantity, "c": c}
    if shape.outer:
        # a triggering V holds the line span{Z a}, a extremal for T on AV,
        # which triggers with no larger margin; on that line ||T(z - Az)||
        # <= t ||Az|| and ||z|| / ||Az|| lies within the distortion extremes
        certified = {name: value for name, _, value, _, _ in certify_construction(ca)}
        t = certified["transfer"]
        if shape.supremum:
            margin = (c - t) / certified["distortion_upper"] - threshold
        else:
            margin = threshold - (c + t) / certified["distortion_lower"]
        measured.update({"threshold": threshold, "certified_margin": margin})
    else:
        value = math.sqrt(float(_restricted_eigs(ca.gram_tz, ca.gram_z)[-1 if shape.norm else 0]))
        key = "restricted_norm_L" if shape.norm else "restricted_min_modulus_L"
        measured.update({key: value, "threshold": threshold})
    return CaseReport(part, c, delta, epsilon, witness_M, L, measured)
