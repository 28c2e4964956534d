"""Seeded generators for vectors, witnesses, and functional families.

Everything here is deterministic in the supplied generator.  Families that
will be combined share a single tail ratio, since exact arithmetic refuses to
mix distinct geometric ratios (a mixed family's Gram matrix still works); the
samplers draw it as a modulus in [0.2, 0.8) with a random sign.  A lemma
family holds at most six representers, the most that can be independent.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateBasis
from .seqspace import ELL2, LinearFunctional, Subspace, TailVector, functional_from_representer, norm

# Lemma representers have 1-4 prefix coordinates and a period-2 tail on
# one shared ratio, so past index 4 each obeys x_(j+2) = ratio x_j: the
# family spans at most 4 + 2 dimensions.
_MAX_LEMMA_FUNCTIONALS = 6


def _signed_ratio(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.2, 0.8)) * (1 if rng.random() < 0.5 else -1)


def sample_tail_vector(rng: np.random.Generator, ratio: float) -> TailVector:
    """One random vector: 0-5 prefix coordinates, a tail of period 1-3 on ratio."""
    prefix = rng.standard_normal(int(rng.integers(0, 6)))
    coeffs = rng.standard_normal(int(rng.integers(1, 4)))
    return TailVector(prefix, coeffs, ratio)


def sample_witness_subspace(rng: np.random.Generator, dim: int) -> Subspace:
    """Random subspace whose basis shares one tail ratio, tails nonzero."""
    ratio = _signed_ratio(rng)
    for _ in range(50):
        basis = []
        for _ in range(dim):
            v = sample_tail_vector(rng, ratio)
            if v.has_zero_tail or norm(v) < 1e-3:
                v = TailVector(rng.standard_normal(3), rng.standard_normal(2), ratio)
            basis.append(v)
        try:
            return Subspace(tuple(basis))
        except DegenerateBasis:
            continue
    raise DegenerateBasis("could not sample an independent witness basis")


def odd_coordinate_witness(
    dim: int = 3, ratio: float = 0.5, tail_scale: float = 0.5, anchor: int = 7
) -> Subspace:
    """Unit coordinates on odd indices plus a shared odd-supported tail.

    Vector i is e_{2i-1} plus a period-2 geometric tail past `anchor`
    whose even-offset coefficients vanish, keeping all mass on odd
    coordinates.
    """
    basis = []
    for i in range(1, dim + 1):
        prefix = np.zeros(anchor)
        prefix[2 * i - 2] = 1.0
        basis.append(TailVector(prefix, (0.0, tail_scale), ratio))
    return Subspace(tuple(basis))


def sample_lemma_functionals(rng: np.random.Generator, count: int) -> list[LinearFunctional]:
    """Independent functionals whose representers share one tail ratio."""
    if count > _MAX_LEMMA_FUNCTIONALS:
        raise DegenerateBasis(
            f"{count} lemma functionals requested; at most "
            f"{_MAX_LEMMA_FUNCTIONALS} can be independent"
        )
    ratio = _signed_ratio(rng)
    for _ in range(50):
        reps = tuple(
            TailVector(rng.standard_normal(int(rng.integers(1, 5))), rng.standard_normal(2), ratio)
            for _ in range(count)
        )
        try:
            Subspace(reps)
        except DegenerateBasis:
            continue
        return [functional_from_representer(r, ELL2) for r in reps]
    raise DegenerateBasis("could not sample independent functional representers")
