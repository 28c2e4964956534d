"""Tests for exact tail-vector arithmetic, norms, functionals, projections."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opquant import (
    ELL1,
    ELL2,
    ELLINF,
    DegenerateFunctionals,
    DimensionMismatch,
    IncompatibleTails,
    TailVector,
    UnsupportedTail,
    ZeroVector,
    canonical,
    functional_from_representer,
    gram,
    inner_product,
    linear_combine,
    norm,
    norming_functional,
    pairing,
    project_into_kernels,
    scaled,
    truncate,
    unit_vector,
    zero_vector,
)
from opquant import seqspace
from opquant.operators import Diagonal, apply
from opquant.sampling import sample_lemma_functionals
from opquant.seqspace import _remainder_norm, _tail_row

E1 = unit_vector(1)
E2 = unit_vector(2)
E3 = unit_vector(3)
# pure geometric tail 1, 1/2, 1/4, ... starting at index 1
GEO = TailVector(prefix=(), tail_coeffs=(1.0,), tail_ratio=0.5)


def random_tail_vector(rng, max_anchor=6, max_period=4):
    anchor = rng.integers(0, max_anchor + 1)
    prefix = rng.standard_normal(anchor)
    if rng.random() < 0.25:
        return TailVector(prefix)
    period = rng.integers(1, max_period + 1)
    coeffs = rng.standard_normal(period)
    ratio = rng.uniform(-0.9, 0.9)
    return TailVector(prefix, coeffs, ratio)


class TestCanonicalForm:
    def test_zero_tail_normal_form(self):
        v = TailVector(prefix=(1.0, 0.0), tail_coeffs=(0.0, 0.0, 0.0), tail_ratio=0.7)
        assert v.period == 1
        assert v.tail_ratio == 0.0
        assert v.tail_coeffs[0] == 0.0
        np.testing.assert_array_equal(v.prefix, [1.0])

    def test_zero_ratio_absorbs_leading_coefficient(self):
        v = TailVector(prefix=(2.0,), tail_coeffs=(3.0, 9.9), tail_ratio=0.0)
        np.testing.assert_array_equal(v.prefix, [2.0, 3.0])
        assert v.has_zero_tail

    def test_trailing_prefix_zeros_stripped_only_when_tail_zero(self):
        finite = TailVector(prefix=(1.0, 0.0, 0.0))
        assert finite.anchor == 1
        tailed = TailVector(prefix=(1.0, 0.0), tail_coeffs=(1.0,), tail_ratio=0.5)
        assert tailed.anchor == 2

    def test_canonical_is_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = random_tail_vector(rng)
            c = canonical(v)
            assert canonical(c).equals(c)
            for j in range(1, 20):
                assert c.coordinate(j) == v.coordinate(j)

    def test_rejects_divergent_tail(self):
        with pytest.raises(ValueError):
            TailVector(prefix=(), tail_coeffs=(1.0,), tail_ratio=1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TailVector(prefix=(math.nan,))

    def test_coordinate_matches_coords(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            v = random_tail_vector(rng)
            dense = v.coords(25)
            for j in range(1, 26):
                # vectorized pow may differ from scalar pow in the last ulp
                assert dense[j - 1] == pytest.approx(v.coordinate(j), rel=1e-13, abs=1e-300)

    def test_roundtrip_dict(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            v = random_tail_vector(rng)
            w = TailVector.from_dict(v.to_dict())
            assert w.equals(v)


class TestLinearCombine:
    def test_identity(self):
        assert linear_combine([1.0], [E1]).equals(E1)

    def test_cancellation_gives_canonical_zero(self):
        z = linear_combine([1.0, -1.0], [E1, E1])
        assert z.is_zero
        assert z.period == 1 and z.tail_ratio == 0.0 and z.anchor == 0

    def test_finite_combination(self):
        w = linear_combine([2.0, 3.0], [E1, E2])
        np.testing.assert_array_equal(w.coords(3), [2.0, 3.0, 0.0])

    def test_mixed_anchors_and_periods(self):
        u = TailVector((1.0,), (1.0, -1.0), 0.5)
        v = TailVector((0.0, 2.0), (3.0,), 0.5)
        w = linear_combine([2.0, -1.0], [u, v])
        n = 30
        np.testing.assert_allclose(w.coords(n), 2 * u.coords(n) - v.coords(n), atol=1e-14)

    def test_common_period_cap(self):
        # five tails of prime periods 101 .. 113 need a period of 1.4e10
        vs = [TailVector((), np.arange(1.0, p + 1.0), 0.5) for p in (101, 103, 107, 109, 113)]
        with pytest.raises(IncompatibleTails, match="common period of 13710311357, above the cap of 1048576"):
            linear_combine([1.0] * 5, vs)
        with pytest.raises(IncompatibleTails, match="above the cap"):
            gram(vs)

    def test_common_period_cap_is_read_at_each_call(self, monkeypatch):
        monkeypatch.setattr(seqspace, "MAX_PERIOD", 12)
        u, v, w = (TailVector((), np.arange(1.0, p + 1.0), 0.5) for p in (3, 4, 5))
        assert linear_combine([1.0, 1.0], [u, v]).period == 12
        assert gram([u, v]).shape == (2, 2)
        for call in (lambda: linear_combine([1.0, 1.0], [u, w]), lambda: inner_product(u, w), lambda: gram([u, w])):
            with pytest.raises(IncompatibleTails, match=r"tail periods \[3, 5\] need a common period of 15, above the cap of 12"):
                call()
        with pytest.raises(IncompatibleTails, match="above the cap of 12"):
            apply(Diagonal((), (1.0, 2.0, 3.0, 4.0, 5.0)), u)

    def test_distinct_ratios_rejected(self):
        u = TailVector((), (1.0,), 0.5)
        v = TailVector((), (1.0,), 0.25)
        with pytest.raises(IncompatibleTails):
            linear_combine([1.0, 1.0], [u, v])

    def test_zero_tail_mixes_with_any_ratio(self):
        u = TailVector((), (1.0,), 0.5)
        w = linear_combine([1.0, 1.0], [u, E1])
        assert w.coordinate(1) == 2.0
        assert w.coordinate(2) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linear_combine([1.0, 2.0], [E1])
        with pytest.raises(DimensionMismatch):
            linear_combine([], [])

    def test_combination_is_exact_on_tails(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            ratio = rng.uniform(-0.9, 0.9)
            vs = []
            for _ in range(3):
                anchor = rng.integers(0, 5)
                period = rng.integers(1, 4)
                vs.append(TailVector(rng.standard_normal(anchor), rng.standard_normal(period), ratio))
            a = rng.standard_normal(3)
            w = linear_combine(a, vs)
            n = 40
            expected = sum(ai * v.coords(n) for ai, v in zip(a, vs))
            np.testing.assert_allclose(w.coords(n), expected, atol=1e-12)


class TestInnerProductAndNorm:
    def test_unit_vectors(self):
        assert inner_product(E1, E1) == 1.0
        assert inner_product(E1, E2) == 0.0

    def test_pure_tail_self_product(self):
        assert inner_product(GEO, GEO) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_ell1_norm_of_geometric_tail(self):
        assert norm(GEO, ELL1) == pytest.approx(2.0, rel=1e-15)

    def test_ellinf_norm_of_geometric_tail(self):
        assert norm(GEO, ELLINF) == 1.0

    def test_ell2_norm_of_unit(self):
        assert norm(E1, ELL2) == 1.0

    def test_closed_form_matches_partial_sums(self):
        rng = np.random.default_rng(4)
        n = 4000
        for _ in range(300):
            v = random_tail_vector(rng)
            coords = v.coords(n)
            _, rem1 = truncate(v, n, ELL1)
            _, rem2 = truncate(v, n, ELL2)
            _, reminf = truncate(v, n, ELLINF)
            assert abs(norm(v, ELL1) - np.sum(np.abs(coords))) <= rem1 + 1e-9
            assert abs(norm(v, ELL2) - np.linalg.norm(coords)) <= rem2 + 1e-9
            assert abs(norm(v, ELLINF) - np.max(np.abs(coords), initial=0.0)) <= reminf + 1e-9

    def test_closed_form_matches_long_partial_sum(self):
        v = TailVector((0.3, -2.0), (1.0, 0.5, -0.25), 0.97)
        n = 1_000_000
        coords = v.coords(n)
        assert norm(v, ELL1) == pytest.approx(np.sum(np.abs(coords)), rel=1e-9)
        assert norm(v, ELL2) == pytest.approx(np.linalg.norm(coords), rel=1e-9)
        assert norm(v, ELLINF) == np.max(np.abs(coords))

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            u = random_tail_vector(rng)
            v = random_tail_vector(rng)
            assert abs(inner_product(u, v)) <= norm(u) * norm(v) + 1e-9

    def test_inner_product_mixed_ratios(self):
        u = TailVector((), (1.0,), 0.5)
        v = TailVector((), (1.0,), -0.25)
        # sum over t of (-1/8)^t
        assert inner_product(u, v) == pytest.approx(1.0 / (1.0 + 0.125), rel=1e-15)


def _decimal_tail_sum(terms, rho):
    """sum_s terms_s rho^s / (1 - rho^P) and the same sum of |terms|, in Decimal.

    Callers set the precision; rho and the terms are exact Decimals.
    """
    P = len(terms)
    denominator = 1 - rho**P
    value = sum(t * rho**s for s, t in enumerate(terms)) / denominator
    scale = sum(abs(t) * abs(rho) ** s for s, t in enumerate(terms)) / abs(denominator)
    return value, scale


# |r| from about 0.11 to 1 - 1e-12, both signs; the expm1 form starts where |r|^P > 1/2
RATIOS = st.builds(
    lambda e, sign: sign * (1.0 - 10.0**-e), st.floats(0.05, 12.0), st.sampled_from((1.0, -1.0))
)
# no coefficient so small that a product of two underflows
COEFFS = st.lists(st.floats(-1.0, 1.0).filter(lambda x: x == 0.0 or abs(x) > 1e-3), min_size=1, max_size=4)
PREFIX = st.lists(st.floats(-1.0, 1.0).filter(lambda x: x == 0.0 or abs(x) > 1e-3), max_size=3)


@st.composite
def tails(draw):
    """(coefficients, ratio) as above, or a ratio r down to 2^-251 with coefficients
    c_s = x_s / r^s for x_s as above scaled by 2^e, |e| <= 250: c^2 may overflow
    and (r_u r_v)^3 underflows, while every coordinate c_s r^s stays near x_s."""
    coeffs, ratio = draw(COEFFS), draw(RATIOS)
    if draw(st.booleans()):
        ratio = math.copysign(math.ldexp(draw(st.floats(0.5, 1.0, exclude_max=True)), -draw(st.integers(1, 250))), ratio)
        e = draw(st.integers(-250, 250))
        coeffs = [math.ldexp(x, e) / ratio**s for s, x in enumerate(coeffs)]
    return coeffs, ratio


class TestGeometricDenominators:
    """Tail sums near |r| = 1 against a 50-digit decimal reference."""

    @pytest.mark.parametrize("r", [0.99, 0.9999, 1 - 1e-7, 1 - 1e-9])
    def test_squared_norm_of_odd_tail(self, r):
        v = TailVector((), (0.0, 0.5), r)
        with localcontext() as ctx:
            ctx.prec = 50
            R = Decimal(r)
            reference = Decimal("0.25") * R**2 / (1 - R**4)
            assert abs(Decimal(inner_product(v, v)) - reference) <= Decimal("1e-15") * reference

    @settings(max_examples=300)
    @given(tails(), tails())
    def test_inner_product(self, tu, tv):
        """inner_product, the l^2 norm and gram against the reference, coefficients
        up to 2^1003 on ratios down to 2^-251 included."""
        (cu, ru), (cv, rv) = tu, tv
        u, v = TailVector((), cu, ru), TailVector((), cv, rv)
        P = math.lcm(len(cu), len(cv))
        with localcontext() as ctx:
            ctx.prec = 50
            terms = [Decimal(cu[s % len(cu)]) * Decimal(cv[s % len(cv)]) for s in range(P)]
            reference, scale = _decimal_tail_sum(terms, Decimal(ru) * Decimal(rv))
            assert abs(Decimal(inner_product(u, v)) - reference) <= Decimal("1e-14") * scale
            assert abs(Decimal(gram([u, v])[0, 1]) - reference) <= Decimal("1e-14") * scale
            squares, _ = _decimal_tail_sum([Decimal(c) ** 2 for c in cu], Decimal(ru) ** 2)
            assert abs(Decimal(norm(u) ** 2) - squares) <= Decimal("1e-14") * squares
            assert abs(Decimal(gram([u, v])[0, 0]) - squares) <= Decimal("1e-14") * squares

    @settings(max_examples=300)
    @given(st.lists(st.floats(-1.0, 1.0), max_size=3), COEFFS, RATIOS)
    def test_ell1_norm_bit_equal_to_its_inline_form(self, prefix, coeffs, r):
        """The l^1 norm, read from the shared series weights, equals the formula it
        replaced bit for bit, ratios within 1e-9 of 1 included."""
        v = TailVector(prefix, coeffs, r)
        total = float(np.sum(np.abs(v.prefix)))
        if not v.has_zero_tail:
            r = abs(v.tail_ratio)
            powers = r ** np.arange(v.period)
            power = r**v.period
            denominator = -math.expm1(v.period * math.log(r)) if power > 0.5 else 1.0 - power
            total += float(np.dot(np.abs(v.tail_coeffs), powers)) / denominator
        assert norm(v, ELL1) == total

    @settings(max_examples=300)
    @given(tails())
    def test_ell1_norm(self, tail):
        coeffs, r = tail
        with localcontext() as ctx:
            ctx.prec = 50
            reference, _ = _decimal_tail_sum([abs(Decimal(c)) for c in coeffs], abs(Decimal(r)))
            assert abs(Decimal(norm(TailVector((), coeffs, r), ELL1)) - reference) <= Decimal("1e-14") * reference


class TestNormBelowTheSquaredRange:
    """l^2 norms whose sum of squares falls below the normal range."""

    def test_remainder_of_a_geometric_tail(self):
        # past 540 the tail of 1, 1, 1/2, 1/4, ... is 2^-539 / sqrt(3/4), about 6e-163
        v = TailVector((1.0,), (1.0,), 0.5)
        assert _remainder_norm(v, 540, ELL2) == pytest.approx(2.0**-539 / math.sqrt(0.75), rel=1e-14)

    def test_squared_ratio_underflows(self):
        # r^2 underflows, so the unscaled sum reads the coordinate r as 0
        assert norm(TailVector((), (0.0, 1.0), 1.3e-210)) == pytest.approx(1.3e-210, rel=1e-14)
        assert norm(TailVector((1e-320,))) == 1e-320
        assert norm(TailVector((), (1e-200,), 1e-200)) == pytest.approx(1e-200, rel=1e-14)

    @settings(max_examples=200)
    @given(PREFIX, COEFFS, RATIOS, st.integers(-900, -520))
    def test_scaled_by_a_power_of_two(self, prefix, coeffs, r, k):
        v = TailVector(prefix, coeffs, r)
        tiny = TailVector(np.ldexp(v.prefix, k), np.ldexp(v.tail_coeffs, k), v.tail_ratio)
        assert norm(tiny) == pytest.approx(math.ldexp(norm(v), k), rel=1e-13)
        assert (norm(tiny) > 0.0) == (not v.is_zero)

    @settings(max_examples=200)
    @given(PREFIX, COEFFS, RATIOS)
    def test_normal_range_keeps_its_bytes(self, prefix, coeffs, r):
        v = TailVector(prefix, coeffs, r)
        assert norm(v) == math.sqrt(max(inner_product(v, v), 0.0))


class TestPairingAndNorming:
    def test_pairing_units(self):
        f = functional_from_representer(E1, ELL2)
        assert pairing(f, E1) == 1.0
        assert pairing(f, E2) == 0.0

    def test_sign_pairing(self):
        f = functional_from_representer(TailVector((1.0, -1.0)), ELL1)
        assert pairing(f, TailVector((3.0, -4.0))) == 7.0
        assert f.dual_norm == 1.0

    def test_norming_ell2(self):
        f = norming_functional(E3, ELL2)
        assert f.representer.equals(E3)
        assert pairing(f, E3) == 1.0

    def test_norming_ell1(self):
        v = TailVector((3.0, -4.0))
        f = norming_functional(v, ELL1)
        np.testing.assert_array_equal(f.representer.coords(2), [1.0, -1.0])
        assert pairing(f, v) == 7.0 == norm(v, ELL1)

    def test_norming_ellinf(self):
        v = TailVector((3.0, -4.0))
        f = norming_functional(v, ELLINF)
        np.testing.assert_array_equal(f.representer.coords(2), [0.0, -1.0])
        assert pairing(f, v) == 4.0 == norm(v, ELLINF)

    def test_norming_rejects_zero(self):
        for space in (ELL1, ELL2, ELLINF):
            with pytest.raises(ZeroVector):
                norming_functional(zero_vector(), space)

    def test_norming_rejects_tails_outside_ell2(self):
        for space in (ELL1, ELLINF):
            with pytest.raises(UnsupportedTail):
                norming_functional(GEO, space)

    def test_norming_identity_sweep(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            v = random_tail_vector(rng)
            if norm(v) < 1e-6:
                continue
            f = norming_functional(v, ELL2)
            assert pairing(f, v) == pytest.approx(norm(v, ELL2), rel=1e-9)
            assert f.dual_norm == pytest.approx(1.0, rel=1e-9)
            finite = TailVector(rng.standard_normal(rng.integers(1, 8)))
            for space in (ELL1, ELLINF):
                if norm(finite, space) == 0.0:
                    continue
                g = norming_functional(finite, space)
                assert pairing(g, finite) == pytest.approx(norm(finite, space), rel=1e-9)
                assert g.dual_norm == pytest.approx(1.0, rel=1e-9)


class TestProjection:
    def test_already_in_kernel(self):
        f = functional_from_representer(E1, ELL2)
        assert project_into_kernels(E2, [f]).equals(E2)

    def test_projects_to_zero(self):
        f = functional_from_representer(E1, ELL2)
        assert project_into_kernels(E1, [f]).is_zero

    def test_kills_first_coordinate(self):
        f = functional_from_representer(E1, ELL2)
        w = project_into_kernels(TailVector((1.0, 1.0)), [f])
        assert w.equals(E2)

    def test_result_annihilated_and_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = random_tail_vector(rng)
            k = rng.integers(1, 4)
            # finitely supported representers combine with any tail in v
            reps = [TailVector(rng.standard_normal(rng.integers(1, 8))) for _ in range(k)]
            try:
                fs = [norming_functional(r, ELL2) for r in reps]
            except ZeroVector:
                continue
            try:
                w = project_into_kernels(v, fs)
            except DegenerateFunctionals:
                continue
            bound = 1e-10 * max(norm(v), 1e-30)
            for f in fs:
                assert abs(pairing(f, w)) <= bound
            w2 = project_into_kernels(w, fs)
            assert norm(linear_combine([1.0, -1.0], [w, w2])) <= 1e-9 * max(norm(v), 1.0)

    @pytest.mark.parametrize("scale", [1e-30, 1.0, 1e30])
    def test_relative_pairings_at_any_scale(self, scale):
        # refinement stops on |<r_i, w>| against ||v|| ||r_i||, so no scale of v
        # is small enough to be returned unprojected
        rng = np.random.default_rng(5)
        fs = sample_lemma_functionals(rng, 2)
        ratio = fs[0].representer.tail_ratio
        for _ in range(20):
            v = scaled(TailVector(rng.standard_normal(5), rng.standard_normal(2), ratio), scale)
            w = project_into_kernels(v, fs)
            for f in fs:
                r = f.representer
                assert abs(inner_product(r, w)) <= 1e-15 * norm(v) * norm(r)

    def test_degenerate_functionals_rejected(self):
        f = functional_from_representer(E1, ELL2)
        g = functional_from_representer(scaled(E1, 2.0), ELL2)
        with pytest.raises(DegenerateFunctionals):
            project_into_kernels(E2, [f, g])

    def test_requires_ell2(self):
        f = functional_from_representer(E1, ELL1)
        with pytest.raises(ValueError):
            project_into_kernels(E2, [f], ELL1)


class TestTruncate:
    def test_finite_vector_roundtrip(self):
        v = TailVector((1.0, -2.0))
        head, rem = truncate(v, 5)
        assert head.equals(v)
        assert rem == 0.0

    def test_geometric_remainders(self):
        head, rem = truncate(GEO, 1, ELL2)
        np.testing.assert_array_equal(head.coords(2), [1.0, 0.0])
        assert rem == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-15)
        empty, rem0 = truncate(GEO, 0, ELL2)
        assert empty.is_zero
        assert rem0 == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-15)

    def test_remainder_is_norm_of_difference(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            v = random_tail_vector(rng)
            j = int(rng.integers(v.anchor, v.anchor + 6))
            for space in (ELL1, ELL2, ELLINF):
                head, rem = truncate(v, j, space)
                diff = linear_combine([1.0, -1.0], [v, head])
                assert rem == pytest.approx(norm(diff, space), abs=1e-12)

    def test_rejects_short_window(self):
        with pytest.raises(ValueError):
            truncate(TailVector((1.0, 2.0, 3.0)), 1)

    def test_tail_gram_matches_coords(self):
        """The Gram past J, below, at and above the anchors, equals the dense
        Gram of coordinates J + 1, J + 2, ...; past 0 it is the matrix of
        pairwise inner products."""
        rng = np.random.default_rng(9)
        for _ in range(100):
            u, v = random_tail_vector(rng), random_tail_vector(rng)
            if not (u.has_zero_tail or v.has_zero_tail):
                v = TailVector(v.prefix, v.tail_coeffs, u.tail_ratio)
            np.testing.assert_allclose(gram([u, v]), _pairwise_gram([u, v]), rtol=1e-13, atol=1e-15)
            for J in {0, v.anchor // 2, max(v.anchor - 1, 0), v.anchor, v.anchor + 1, v.anchor + 5}:
                dense = np.array([u.coords(J + 400)[J:], v.coords(J + 400)[J:]])
                np.testing.assert_allclose(gram([u, v], J), dense @ dense.T, rtol=1e-12, atol=1e-14)
                if J >= v.anchor:
                    assert gram([v], J)[0, 0] == pytest.approx(_remainder_norm(v, J, ELL2) ** 2, rel=1e-13, abs=1e-300)

    def test_tail_gram_mixes_ratios(self):
        """A family that mixes tail ratios is paired in one matrix at every J:
        the pairwise matrix at J = 0, and the dense Gram of the coordinates
        past J, both to 1e-13."""
        rng = np.random.default_rng(10)
        for _ in range(50):
            mixed = [TailVector((1.0,), (1.0,), 0.5), TailVector((), (1.0,), 0.25)]
            vs = [random_tail_vector(rng) for _ in range(4)] + mixed
            g = gram(vs)
            scale = np.sqrt(np.outer(np.diag(g), np.diag(g)))
            assert np.all(np.abs(g - _pairwise_gram(vs)) <= 1e-13 * scale)
            for J in (1, 3, 8):
                dense = np.array([v.coords(J + 600)[J:] for v in vs])
                g = gram(vs, J)
                scale = np.sqrt(np.outer(np.diag(g), np.diag(g)))
                assert np.all(np.abs(g - dense @ dense.T) <= 1e-13 * scale)


def _pairwise_gram(vectors):
    """The Gram matrix one inner product at a time, each entry mirrored."""
    g = np.zeros((len(vectors), len(vectors)))
    for i in range(len(vectors)):
        for j in range(i + 1):
            g[i, j] = g[j, i] = inner_product(vectors[i], vectors[j])
    return g


def _past(v, J):
    """The coordinates of v past J as a tail vector indexed from 1."""
    if J <= v.anchor:
        return TailVector(v.prefix[J:], v.tail_coeffs, v.tail_ratio)
    d = J - v.anchor
    return TailVector((), v.tail_coeffs[(np.arange(v.period) + d) % v.period] * v.tail_ratio**d, v.tail_ratio)


@st.composite
def single_ratio_families(draw):
    """1-5 vectors on one tail ratio, some with zero tails, anchors up to 200, and J up to 10 past them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ratio = draw(st.floats(0.3, 0.999)) * draw(st.sampled_from((1.0, -1.0)))
    vectors = []
    for zero_tail in draw(st.lists(st.booleans(), min_size=1, max_size=5)):
        prefix = rng.standard_normal(draw(st.integers(0, 200)))
        coeffs = (0.0,) if zero_tail else rng.standard_normal(draw(st.integers(1, 4)))
        vectors.append(TailVector(prefix, coeffs, ratio))
    return vectors, draw(st.integers(0, max(v.anchor for v in vectors) + 10))


class TestGram:
    @settings(max_examples=200)
    @given(single_ratio_families())
    def test_single_ratio_family_past_J(self, family):
        """The Gram past J is the pairwise matrix of the coordinates past J to 1e-13
        of sqrt(g_ii g_jj), and exactly symmetric."""
        vectors, J = family
        g = gram(vectors, J)
        reference = _pairwise_gram([_past(v, J) for v in vectors])
        scale = np.sqrt(np.outer(np.diag(reference), np.diag(reference)))
        assert np.all(np.abs(g - reference) <= 1e-13 * scale)
        np.testing.assert_array_equal(g, g.T)

    def test_empty_family(self):
        assert gram([]).shape == (0, 0)

    def test_orthonormal_pair(self):
        np.testing.assert_array_equal(gram([E1, E2]), np.eye(2))

    def test_rank_one(self):
        np.testing.assert_array_equal(gram([E1, E1]), np.ones((2, 2)))

    def test_tail_entry(self):
        g = gram([GEO])
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(9)
        vs = [random_tail_vector(rng) for _ in range(5)]
        g = gram(vs)
        np.testing.assert_array_equal(g, g.T)


@st.composite
def mixed_ratio_families(draw):
    """1-5 vectors over up to three tail ratios, some with zero tails, anchors up
    to 20, periods 1-4, and J up to 10 past the anchors."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ratios = draw(st.lists(st.floats(0.1, 0.9).map(lambda r: r * rng.choice((1.0, -1.0))), min_size=1, max_size=3))
    vectors = []
    for zero_tail in draw(st.lists(st.booleans(), min_size=1, max_size=5)):
        prefix = rng.standard_normal(draw(st.integers(0, 20)))
        coeffs = (0.0,) if zero_tail else rng.standard_normal(draw(st.integers(1, 4)))
        vectors.append(TailVector(prefix, coeffs, draw(st.sampled_from(ratios))))
    return vectors, draw(st.integers(0, max(v.anchor for v in vectors) + 10))


class TestOneClosedForm:
    """inner_product, the l^2 norm and gram pair the coordinates coords returns."""

    def test_large_coefficient_over_a_tiny_ratio(self):
        # coordinates 0, 1, 0, 0, ...: c^2 overflows and r^2 underflows
        v = TailVector((), (0.0, 1e200), 1e-200)
        assert norm(v) == inner_product(v, v) == gram([v])[0, 0] == 1.0

    @settings(max_examples=200)
    @given(mixed_ratio_families())
    def test_mixed_ratio_family_past_J(self, family):
        """The Gram past J is the dense Gram of the coordinates past J; at J = 0 it
        is the pairwise inner products and its diagonal the squared norms, all to
        1e-13 of sqrt(g_ii g_jj)."""
        vectors, J = family
        g = gram(vectors, J)
        scale = np.sqrt(np.outer(np.diag(g), np.diag(g)))
        dense = np.array([v.coords(J + 600)[J:] for v in vectors])
        assert np.all(np.abs(g - dense @ dense.T) <= 1e-13 * scale)
        np.testing.assert_array_equal(g, g.T)
        if J == 0:
            assert np.all(np.abs(g - _pairwise_gram(vectors)) <= 1e-13 * scale)
            squares = np.array([norm(v) ** 2 for v in vectors])
            assert np.all(np.abs(squares - np.diag(g)) <= 1e-13 * np.diag(g))

    @settings(max_examples=200)
    @given(PREFIX, COEFFS, RATIOS, st.integers(0, 50), st.integers(1, 12))
    def test_tail_row_is_coords(self, prefix, coeffs, r, past, length):
        v = TailVector(prefix, coeffs, r)
        a = v.anchor + past
        np.testing.assert_array_equal(_tail_row(v, a, length), v.coords(a + length)[a:])


def _rel(value, reference):
    """|value - reference| / |reference| for a float against a nonzero Decimal."""
    return abs(Decimal(value) - reference) / abs(reference)


class TestPowersBelowTheNormalRange:
    """c r^t where r^t underflows and c r^t does not, against 50-digit Decimal."""

    V = TailVector((), (1e200, 1e200), 1e-100)

    @staticmethod
    def exact(c, r, t):
        with localcontext() as ctx:
            ctx.prec = 50
            return Decimal(c) * Decimal(r) ** t

    def test_coordinate_five(self):
        # coordinate 5 is 1e200 * (1e-100)^4 = 1e-200, while (1e-100)^4 underflows
        reference = self.exact(1e200, 1e-100, 4)
        assert _rel(self.V.coords(5)[4], reference) <= 1e-13
        assert _rel(self.V.coordinate(5), reference) <= 1e-13

    def test_remainder_norm(self):
        with localcontext() as ctx:
            ctx.prec = 50
            r2 = Decimal(1e-100) ** 2
            reference = (self.exact(1e200, 1e-100, 4) ** 2 / (1 - r2)).sqrt()
            assert _rel(_remainder_norm(self.V, 4, ELL2), reference) <= 1e-13

    def test_combination_keeps_its_tail(self):
        w = linear_combine([1.0, 1.0], [self.V, unit_vector(5)])
        assert w.anchor == 5 and w.tail_ratio == 1e-100
        for c in w.tail_coeffs:
            assert _rel(c, self.exact(1e200, 1e-100, 5)) <= 1e-13

    def test_diagonal_image(self):
        image = apply(Diagonal((1.0,) * 6, (1.0,)), self.V).coords(6)[4:]
        assert _rel(image[0], self.exact(1e200, 1e-100, 4)) <= 1e-13
        assert _rel(image[1], self.exact(1e200, 1e-100, 5)) <= 1e-13

    @pytest.mark.parametrize(
        "log_c, log_r, t", [(1023, -1022, 2), (1020, -510, 4), (1023, -400, 5), (1023, -300, 6), (1000, -600, 3)]
    )
    def test_several_factors(self, log_c, log_r, t):
        """Powers of two, so c r^t is exact: two or three factors r^k past r^(t mod k)."""
        v = TailVector((), (math.ldexp(1.0, log_c),), math.ldexp(1.0, log_r))
        assert v.coordinate(t + 1) == math.ldexp(1.0, log_c + log_r * t)
        assert v.coordinate(t + 2) == math.ldexp(1.0, log_c + log_r * (t + 1))

    @settings(max_examples=300)
    @given(
        st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 1e-3),
        st.floats(0.5, 1.0, exclude_max=True),
        st.integers(1, 1020),
        st.integers(1, 4000),
        st.sampled_from((1.0, -1.0)),
    )
    def test_every_exponent(self, x, m, e, t, sign):
        """c = x 2^1000 on r = sign m 2^-e: where r^t is normal the row is the plain
        product bit for bit; below, a normal c r^t is within 1e-13 of the reference,
        and one under the least subnormal is 0."""
        c, r = math.ldexp(x, 1000), sign * math.ldexp(m, -e)
        row = seqspace._tail_row(TailVector((), (c,), r), t, 1)[0]
        # an array exponent, as rows take their powers
        if abs(power := (r ** np.array([t], dtype=np.float64))[0]) >= 2.0**-1022:
            assert row == c * power
            return
        reference = self.exact(c, r, t)
        if abs(reference) >= Decimal(2.0**-1022):
            assert _rel(row, reference) <= 1e-13
        elif abs(reference) < Decimal(2.0**-1075):
            assert row == 0.0


def _decimal_remainder(v, J, p):
    """The l^p norm of the exact coordinates of v past J, at 50 digits.

    Coordinates J + 1 .. anchor, then one tail period past max(J, anchor)
    over 1 - |r|^(pP); for p = inf the largest of them.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        head = [abs(Decimal(x)) for x in v.prefix[J:]]
        d, P, R = max(J - v.anchor, 0), v.period, abs(Decimal(v.tail_ratio))
        row = [] if v.has_zero_tail else [abs(Decimal(v.tail_coeffs[(d + s) % P])) * R ** (d + s) for s in range(P)]
        if p == math.inf:
            return max(head + row, default=Decimal(0))
        total = sum(x**p for x in head) + sum(x**p for x in row) / (1 - R ** (p * P))
        return total if p == 1 else total.sqrt()


class TestOneNormPastJ:
    """_remainder_norm is the one l^p norm routine; norm is its J = 0."""

    @settings(max_examples=300)
    @given(PREFIX, COEFFS, RATIOS, st.sampled_from((ELL1, ELL2, ELLINF)), st.data())
    def test_against_decimal_sums(self, prefix, coeffs, r, space, data):
        v = TailVector(prefix, coeffs, r)
        J = data.draw(st.integers(0, v.anchor + 3 * v.period))
        reference = _decimal_remainder(v, J, space.p)
        value = _remainder_norm(v, J, space)
        if reference == 0:
            assert value == 0.0
        else:
            assert _rel(value, reference) <= 1e-13

    @settings(max_examples=300)
    @given(st.one_of(st.tuples(PREFIX, COEFFS, RATIOS), tails().map(lambda t: ((), *t))))
    def test_norm_is_the_remainder_past_zero(self, args):
        """Bit for bit, wide coefficients over tiny ratios included."""
        v = TailVector(*args)
        for space in (ELL1, ELL2, ELLINF):
            assert norm(v, space) == _remainder_norm(v, 0, space)

    def test_remainder_past_any_index(self):
        # past J < anchor the remainder holds prefix coordinates J + 1 .. anchor
        v = TailVector((3.0, 4.0), (1.0,), 0.5)
        assert _remainder_norm(v, 1, ELL1) == 4.0 + 2.0
        assert _remainder_norm(v, 1, ELLINF) == 4.0
        assert _remainder_norm(v, 1, ELL2) == pytest.approx(math.sqrt(16.0 + 4.0 / 3.0), rel=1e-15)
        assert _remainder_norm(TailVector((3.0, 4.0)), 1, ELL2) == 4.0

    @pytest.mark.parametrize("space", (ELL1, ELL2, ELLINF))
    def test_a_numpy_index(self, space):
        v = TailVector((3.0, 4.0), (1.0, -0.5), 0.5)
        assert truncate(v, np.int64(5), space)[1] == truncate(v, 5, space)[1]
