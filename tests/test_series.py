import math
import random
from fractions import Fraction as F

import pytest

from rectcft import virasoro
from rectcft.freefield import boson_mode, boson_vacuum
from rectcft.series import (C, CONE, CZERO, CPoly, DivisibilityError, Series, SeriesError,
                            VariableMismatchError, cpoly, eta_inverse_power,
                            exp_truncated, series_exp, series_log, series_pow_c_ratio)
from rectcft.virasoro import VermaVector
from reference import (coeffs, level_component, partitions, poly, poly_add, poly_eval, poly_mul,
                       poly_neg, series_pow_scalar, verma)


def S(coeffs, order=None, var="q"):
    return Series(var, [F(x) for x in coeffs], order=order)


class TestCPoly:
    def test_arith(self):
        p = (C + 2) * (C - 3)
        assert p == CPoly([-6, -1, 1])
        assert p(3) == 0
        assert p(F(1, 2)) == F(-25, 4)

    def test_trim_and_eq(self):
        assert CPoly([1, 0, 0]) == CPoly([1])
        assert CPoly([0]).is_zero()

    def test_eq_with_non_rational_is_false(self):
        assert not C == None  # noqa: E711
        assert C != None  # noqa: E711
        assert C in [None, C]
        assert not CPoly((1,)) == 1.0
        assert CPoly((1,)) == 1 and CPoly((F(1, 2),)) == F(1, 2)

    def test_constant_hashes_as_its_fraction(self):
        # equal keys must hash alike: a constant CPoly finds its int or Fraction
        assert CPoly((1,)) in {1} and CPoly((F(1, 2),)) in {F(1, 2)}
        assert {1: "one", F(1, 2): "half"}[CPoly((F(1, 2),))] == "half"
        assert {CPoly((1,)): "one"}[1] == "one" and {CPoly((F(-3, 4),)): 0}[F(-3, 4)] == 0
        assert hash(CPoly(())) == hash(0) and CPoly(()) in {0}
        assert {C + 1: "c+1"}[CPoly((1, 1))] == "c+1" and C not in {0, 1}

    def test_div_c(self):
        p = C * C + 8 * C
        assert p.div_c() == C + 8
        with pytest.raises(DivisibilityError):
            (C + 1).div_c()

    @staticmethod
    def assert_canonical(p):
        assert all(type(n) is int for n in p.nums) and type(p.den) is int
        assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
        assert not p.nums or p.nums[-1] != 0
        if p.is_zero():
            assert (p.nums, p.den) == ((), 1)

    def test_matches_fraction_reference(self):
        rng = random.Random(2024)

        def scalar():
            n = rng.randint(-6, 6)
            return n if rng.random() < 0.4 else F(n, rng.randint(1, 12))

        def pair():
            cs = [scalar() for _ in range(rng.randint(0, 5))]
            return CPoly(cs), poly(cs)

        for _ in range(300):
            (p, rp), (q, rq) = pair(), pair()
            s = scalar()
            rs = poly([s])
            cases = [(p + q, poly_add(rp, rq)), (p - q, poly_add(rp, poly_neg(rq))),
                     (p * q, poly_mul(rp, rq)), (-p, poly_neg(rp)), (p + q - p, rq),
                     (p + s, poly_add(rp, rs)), (s + p, poly_add(rs, rp)),
                     (p - s, poly_add(rp, poly_neg(rs))),
                     (p * s, poly_mul(rp, rs)), (s * p, poly_mul(rs, rp)),
                     ((p * C).div_c(), rp)]
            for got, want in cases:
                self.assert_canonical(got)
                assert got.coeffs == want
                assert [got[k] for k in range(-1, len(want) + 2)] == \
                    [F(0)] + list(want) + [F(0), F(0)]
                same = CPoly(want)
                assert got == same and hash(got) == hash(same)
                assert (got == s) == (want == rs)
                assert got.to_json() == [str(x) for x in want]
            x = F(rng.randint(-7, 7), rng.randint(1, 5))
            assert p(x) == poly_eval(rp, x) and p(3) == poly_eval(rp, 3)
            assert (p == q) == (rp == rq)
            if rp and rp[0]:
                with pytest.raises(DivisibilityError):
                    p.div_c()


@pytest.mark.parametrize("expr, outcome", [
    pytest.param(lambda: S([1]) == S([1], var="qhat"), False, id="series-other-variable"),
    pytest.param(lambda: S([1]) == 1, False, id="series-vs-non-series"),
    pytest.param(lambda: S([1]) * 2, TypeError, id="series-times-int"),
    pytest.param(lambda: (S([1, 2])[-1], S([1, 2])[5]), (0, 0), id="series-off-window"),
    pytest.param(lambda: repr(CZERO), "0", id="cpoly-zero-repr"),
    pytest.param(lambda: CPoly((0, 1)).constant(), ValueError, id="cpoly-constant-of-c"),
    pytest.param(lambda: CPoly((1.5,)), TypeError, id="cpoly-float"),
    pytest.param(lambda: setattr(CPoly((1,)), "den", 2), AttributeError, id="cpoly-immutable"),
    pytest.param(lambda: setattr(S([1]), "var", "qhat"), AttributeError,
                 id="series-immutable"),
])
def test_edge_cases(expr, outcome):
    if isinstance(outcome, type) and issubclass(outcome, Exception):
        with pytest.raises(outcome):
            expr()
    else:
        assert expr() == outcome


class TestSeriesRing:
    def test_mul_simple(self):
        one_plus = S([1, 1], order=2)
        one_minus = S([1, -1], order=2)
        assert one_plus * one_minus == S([1, 0, -1], order=2)

    def test_geometric_inverse(self):
        geo = S([1] * 6, order=5)
        assert geo * S([1, -1], order=5) == S([1], order=5)

    def test_eta_product_is_partition_numbers(self):
        # build prod_{n<=8} (1-q^n)^{-1} by multiplying geometric factors,
        # check against brute partition enumeration and the closed-form path
        order = 8
        prod = S([1], order=order)
        for n in range(1, order + 1):
            factor = Series("q", [F(1) if k % n == 0 else F(0)
                                  for k in range(order + 1)], order=order)
            prod = prod * factor
        for k in range(9):
            assert prod[k] == count_partitions(k)
        assert [int(prod[k]) for k in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]
        assert prod == eta_inverse_power(1, "q", order).series

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatchError):
            S([1, 1]) * Series("qhat", [F(1)])

    def test_order_truncation(self):
        a = S([1, 1, 1], order=2)
        b = S([1, 2], order=1)
        assert (a * b).order == 1

    def test_ring_axioms_random(self):
        rng = random.Random(7)
        for _ in range(60):
            def rand_series():
                return S([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)], order=5)
            a, b, c = rand_series(), rand_series(), rand_series()
            assert (a * b) * c == a * (b * c)


class TestExpLog:
    def test_exp_zero(self):
        assert series_exp(S([0], order=3)) == S([1], order=3)

    def test_exp_q(self):
        e = series_exp(S([0, 1], order=4))
        assert [e[k] for k in range(5)] == [1, 1, F(1, 2), F(1, 6), F(1, 24)]

    def test_log_p1(self):
        # log(1-4q)^{-1/4} = -(1/4) log(1-4q) = (1/4) sum 4^n q^n / n
        p1 = series_pow_scalar(S([1, -4], order=3), F(-1, 4))
        lg = series_log(p1)
        assert [lg[k] for k in range(4)] == [0, 1, 2, F(16, 3)]

    def test_roundtrip_random(self):
        rng = random.Random(123)
        for _ in range(100):
            coeffs = [F(1)] + [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)]
            a = S(coeffs, order=6)
            assert series_exp(series_log(a)) == a
        for _ in range(100):
            coeffs = [F(0)] + [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)]
            a = S(coeffs, order=6)
            assert series_log(series_exp(a)) == a

    def test_preconditions(self):
        with pytest.raises(SeriesError):
            series_exp(S([1, 1]))
        with pytest.raises(SeriesError):
            series_log(S([2, 1]))


class TestPowScalar:
    def test_p1_expansion(self):
        p = series_pow_scalar(S([1, -4], order=2), F(-1, 4))
        assert [p[k] for k in range(3)] == [1, 1, F(5, 2)]

    def test_pow_zero(self):
        a = S([1, 3, -2], order=2)
        assert series_pow_scalar(a, 0) == S([1], order=2)

    def test_exponent_algebra(self):
        # ((1-q)^{-c})^{2/c} = (1-q)^{-2}
        base = series_pow_scalar(S([1, -1], order=6), -C)
        back = series_pow_c_ratio(base)
        expect = series_pow_scalar(S([1, -1], order=6), F(-2))
        assert back == expect

    def test_divisibility_alarm(self):
        bad = Series("q", [CPoly([1]), CPoly([1, 1])], order=1)  # log coeff 1 + c
        with pytest.raises(DivisibilityError):
            series_pow_c_ratio(bad)


class TestEtaInversePower:
    def test_symbolic_half_c(self):
        eta = eta_inverse_power(C * F(1, 2), "q", 4)
        assert cpoly(eta.series[0]) == 1
        assert cpoly(eta.series[1]) == C * F(1, 2)
        assert cpoly(eta.series[2]) == (C * C + 6 * C) * F(1, 8)
        assert eta.prefactor_exponent == C * F(-1, 48)

    def test_zero_exponent(self):
        assert eta_inverse_power(0, "q", 5).series == S([1], order=5)

    def test_qhat_substitution(self):
        e_q = eta_inverse_power(1, "q", 4).series
        e_qh = eta_inverse_power(1, "qhat", 8).series
        for k in range(5):
            assert e_qh[2 * k] == e_q[k]
            if 2 * k + 1 <= 8:
                assert e_qh[2 * k + 1] == 0

    def test_partition_identity_to_40(self):
        eta = eta_inverse_power(1, "q", 40).series
        assert [eta[k] for k in range(41)] == [count_partitions(k) for k in range(41)]


def count_partitions(k: int) -> int:
    return sum(1 for _ in partitions(k))


class TestPartitionNumbers:
    """p(k) is read off the series of eta_inverse_power(1, "q", k)."""

    def test_known_prefix(self):
        assert eta_inverse_power(1, "q", 7).series.coeffs == (1, 1, 2, 3, 5, 7, 11, 15)

    def test_brute_force_oracle(self):
        p = eta_inverse_power(1, "q", 12).series
        for k in range(13):
            assert p[k] == count_partitions(k)

    def test_p26(self):
        assert eta_inverse_power(1, "q", 26).series[26] == 2436


class Counting:
    """Wraps an operator and counts its applications."""

    def __init__(self, op):
        self.op = op
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.op(*args)


class TestVermaVector:
    """The Verma vector holds integer numerators of h^e (h = c/2) over one
    denominator; `reduced` drops the zeros a cancellation leaves, and the
    CPoly coefficients in c are read off `polys`/`coeff`.  A CPoly scalar
    is checked in test_virasoro.py against the normal-ordering oracle."""

    def test_cancelling_add_scaled_leaves_no_zero(self):
        v = VermaVector({(2,): {0: 1}, (3,): {0: 3}}, 4, 3)  # (1/3) L_{-2} + L_{-3}
        w = v.add_scaled(VermaVector({(2,): {0: 1}}, 4), F(-1, 3))
        assert w.polys() == {(3,): CONE}
        w = w.reduced()
        assert (w.terms, w.den) == ({(3,): {0: 1}}, 1)
        zero = w.add_scaled(w, -1)
        assert zero.is_zero() and zero.polys() == {}
        assert zero.reduced().terms == {}
        assert VermaVector({(2,): {0: 0}}, 4).is_zero()

    def test_coeff_of_missing_key_is_zero(self):
        v = verma({(2,): 2}, 4)
        assert v.coeff((3,)) == 0
        assert v.coeff((2,)) == 2
        assert VermaVector({}, 4).coeff(()) == 0

    def test_level_component(self):
        levels = {(2,): 2, (3,): 3, (2, 2): 4, (4,): 4}
        v = verma(dict.fromkeys(levels, C + 1), 4)
        for lev in (0, 1, 2, 3, 4):
            comp = level_component(v, lev)
            assert type(comp) is VermaVector
            assert comp.polys() == {key: C + 1 for key, kl in levels.items() if kl == lev}


class TestExpTruncated:
    def test_stops_after_n_max(self):
        op = Counting(lambda v: boson_mode(-1, v))
        out = exp_truncated(op, boson_vacuum(10), 2, 3)
        assert op.calls == 3
        assert coeffs(out) == {(): 1, (1,): 2, (1, 1): 2, (1, 1, 1): F(4, 3)}

    def test_stops_at_first_zero_term(self):
        op = Counting(lambda v: boson_mode(-1, v))
        out = exp_truncated(op, boson_vacuum(2), 2, 10)
        assert op.calls == 3  # the third application leaves the cutoff
        assert coeffs(out) == {(): 1, (1,): 2, (1, 1): 2}

    def test_slit_product_caps(self, monkeypatch):
        # lowering: floor(6/2) = 3 applications of L_{-2}; raising: the one
        # factor e^{-L_2} is read through its vacuum covector, no raising mode
        ns = []

        def recorded(n, v):
            ns.append(n)
            return apply_mode(n, v)

        apply_mode = virasoro.apply_mode
        monkeypatch.setattr(virasoro, "apply_mode", recorded)
        amp = virasoro.product_amplitude(1, 6)
        assert ns == [-2, -2, -2]
        assert amp.coeffs[2] == cpoly(C * F(1, 2))
