import json
import random
from fractions import Fraction as F

import pytest

from rectcft import virasoro
from rectcft.freefield import BosonVector, FermionVector, boson_mode, boson_vacuum
from rectcft.series import (C, CPoly, DivisibilityError, Series, SeriesError,
                            VariableMismatchError, cpoly, eta_inverse_power,
                            exp_truncated, partition_numbers, series_exp, series_log,
                            series_one, series_pow_c_ratio, series_pow_scalar)
from rectcft.virasoro import VermaVector


def S(coeffs, order=None, var="q"):
    return Series(var, [F(x) for x in coeffs], order=order)


def enumerate_partitions(n, max_part=None):
    """Brute-force list of partitions of n (descending tuples)."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        out.extend((first,) + rest for rest in enumerate_partitions(n - first, first))
    return out


class TestCPoly:
    def test_arith(self):
        p = (C + 2) * (C - 3)
        assert p == CPoly([-6, -1, 1])
        assert p(3) == 0
        assert p(F(1, 2)) == F(-25, 4)

    def test_trim_and_eq(self):
        assert CPoly([1, 0, 0]) == CPoly([1])
        assert CPoly([0]).is_zero()

    def test_div_c(self):
        p = C * C + 8 * C
        assert p.div_c() == C + 8
        with pytest.raises(DivisibilityError):
            (C + 1).div_c()

    def test_json_roundtrip(self):
        p = C * F(3, 7) - F(1, 2)
        assert CPoly.from_json(json.loads(json.dumps(p.to_json()))) == p


class TestSeriesRing:
    def test_mul_simple(self):
        one_plus = S([1, 1], order=2)
        one_minus = S([1, -1], order=2)
        assert one_plus * one_minus == S([1, 0, -1], order=2)

    def test_geometric_inverse(self):
        geo = S([1] * 6, order=5)
        assert geo * S([1, -1], order=5) == series_one("q", 5)

    def test_eta_product_is_partition_numbers(self):
        # build prod_{n<=8} (1-q^n)^{-1} by multiplying geometric factors,
        # check against brute partition enumeration and the closed-form path
        order = 8
        prod = series_one("q", order)
        for n in range(1, order + 1):
            factor = Series("q", [F(1) if k % n == 0 else F(0)
                                  for k in range(order + 1)], order=order)
            prod = prod * factor
        for k in range(9):
            assert prod[k] == len(enumerate_partitions(k))
        assert [int(prod[k]) for k in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]
        assert prod == eta_inverse_power(1, "q", order).series

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatchError):
            S([1, 1]) * Series("qhat", [F(1)])

    def test_order_truncation(self):
        a = S([1, 1, 1], order=2)
        b = S([1, 2], order=1)
        assert (a * b).order == 1

    def test_offsets(self):
        a = Series("q", [F(1), F(0), F(5)], offset=-2)   # q^-2 + 5, known to q^0
        b = Series("q", [F(1), F(3)], offset=1)          # q + 3q^2, known to q^2
        prod = a * b
        assert prod.offset == -1 and prod.order == 0
        assert prod[-1] == 1 and prod[0] == 3

    def test_ring_axioms_random(self):
        rng = random.Random(7)
        for _ in range(60):
            def rand_series():
                return S([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)], order=5)
            a, b, c = rand_series(), rand_series(), rand_series()
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a

    def test_json_roundtrip(self):
        s = Series("qhat", [C * 2, F(1, 3), C * C - 1], offset=-1)
        assert Series.from_json(json.loads(json.dumps(s.to_json()))) == s


class TestExpLog:
    def test_exp_zero(self):
        assert series_exp(S([0], order=3)) == series_one("q", 3)

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
        assert series_pow_scalar(a, 0) == series_one("q", 2)

    def test_exponent_algebra(self):
        # ((1-q)^{-c})^{2/c} = (1-q)^{-2}
        base = series_pow_scalar(S([1, -1], order=6), -C)
        back = series_pow_c_ratio(base, numerator=2)
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
        assert eta_inverse_power(0, "q", 5).series == series_one("q", 5)

    def test_qhat_substitution(self):
        e_q = eta_inverse_power(1, "q", 4).series
        e_qh = eta_inverse_power(1, "qhat", 8).series
        for k in range(5):
            assert e_qh[2 * k] == e_q[k]
            if 2 * k + 1 <= 8:
                assert e_qh[2 * k + 1] == 0

    def test_partition_identity_to_40(self):
        eta = eta_inverse_power(1, "q", 40).series
        p = partition_numbers(40)
        assert [int(eta[k]) for k in range(41)] == p


class TestPartitionNumbers:
    def test_known_prefix(self):
        assert partition_numbers(7) == [1, 1, 2, 3, 5, 7, 11, 15]

    def test_brute_force_oracle(self):
        p = partition_numbers(12)
        for k in range(13):
            assert p[k] == len(enumerate_partitions(k))

    def test_p26(self):
        assert partition_numbers(26)[26] == 2436


class Counting:
    """Wraps an operator and counts its applications."""

    def __init__(self, op):
        self.op = op
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.op(*args)


# basis keys of each realization with their levels, all within cutoff 4
REALIZATIONS = [
    pytest.param(VermaVector, {(2,): 2, (3,): 3, (2, 2): 4, (4,): 4}, id="verma"),
    pytest.param(BosonVector, {(1,): 1, (2,): 2, (1, 1): 2, (3, 1): 4}, id="boson"),
    pytest.param(FermionVector, {(0,): F(1, 2), (1,): F(3, 2), (1, 0): 2, (2,): F(5, 2),
                                 (3, 0): 4}, id="fermion"),
]


@pytest.mark.parametrize("cls, levels", REALIZATIONS)
class TestGradedVector:
    def test_cancelling_add_scaled_leaves_no_zero(self, cls, levels):
        first, second = list(levels)[:2]
        v = cls({first: F(1, 3), second: 1}, 4)
        w = v.add_scaled(cls({first: 1}, 4), F(-1, 3))
        assert w.terms == {second: 1}
        assert all(co != 0 for co in w.terms.values())
        zero = w.add_scaled(w, -1)
        assert zero.terms == {} and zero.is_zero()
        assert cls({first: 0}, 4).is_zero()

    def test_coeff_of_missing_key_is_zero(self, cls, levels):
        first, second = list(levels)[:2]
        v = cls({first: 2}, 4)
        assert v.coeff(second) == 0
        assert v.coeff(first) == 2
        assert cls({}, 4).coeff(()) == 0

    def test_level_component(self, cls, levels):
        v = cls(dict.fromkeys(levels, 1), 4)
        for lev in set(levels.values()) | {0, 1, 3, F(7, 2)}:
            want = {key for key, kl in levels.items() if kl == lev}
            comp = v.level_component(lev)
            assert type(comp) is cls
            assert set(comp.terms) == want


class TestExpTruncated:
    def test_stops_after_n_max(self):
        op = Counting(lambda v: boson_mode(-1, v))
        out = exp_truncated(op, boson_vacuum(10), 2, 3)
        assert op.calls == 3
        assert out.terms == {(): 1, (1,): 2, (1, 1): 2, (1, 1, 1): F(4, 3)}

    def test_stops_at_first_zero_term(self):
        op = Counting(lambda v: boson_mode(-1, v))
        out = exp_truncated(op, boson_vacuum(2), 2, 10)
        assert op.calls == 3  # the third application leaves the cutoff
        assert out.terms == {(): 1, (1,): 2, (1, 1): 2}

    def test_slit_product_caps(self, monkeypatch):
        # lowering: floor(6/2) = 3 applications of L_{-2}; raising at level
        # 2l: floor(2l/2) = l applications of L_2, none at odd levels
        count = Counting(virasoro.apply_mode)
        monkeypatch.setattr(virasoro, "apply_mode", count)
        amp = virasoro.product_amplitude(1, 6)
        assert count.calls == 3 + (0 + 1 + 2 + 3)
        assert amp.coeffs[2] == cpoly(C * F(1, 2))
