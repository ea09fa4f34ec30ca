import math
import random
from fractions import Fraction as F

from rectcft.series import C, CONE, CZERO, cpoly, eta_inverse_power, partition_numbers
from rectcft.virasoro import (GluingParams, VermaVector, act, amplitude, apply_mode,
                              boundary_state, finitized_state, gluing_residual,
                              homogeneous_gluing, p2_closed_form_check, p_series,
                              pk_conjecture_check, product_amplitude, shapovalov,
                              vacuum)


# ---------------------------------------------------------------- oracles

def straighten(word, coeff=CONE):
    """Independent normal-ordering oracle: PBW bubble sort of an L-mode word.

    `word` is (n1, n2, ...) meaning L_{n1} L_{n2} ... |0>.  Returns a
    {partition: CPoly} map.  Deliberately structured differently from
    rectcft.virasoro.act (whole-word rewriting instead of the recursive
    single-mode action).
    """
    out = {}
    stack = [(tuple(word), coeff)]
    while stack:
        w, co = stack.pop()
        # rightmost operator annihilates the vacuum?
        if w and w[-1] >= -1:
            continue
        # find the rightmost out-of-order adjacent pair (canonical: ascending)
        pos = None
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                pos = i
        if pos is None:
            lam = tuple(sorted((-m for m in w), reverse=True))
            out[lam] = out.get(lam, CZERO) + co
            continue
        a, b = w[pos], w[pos + 1]
        stack.append((w[:pos] + (b, a) + w[pos + 2:], co))
        stack.append((w[:pos] + (a + b,) + w[pos + 2:], co * F(a - b)))
        if a + b == 0:
            stack.append((w[:pos] + w[pos + 2:], co * C * F(a * (a * a - 1), 12)))
    return {k: v for k, v in out.items() if not v.is_zero()}


def expand_exponentials_oracle(factors, cutoff):
    """Multiply out prod e^{x_k L_{-k}} |0> in the free-word basis, then
    normal-order every word with `straighten`."""
    out = {(): CONE}
    for k, x in factors:  # rightmost factor of the product acts first
        new = {}
        for lam, co in out.items():
            jmax = (cutoff - sum(lam)) // k
            for j in range(jmax + 1):
                w = co * F(x) ** j / math.factorial(j)
                key = (k,) * j + lam  # prepend: this factor is further left
                new[key] = new.get(key, CZERO) + w
        out = new
    result = {}
    for word_parts, co in out.items():
        word = tuple(-p for p in word_parts)
        for lam, c2 in straighten(word, co).items():
            if sum(lam) <= cutoff:
                result[lam] = result.get(lam, CZERO) + c2
    return {k: v for k, v in result.items() if not v.is_zero()}


# ---------------------------------------------------------------- apply_mode

class TestApplyMode:
    def test_l2_on_lm2(self):
        v = apply_mode(-2, vacuum(4))
        assert apply_mode(2, v).terms == {(): C * F(1, 2)}

    def test_l0_is_level(self):
        v = VermaVector({(4, 2, 2): CONE}, 8)
        assert apply_mode(0, v).terms == {(4, 2, 2): cpoly(8)}

    def test_l2_on_lm2_squared(self):
        v = VermaVector({(2, 2): CONE}, 4)
        assert apply_mode(2, v).terms == {(2,): C + 8}

    def test_annihilation_of_vacuum(self):
        for n in (-1, 0, 1, 3):
            assert act(n, ()) == {}

    def test_against_word_oracle(self):
        rng = random.Random(42)
        for _ in range(40):
            word = tuple(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(2, 5)))
            expect = straighten(word)
            got = vacuum(30)
            for n in reversed(word):
                got = apply_mode(n, got)
            assert got.terms == expect, word


# ---------------------------------------------------------------- shapovalov

class TestShapovalov:
    def test_lm2_norm(self):
        v = VermaVector({(2,): CONE}, 2)
        assert shapovalov(v, v) == C * F(1, 2)

    def test_lm2_power_formula(self):
        # <L_{-2}^k 0 | L_{-2}^k 0> = (k!/2^k) prod_{p<k} (8p + c)
        for k in range(7):
            v = VermaVector({(2,) * k: CONE}, 2 * k)
            expect = cpoly(F(math.factorial(k), 2 ** k))
            for p in range(k):
                expect = expect * (C + 8 * p)
            assert shapovalov(v, v) == expect

    def test_cross_level_vanishes(self):
        u = VermaVector({(2,): CONE}, 4)
        v = VermaVector({(4,): CONE, (2, 2): C}, 4)
        assert shapovalov(u, v).is_zero()

    def test_symmetry_random_level4(self):
        rng = random.Random(5)
        basis = [(4,), (2, 2)]
        for _ in range(10):
            u = VermaVector({lam: cpoly(rng.randint(-3, 3)) for lam in basis}, 4)
            v = VermaVector({lam: cpoly(rng.randint(-3, 3)) for lam in basis}, 4)
            assert shapovalov(u, v) == shapovalov(v, u)

    def test_level4_against_word_oracle(self):
        # <L_{-4} 0 | L_{-2}^2 0> via full normal ordering of L_4 L_{-2} L_{-2}
        got = shapovalov(VermaVector({(4,): CONE}, 4), VermaVector({(2, 2): CONE}, 4))
        expect = straighten((4, -2, -2)).get((), CZERO)
        # [L_4, L_{-2}] = 6 L_2 and <0|L_2 L_{-2}|0> = c/2, hence 3c
        assert got == expect == C * 3


# ---------------------------------------------------------------- states

class TestBoundaryState:
    def test_level4_exact(self):
        b = boundary_state(4)
        assert b.terms == {(): CONE, (2,): -CONE, (4,): cpoly(F(-1, 2)),
                           (2, 2): cpoly(F(1, 2))}

    def test_level0(self):
        assert boundary_state(0).terms == {(): CONE}

    def test_level6_against_expansion_oracle(self):
        expect = expand_exponentials_oracle([(2, F(-1)), (4, F(-1, 2))], 6)
        assert boundary_state(6).terms == expect

    def test_truncation_stability(self):
        b12 = boundary_state(12)
        for cut in (0, 2, 4, 7, 10):
            assert b12.restrict(cut).terms == boundary_state(cut).terms

    def test_finitized_n1(self):
        v = finitized_state(1, 4)
        assert v.terms == {(): CONE, (2,): -CONE, (2, 2): cpoly(F(1, 2))}

    def test_finitized_n2_adds_lm4(self):
        v = finitized_state(2, 4)
        assert v.coeff((4,)) == cpoly(F(-1, 2))

    def test_finitized_saturates(self):
        assert finitized_state(7, 10).terms == boundary_state(10).terms


# ---------------------------------------------------------------- gluing

class TestGluing:
    def test_vacuum_is_not_boundary_state(self):
        r = gluing_residual(vacuum(4), homogeneous_gluing(2))
        assert r.coeff(()) == C * F(1, 2)
        assert r.coeff((2,)) == -CONE

    def test_odd_n_has_no_anomaly(self):
        g = homogeneous_gluing(1)
        assert (g.htilde_left + g.htilde_right * (-1)).is_zero()
        r = gluing_residual(boundary_state(6), g)
        assert all(co.is_zero() for lam, co in r.terms.items() if sum(lam) <= 5)

    def test_residuals_vanish(self):
        lam_cut = 12
        b = boundary_state(lam_cut)
        for n in range(1, 7):
            r = gluing_residual(b, homogeneous_gluing(n))
            bad = {lam: co for lam, co in r.terms.items()
                   if sum(lam) <= lam_cut - n and not co.is_zero()}
            assert not bad, (n, bad)

    def test_inhomogeneous_params_change_residual(self):
        g = GluingParams(2, htilde_left=CZERO, htilde_right=CZERO)
        r = gluing_residual(boundary_state(8), g)
        assert not all(co.is_zero() for lam, co in r.terms.items() if sum(lam) <= 6)


# ---------------------------------------------------------------- amplitude

class TestAmplitude:
    def test_c2_c4_match_partition_function(self):
        a = amplitude(boundary_state(8), 8)
        assert cpoly(a[2]) == C * F(1, 2)
        assert cpoly(a[4]) == (C * C + 6 * C) * F(1, 8)

    def test_odd_coefficients_vanish(self):
        a = amplitude(boundary_state(9), 9)
        for n in (1, 3, 5, 7, 9):
            assert cpoly(a[n]).is_zero()

    def test_matches_eta_power(self):
        order = 12
        a = amplitude(boundary_state(order), order)
        eta = eta_inverse_power(C * F(1, 2), "qhat", order).series
        for n in range(order + 1):
            assert cpoly(a[n]) == cpoly(eta[n]), n

    def test_coefficient_degree_bound(self):
        a = amplitude(boundary_state(10), 10)
        for n in range(11):
            co = cpoly(a[n])
            assert co.degree <= n // 2
            if not co.is_zero():
                assert co.coeffs[-1] > 0

    def test_product_route_agrees(self):
        assert product_amplitude(None, 14) == amplitude(boundary_state(14), 14)
        assert product_amplitude(2, 10) == amplitude(finitized_state(2, 10), 10)

    def test_prefactor_is_minus_c_over_24(self):
        eta = eta_inverse_power(C * F(1, 2), "qhat", 4)
        assert eta.prefactor_exponent == C * F(-1, 48)  # in q; qhat exponent is -c/24


# ---------------------------------------------------------------- P_N

class TestPSeries:
    def test_p1(self):
        p = p_series(1, 2)
        assert [p[k] for k in range(3)] == [1, 1, F(5, 2)]

    def test_p2(self):
        p = p_series(2, 4)
        assert [p[k] for k in range(5)] == [1, 1, 2, 3, F(33, 4)]

    def test_p2_closed_form(self):
        assert p2_closed_form_check(0)
        assert p2_closed_form_check(4)
        assert p2_closed_form_check(16)

    def test_p3_q8(self):
        assert p_series(3, 8)[8] == F(245, 8)

    def test_first_deviation(self):
        for n, k0, val, pk in ((1, 2, F(5, 2), 2), (2, 4, F(33, 4), 5), (3, 8, F(245, 8), 22)):
            rep = pk_conjecture_check(p_series(n, k0))
            assert rep.first_deviation == k0
            assert rep.deviation_sign == 1
            assert rep.value == val and rep.partition_number == pk

    def test_prefix_is_partition_numbers(self):
        p = p_series(3, 8)
        pk = partition_numbers(7)
        assert [p[k] for k in range(8)] == pk
