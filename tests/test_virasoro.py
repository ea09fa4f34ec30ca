import math
import random
from fractions import Fraction as F

import pytest

from rectcft import virasoro
from rectcft.series import C, CONE, CZERO, CPoly, cpoly, eta_inverse_power
from rectcft.virasoro import (VermaVector, act, apply_mode, boundary_state, finitized_state,
                              gluing_residual, p_series, pk_conjecture_check, product_amplitude,
                              vacuum, vacuum_functional)
from reference import (amplitude, max_level, p2_closed_form, partitions,
                       product_amplitude_by_chain, product_amplitude_by_level, restrict,
                       shapovalov, verma)


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
                w = co * F(x) ** j * F(1, math.factorial(j))
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
        assert apply_mode(2, v).polys() == {(): C * F(1, 2)}

    def test_l0_is_level(self):
        v = VermaVector({(4, 2, 2): {0: 1}}, 8)
        assert apply_mode(0, v).polys() == {(4, 2, 2): cpoly(8)}

    def test_l2_on_lm2_squared(self):
        v = VermaVector({(2, 2): {0: 1}}, 4)
        assert apply_mode(2, v).polys() == {(2,): C + 8}

    def test_add_scaled_cpoly_scalar_against_word_oracle(self):
        # (L_2 + s L_{-2}) L_{-2}|0> for s = c/3 - 1/2
        s = C * F(1, 3) - F(1, 2)
        v = apply_mode(-2, vacuum(4))
        got = apply_mode(2, v).add_scaled(apply_mode(-2, v), s)
        want = straighten((2, -2))
        for lam, co in straighten((-2, -2)).items():
            want[lam] = want.get(lam, CZERO) + co * s
        assert got.polys() == want
        assert got.coeff((2, 2)) == s and got.coeff(()) == C * F(1, 2)
        # c^e = 2^e h^e: the slots hold degrees in h
        got = got.add_scaled(vacuum(4), C * C)
        assert got.coeff(()) == C * C + C * F(1, 2)
        assert got.terms[()] == {1: 1 * got.den, 2: 4 * got.den}

    def test_annihilation_of_vacuum(self):
        for n in (-1, 0, 1, 3):
            assert act(n, ()) == {}

    def test_images_are_integer_polynomials_in_h(self):
        # every structure constant is an integer times 1 or h = c/2; a
        # lowering mode never brings in h
        for n in range(-6, 9):
            for level in range(13):
                for lam in partitions(level):
                    if 1 in lam:
                        continue
                    for mu, co in act(n, lam).items():
                        assert type(co) is tuple and co and co[-1] != 0, (n, lam, mu)
                        assert all(type(m) is int for m in co), (n, lam, mu)
                        if n < 0:
                            assert len(co) == 1, (n, lam, mu)

    def test_against_word_oracle(self):
        rng = random.Random(42)
        for _ in range(40):
            word = tuple(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(2, 5)))
            expect = straighten(word)
            got = vacuum(30)
            for n in reversed(word):
                got = apply_mode(n, got)
            assert got.polys() == expect, word


# ---------------------------------------------------------------- shapovalov

class TestShapovalov:
    def test_lm2_norm(self):
        v = VermaVector({(2,): {0: 1}}, 2)
        assert shapovalov(v, v) == C * F(1, 2)

    def test_lm2_power_formula(self):
        # <L_{-2}^k 0 | L_{-2}^k 0> = (k!/2^k) prod_{p<k} (8p + c)
        for k in range(7):
            v = VermaVector({(2,) * k: {0: 1}}, 2 * k)
            expect = cpoly(F(math.factorial(k), 2 ** k))
            for p in range(k):
                expect = expect * (C + 8 * p)
            assert shapovalov(v, v) == expect

    def test_cross_level_vanishes(self):
        u = verma({(2,): CONE}, 4)
        v = verma({(4,): CONE, (2, 2): C}, 4)
        assert shapovalov(u, v).is_zero()

    def test_symmetry_random_level4(self):
        rng = random.Random(5)
        basis = [(4,), (2, 2)]
        for _ in range(10):
            u = verma({lam: cpoly(rng.randint(-3, 3)) for lam in basis}, 4)
            v = verma({lam: cpoly(rng.randint(-3, 3)) for lam in basis}, 4)
            assert shapovalov(u, v) == shapovalov(v, u)

    def test_level4_against_word_oracle(self):
        # <L_{-4} 0 | L_{-2}^2 0> via full normal ordering of L_4 L_{-2} L_{-2}
        got = shapovalov(VermaVector({(4,): {0: 1}}, 4), VermaVector({(2, 2): {0: 1}}, 4))
        expect = straighten((4, -2, -2)).get((), CZERO)
        # [L_4, L_{-2}] = 6 L_2 and <0|L_2 L_{-2}|0> = c/2, hence 3c
        assert got == expect == C * 3


# ---------------------------------------------------------------- states

class TestBoundaryState:
    def test_level4_exact(self):
        b = boundary_state(4)
        assert b.polys() == {(): CONE, (2,): -CONE, (4,): cpoly(F(-1, 2)),
                           (2, 2): cpoly(F(1, 2))}

    def test_level0(self):
        assert boundary_state(0).polys() == {(): CONE}

    def test_level6_against_expansion_oracle(self):
        expect = expand_exponentials_oracle([(2, F(-1)), (4, F(-1, 2))], 6)
        assert boundary_state(6).polys() == expect

    def test_truncation_stability(self):
        b12 = boundary_state(12)
        for cut in (0, 2, 4, 7, 10):
            assert restrict(b12, cut).polys() == boundary_state(cut).polys()

    def test_finitized_n1(self):
        v = finitized_state(1, 4)
        assert v.polys() == {(): CONE, (2,): -CONE, (2, 2): cpoly(F(1, 2))}

    def test_finitized_n2_adds_lm4(self):
        v = finitized_state(2, 4)
        assert v.coeff((4,)) == cpoly(F(-1, 2))

    def test_finitized_saturates(self):
        assert finitized_state(7, 10).polys() == boundary_state(10).polys()


class TestCutoff:
    """`apply_mode` drops terms above the cutoff where it makes them, so no
    vector re-checks its partitions: every vector it makes, and every
    state built from them, stays at level <= cutoff.  The adjoint pass of
    `product_amplitude` runs its raising modes through the same
    `apply_mode` on the qhat-tagged vector, and keeps every slot it holds
    at a level <= the order and a degree in h = c/2 <= level / 2, the
    bound its slot width (order // 2 + 1) rests on.  It holds slots only
    from cutoff 4 on, where a factor e^{x L_4} runs; the last factor,
    e^{-L_2}, holds none."""

    @pytest.mark.parametrize("cutoff", range(13))
    def test_max_level_within_cutoff(self, cutoff, monkeypatch):
        made, calls = [], []

        def checked(n, v):
            out = apply_mode(n, v)
            made.append(max_level(out) <= v.cutoff)
            calls.append((n, v, out))
            return out

        monkeypatch.setattr(virasoro, "apply_mode", checked)
        b = boundary_state(cutoff)
        states = [b] + [finitized_state(n, cutoff) for n in range(1, 4)]
        states += [gluing_residual(b, n) for n in range(1, cutoff + 2)]
        start = len(calls)
        product_amplitude(None, cutoff)  # its raising modes act on the tagged vector
        width = cutoff // 2 + 1
        slots = [(sum(lam),) + divmod(t, width)
                 for n, g, out in calls[start:] if n > 0
                 for vec in (g, out) for lam, terms in vec.terms.items() for t in terms]
        assert made and all(made)
        assert all(max_level(v) <= cutoff for v in states)
        assert bool(slots) == (cutoff >= 4)
        assert all(now <= level <= cutoff and 2 * degree <= level
                   for now, level, degree in slots)


# ---------------------------------------------------------------- gluing

class TestGluing:
    def test_vacuum_is_not_boundary_state(self):
        r = gluing_residual(vacuum(4), 2)
        assert r.coeff(()) == C * F(1, 2)
        assert r.coeff((2,)) == -CONE

    def test_odd_n_has_no_anomaly(self):
        b = boundary_state(6)
        for n in (1, 3, 5):
            bare = apply_mode(n, b).add_scaled(apply_mode(-n, b), -1)
            assert gluing_residual(b, n).polys() == bare.polys()
        r = gluing_residual(b, 1)
        assert all(co.is_zero() for lam, co in r.polys().items() if sum(lam) <= 5)

    def test_residuals_vanish(self):
        lam_cut = 12
        b = boundary_state(lam_cut)
        for n in range(1, 7):
            r = gluing_residual(b, n)
            bad = {lam: co for lam, co in r.polys().items()
                   if sum(lam) <= lam_cut - n and not co.is_zero()}
            assert not bad, (n, bad)

    def test_inhomogeneous_params_change_residual(self):
        # corner weights 0 instead of -c/16 drop the constant term
        b = boundary_state(8)
        r = apply_mode(2, b).add_scaled(apply_mode(-2, b), -1)
        assert not all(co.is_zero() for lam, co in r.polys().items() if sum(lam) <= 6)
        assert gluing_residual(b, 2).polys() == r.add_scaled(b, C * F(1, 2)).polys()

    def test_mode_index_at_least_one(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="mode index"):
                gluing_residual(vacuum(4), n)


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
        assert product_amplitude(None, order) == eta

    def test_coefficient_degree_bound(self):
        a = amplitude(boundary_state(10), 10)
        for n in range(11):
            co = cpoly(a[n])
            assert len(co.coeffs) - 1 <= n // 2
            if not co.is_zero():
                assert co.coeffs[-1] > 0

    def test_product_route_agrees(self):
        assert product_amplitude(None, 14) == amplitude(boundary_state(14), 14)
        assert product_amplitude(2, 10) == amplitude(finitized_state(2, 10), 10)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, None])
    def test_one_pass_equals_level_by_level(self, n):
        for order in range(25):
            got, want = product_amplitude(n, order), product_amplitude_by_level(n, order)
            assert (got.var, got.order) == (want.var, want.order) == ("qhat", order)
            assert got == want, (n, order)

    @pytest.mark.parametrize("n", [3, None])
    def test_transposed_last_factor_equals_forward_chain(self, n):
        for order in range(25, 41):
            got, want = product_amplitude(n, order), product_amplitude_by_chain(n, order)
            assert got == want and repr(got) == repr(want), (n, order)

    def test_last_factor_runs_no_adjoint_mode(self, monkeypatch):
        # the adjoint of e^{-L_{-2}} is read through `vacuum_functional`:
        # no apply_mode(2, .) runs, only the raising modes of the other factors
        ns = []

        def recorded(n, v):
            ns.append(n)
            return apply_mode(n, v)

        monkeypatch.setattr(virasoro, "apply_mode", recorded)
        product_amplitude(None, 40)
        assert {n for n in ns if n > 0} == {4, 8, 16, 32}

    def test_runs_no_cpoly_arithmetic(self, monkeypatch):
        # the whole route runs on integers in h; CPolys are only built for the output
        def refused(*args):
            raise AssertionError("CPoly arithmetic inside product_amplitude")

        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            monkeypatch.setattr(CPoly, name, refused)
        amp = product_amplitude(None, 24)
        monkeypatch.undo()
        assert amp == eta_inverse_power(C * F(1, 2), "qhat", 24).series

    def test_covectors_are_shapovalov_entries(self):
        # phi(mu) = <0|L_2^j|mu> = <L_{-2}^j 0|mu>, on every partition with
        # parts >= 2 at every even level <= 12; phi holds the integers of h^e
        support = [lam for level in range(0, 13, 2) for lam in partitions(level)
                   if 1 not in lam]
        for lam in support:
            j = sum(lam) // 2
            phi = vacuum_functional(lam)
            assert all(type(m) is int for m in phi) and phi[-1:] != (0,), lam
            assert len(phi) <= j + 1, lam  # one h per L_2
            got = CPoly(tuple(F(m, 2 ** e) for e, m in enumerate(phi)))
            want = shapovalov(VermaVector({(2,) * j: {0: 1}}, 2 * j),
                              VermaVector({lam: {0: 1}}, 2 * j))
            assert got == want, lam

    def test_p_series_equals_level_by_level(self, monkeypatch):
        got = p_series(3, 12)
        monkeypatch.setattr(virasoro, "product_amplitude", product_amplitude_by_level)
        assert got == p_series(3, 12)

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
        for n in (0, 4, 16):
            assert p_series(2, n) == p2_closed_form(n)

    def test_p3_q8(self):
        assert p_series(3, 8)[8] == F(245, 8)

    def test_first_deviation(self):
        for n, k0, val, pk in ((1, 2, F(5, 2), 2), (2, 4, F(33, 4), 5), (3, 8, F(245, 8), 22)):
            p = p_series(n, k0)
            rep = pk_conjecture_check(p)
            assert rep.first_deviation == k0
            assert rep.deviation_sign == 1
            assert p[k0] == val and sum(1 for _ in partitions(k0)) == pk

    def test_prefix_is_partition_numbers(self):
        p = p_series(3, 8)
        assert [p[k] for k in range(8)] == [sum(1 for _ in partitions(k)) for k in range(8)]
