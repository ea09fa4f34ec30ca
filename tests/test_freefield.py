import hashlib
import importlib.util
import itertools
import math
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import reference
from rectcft import freefield
from rectcft.freefield import (BosonVector, FermionVector, boson_amplitude,
                               boson_boundary_state, boson_gluing_check,
                               boson_mode, boson_norm_sq, boson_product_formula,
                               boson_vacuum, boson_virasoro, fermion_amplitude,
                               fermion_annihilation_check, fermion_boundary_state,
                               fermion_mode,
                               fermion_vacuum, fermion_virasoro, g_from_amatrix,
                               g_series, mode_sum,
                               virasoro_product_state)
from rectcft.series import eta_inverse_power
from reference import coeffs, fermion_level, free_vector, level_component


class Counting:
    """Wraps a monomial action and counts its applications."""

    def __init__(self, op):
        self.op = op
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.op(*args)


# Reference L_n: every ordered pair of modes in a range wide enough for all
# of them, on a copy lifted far above the cutoff so that a creator acting
# first cannot be truncated before its partner annihilator acts.


def lifted_boson_virasoro(n, v):
    bound = v.cutoff + abs(n) + 1
    lifted = BosonVector(dict(v.terms), v.cutoff + 2 * bound, v.den)
    res = {}
    for m in range(-bound, bound + 1):
        if m == 0 or n - m == 0:
            continue
        w = boson_mode(n - m, boson_mode(m, lifted))
        for lam, co in coeffs(w).items():
            if sum(lam) <= v.cutoff:
                res[lam] = res.get(lam, F(0)) + co * F(1, 2)
    return free_vector(BosonVector, res, v.cutoff)


def lifted_fermion_virasoro(n, v):
    bound = 2 * (v.cutoff + abs(n) + 2)
    lifted = FermionVector(dict(v.terms), v.cutoff + bound, v.den)
    res = {}
    for k2 in range(-bound + 1, bound, 2):
        w = fermion_mode(2 * n - k2, fermion_mode(k2, lifted))
        for modes, co in coeffs(w).items():
            if fermion_level(modes) <= v.cutoff:
                res[modes] = res.get(modes, F(0)) + co * F(k2, 4)
    return free_vector(FermionVector, res, v.cutoff)


def random_vectors(cutoff, seed):
    """A boson and a fermion vector with random coefficients on every basis
    state up to `cutoff`."""
    rng = random.Random(seed)
    bkeys = [lam for lev in range(cutoff + 1) for lam in reference.partitions(lev)]
    fkeys = [t for r in range(cutoff + 1)
             for t in itertools.combinations(range(cutoff, -1, -1), r)
             if fermion_level(t) <= cutoff]
    return (free_vector(BosonVector,
                        {k: F(rng.randint(-3, 3), rng.randint(1, 3)) for k in bkeys}, cutoff),
            free_vector(FermionVector,
                        {k: F(rng.randint(-3, 3), rng.randint(1, 3)) for k in fkeys}, cutoff))


# basis keys of each realization with their levels, all within cutoff 4
REALIZATIONS = [
    pytest.param(BosonVector, {(1,): 1, (2,): 2, (1, 1): 2, (3, 1): 4}, id="boson"),
    pytest.param(FermionVector, {(0,): F(1, 2), (1,): F(3, 2), (1, 0): 2, (2,): F(5, 2),
                                 (3, 0): 4}, id="fermion"),
]


@pytest.mark.parametrize("cls, levels", REALIZATIONS)
class TestGradedVector:
    def test_cancelling_add_scaled_leaves_no_zero(self, cls, levels):
        first, second = list(levels)[:2]
        v = free_vector(cls, {first: F(1, 3), second: 1}, 4)
        w = v.add_scaled(cls({first: 1}, 4), F(-1, 3))
        assert coeffs(w) == {second: 1}
        assert all(co != 0 for co in w.terms.values())
        zero = w.add_scaled(w, -1)
        assert coeffs(zero) == {} and zero.is_zero()
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
            comp = level_component(v, lev)
            assert type(comp) is cls
            assert set(comp.terms) == want


def assert_integer_format(v, reduced=True):
    """Nonzero int numerators over one positive int denominator, and with
    `reduced` no common factor left."""
    assert type(v.den) is int and v.den > 0
    assert all(type(n) is int and n for n in v.terms.values())
    if reduced:
        assert math.gcd(v.den, *v.terms.values()) == 1


class TestIntegerFormat:
    """Every free-field operation returns integer numerators over one
    denominator; `mode_sum` and `add_scaled` take the common factor out."""

    WORDS = {"boson": [(F(1, 2), (-1, -1)), (F(2, 3), (1,)), (3, (-2,)), (F(-5, 6), (2, -1))],
             "fermion": [(F(1, 2), (-1, -3)), (F(2, 3), (1,)), (3, (-5,)), (F(-5, 6), (3, -1))]}

    def test_mode_sum_and_add_scaled_are_reduced(self):
        for seed in range(3):
            for v, act, field in zip(random_vectors(5, seed),
                                     (freefield._boson_act, freefield._fermion_act),
                                     ("boson", "fermion")):
                out = mode_sum(act, self.WORDS[field], v, 5)
                assert_integer_format(out)
                assert not out.is_zero()
                for s in (1, -2, F(3, 4), F(-7, 6)):
                    assert_integer_format(v.add_scaled(out, s))
                    assert_integer_format(out.add_scaled(v, s))
                zero = out.add_scaled(out, -1)
                assert_integer_format(zero)
                assert (zero.terms, zero.den) == ({}, 1)

    def test_level_operator(self):
        for v, l_n in zip(random_vectors(5, 1), (boson_virasoro, fermion_virasoro)):
            out = l_n(0, v)
            assert_integer_format(out)
            assert () not in out.terms
        # half-integer levels: psi_{-3/2}|O> at level 3/2, psi_{-1/2}|O> at 1/2
        v = FermionVector({(1,): 1, (0,): 3}, 4)
        out = fermion_virasoro(0, v)
        assert_integer_format(out)
        assert coeffs(out) == {(1,): F(3, 2), (0,): F(3, 2)}

    def test_boundary_states(self):
        assert_integer_format(boson_boundary_state(12))
        assert_integer_format(fermion_boundary_state(10, g_series(10)))

    def test_equality_is_by_value(self):
        assert BosonVector({(1,): 2}, 4, 4) == BosonVector({(1,): 1}, 4, 2)
        assert BosonVector({(1,): 2}, 4, 4) != BosonVector({(1,): 1}, 4, 4)
        assert BosonVector({(1,): 1, (2,): 1}, 4, 2) != BosonVector({(1,): 1}, 4, 2)
        assert FermionVector({(1,): 1}, 4, 2) != BosonVector({(1,): 1}, 4, 2)
        # psi_{-3/2} psi_{-1/2}|O> times 4/2, not reduced, equals it times 2
        assert FermionVector({(1, 0): 4}, 4, 2) == FermionVector({(1, 0): 2}, 4)

    def test_fold_builds_no_fraction(self, monkeypatch):
        vb, vf = random_vectors(5, 2)

        def forbidden(*args):
            raise AssertionError("Fraction built on the fold path")

        monkeypatch.setattr(freefield, "Fraction", forbidden)
        mode_sum(freefield._boson_act, self.WORDS["boson"], vb, 5)
        mode_sum(freefield._fermion_act, self.WORDS["fermion"], vf, F(9, 2))
        vb.add_scaled(vb, F(-1, 3))


class TestModeSum:
    def test_boson_monomial_action(self):
        assert freefield._boson_act(-2, (3, 1)) == (1, (3, 2, 1))
        assert freefield._boson_act(2, (2, 2, 1)) == (4, (2, 1))  # 2 * multiplicity
        assert freefield._boson_act(3, (2, 1)) is None
        assert freefield._boson_act(0, (1,)) is None

    def test_fermion_monomial_action(self):
        assert freefield._fermion_act(-3, (2, 0)) == (-1, (2, 1, 0))
        assert freefield._fermion_act(-5, (2, 0)) is None  # Pauli
        assert freefield._fermion_act(1, (2, 0)) == (-1, (2,))
        assert freefield._fermion_act(3, (2, 0)) is None

    def test_last_mode_acts_first_and_keep_filters(self):
        act = freefield._boson_act
        words = [(1, (1, -1)), (3, (-3,))]
        # a_1 a_{-1}|0> = |0> (a_{-1} a_1|0> would be 0), plus 3 a_{-3}|0>
        assert coeffs(mode_sum(act, words, boson_vacuum(6), 6)) == {(): 1, (3,): 3}
        assert coeffs(mode_sum(act, words, boson_vacuum(6), 2)) == {(): 1}

    def test_word_stops_at_first_zero(self):
        count = Counting(freefield._boson_act)
        out = mode_sum(count, [(1, (-1, 2)), (F(1, 2), (-1, -1))], boson_vacuum(4), 4)
        assert count.calls == 1 + 2  # a_2|0> = 0 ends the first word
        assert coeffs(out) == {(1, 1): F(1, 2)}

    def test_word_stops_per_key(self):
        # a_{-1} a_2 on |0> + a_{-2}|0>: the vacuum stops after one step
        count = Counting(freefield._boson_act)
        v = free_vector(BosonVector, {(): F(1), (2,): F(3)}, 4)
        out = mode_sum(count, [(1, (-1, 2))], v, 4)
        assert count.calls == 1 + 2
        assert coeffs(out) == {(1,): F(6)}

    def test_odd_r2_only(self):
        with pytest.raises(ValueError):
            fermion_mode(2, fermion_vacuum(4))

    def test_level_operator(self):
        v = free_vector(FermionVector, {(): F(2), (1, 0): F(1), (2,): F(3)}, 4)
        assert coeffs(fermion_virasoro(0, v)) == {(1, 0): F(2), (2,): F(15, 2)}


def mode_words(creators, annihilators, rng):
    """Words whose annihilator acts first (last in the tuple), last, or not
    at all, and three-mode words that often die part-way, with random
    weights."""
    words = ([(c, a) for c in creators for a in annihilators]
             + [(a, c) for c in creators for a in annihilators]
             + [(c,) for c in creators] + [(a,) for a in annihilators]
             + [(c, d) for c in creators for d in creators]
             + [tuple(rng.choice(creators + annihilators) for _ in range(3))
                for _ in range(40)])
    return [(F(rng.randint(-3, 3) or 1, rng.randint(1, 3)), word) for word in words]


class TestModeSumAgainstReference:
    """`mode_sum` acts a word only on the keys it takes to a level within
    `keep`; the reference acts every pair and tests the final key."""

    @staticmethod
    def check(act, words, v, keep):
        new, ref = Counting(act), Counting(act)
        out = mode_sum(new, words, v, keep)
        assert list(coeffs(out).items()) == list(
            coeffs(reference.mode_sum(ref, words, v, keep)).items()), keep
        assert new.calls <= ref.calls
        return new.calls, ref.calls

    @pytest.mark.parametrize("cutoff", [3, 6])
    def test_same_terms_in_same_order(self, cutoff):
        rng = random.Random(cutoff)
        saved = 0
        for seed in range(2):
            vb, vf = random_vectors(cutoff, seed)
            top = cutoff + 1
            words = mode_words(list(range(-top, 0)), list(range(0, top + 1)), rng)
            for keep in (-1, 0, cutoff // 2, cutoff - 1, cutoff, cutoff + 2):
                new, ref = self.check(freefield._boson_act, words, vb, keep)
                saved += ref - new
            words = mode_words(list(range(-2 * top - 1, 0, 2)),
                               list(range(1, 2 * top + 2, 2)), rng)
            for keep2 in (-1, 0, 1, cutoff, 2 * cutoff - 1, 2 * cutoff, 2 * cutoff + 3):
                new, ref = self.check(freefield._fermion_act, words, vf, F(keep2, 2))
                saved += ref - new
        assert saved > 0

    def test_empty_word_list(self):
        vb, vf = random_vectors(4, 0)
        self.check(freefield._boson_act, [], vb, 4)
        self.check(freefield._fermion_act, [], vf, 4)
        assert mode_sum(freefield._boson_act, [], vb, 4).is_zero()

    def test_empty_vector(self):
        words = [(F(1, 2), (-1, -1)), (3, (2,))]
        self.check(freefield._boson_act, words, BosonVector({}, 4), 4)
        assert mode_sum(freefield._boson_act, words, BosonVector({}, 4), 4).is_zero()

    def test_int_coefficients(self):
        v = BosonVector({(): 2, (1,): -3, (2, 1): 5, (1, 1): 1}, 6)
        words = [(1, (1, -1)), (2, (-2,)), (-1, (1,)), (1, (-1, -1))]
        self.check(freefield._boson_act, words, v, 6)
        out = mode_sum(freefield._boson_act, words, v, 6)
        assert out.terms and all(type(co) is F for co in coeffs(out).values())

    def test_mixed_int_and_fraction_weights(self):
        vb, vf = random_vectors(4, 1)
        words = [(2, (-1, 1)), (F(-3, 4), (-2,)), (-1, (1,)), (F(5, 6), (-1, -1))]
        self.check(freefield._boson_act, words, vb, 4)
        words = [(2, (-1, 1)), (F(-3, 4), (-3,)), (-1, (3,)), (F(5, 6), (-3, -1))]
        self.check(freefield._fermion_act, words, vf, 4)

    def test_mode_calls_of_coherent_states(self, monkeypatch):
        # the boson half runs the exp route of tests/reference.py, which
        # folds its mode sum through `mode_sum` like the fermion state
        g = g_series(20)
        bref, fref = reference.boson_boundary_state(24), fermion_boundary_state(20, g)
        boson = Counting(freefield._boson_act)
        fermion = Counting(freefield._fermion_act)
        monkeypatch.setattr(freefield, "_boson_act", boson)
        monkeypatch.setattr(freefield, "_fermion_act", fermion)
        bstate = reference.boson_boundary_state(24)
        fstate = fermion_boundary_state(20, g)
        monkeypatch.undo()
        # acting every (word, key) pair made 6528 and 14310 calls
        assert (boson.calls, fermion.calls) == (1236, 1363)
        # the level test grades by the vector, whatever wraps the action
        assert list(bstate.terms.items()) == list(bref.terms.items())
        assert list(fstate.terms.items()) == list(fref.terms.items())


def test_amplitude_matches_fraction_binning():
    for seed in range(2):
        vb, vf = random_vectors(6, seed)
        for order in (0, 3, 6, 8):
            assert (freefield._amplitude(vb, freefield.boson_norm_sq, order)
                    == reference.free_amplitude(vb, freefield.boson_norm_sq, order))
            assert (freefield._amplitude(vf, lambda modes: 1, order)
                    == reference.free_amplitude(vf, lambda modes: 1, order))


class TestVirasoroAgainstLiftedReference:
    @pytest.mark.parametrize("cutoff", [0, 1, 4, 7])
    def test_term_for_term(self, cutoff):
        for seed in range(2):
            vb, vf = random_vectors(cutoff, seed)
            for n in range(-(cutoff + 1), cutoff + 2):
                if n == 0:
                    continue
                assert boson_virasoro(n, vb) == lifted_boson_virasoro(n, vb), (cutoff, n)
                assert fermion_virasoro(n, vf) == lifted_fermion_virasoro(n, vf), (cutoff, n)

    def test_mode_calls_of_level8_products(self, monkeypatch):
        boson = Counting(freefield._boson_act)
        fermion = Counting(freefield._fermion_act)
        monkeypatch.setattr(freefield, "_boson_act", boson)
        monkeypatch.setattr(freefield, "_fermion_act", fermion)
        bprod = virasoro_product_state(boson_virasoro, boson_vacuum(8), 8, 3)
        fprod = virasoro_product_state(fermion_virasoro, fermion_vacuum(8), 8, 3)
        made = boson.calls, fermion.calls
        boson.calls = fermion.calls = 0
        blift = virasoro_product_state(lifted_boson_virasoro, boson_vacuum(8), 8, 3)
        flift = virasoro_product_state(lifted_fermion_virasoro, fermion_vacuum(8), 8, 3)
        # 431 and 325 here, against 1970 and 1782 for the lifted reference
        assert made[0] < boson.calls / 3
        assert made[1] < fermion.calls / 3
        monkeypatch.undo()
        assert bprod == blift == boson_boundary_state(8)
        assert fprod == flift == fermion_boundary_state(8, g_series(8))


def test_freefield_workload_series_match_benchmark_digest(monkeypatch):
    """The exact series of the benchmark's `freefield` workload, in its
    canonical encoding, against its recorded SHA-256 (read, not run)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = {"boson_amplitude": boson_amplitude(48),
           "boson_product_formula": boson_product_formula(48),
           "g_series": g_series(32),
           "fermion_amplitude": fermion_amplitude(32)}
    digest = hashlib.sha256(workloads.freefield_exact_json(out)).hexdigest()
    assert digest == workloads.DIGESTS["full"]["freefield.exact"]


# ------------------------------------------------------------------- boson

class TestBosonState:
    @pytest.mark.parametrize("cutoff", [*range(31), 48])
    def test_product_form_matches_exp_route(self, cutoff):
        b, ref = boson_boundary_state(cutoff), reference.boson_boundary_state(cutoff)
        assert b.terms == ref.terms
        assert (b.den, b.cutoff) == (ref.den, ref.cutoff)

    def test_level2(self):
        b = boson_boundary_state(2)
        assert coeffs(b) == {(): F(1), (1, 1): F(-1, 2)}

    def test_level4_direct_expansion(self):
        # exp(-a_{-1}^2/2 - a_{-2}^2/4)|0> at level 4:
        # (1/2)(a_{-1}^2/2)^2 -> +1/8 a_{-1}^4, and -1/4 a_{-2}^2
        b = boson_boundary_state(4)
        assert b.coeff((1, 1, 1, 1)) == F(1, 8)
        assert b.coeff((2, 2)) == F(-1, 4)
        assert b.coeff((2, 1, 1)) == 0

    def test_gluing(self):
        b = boson_boundary_state(5)
        for m in (1, 2, 3):
            assert boson_gluing_check(b, m).is_zero()

    def test_gluing_level10(self):
        b = boson_boundary_state(10)
        for m in range(1, 11):
            assert boson_gluing_check(b, m).is_zero(), m

    def test_ap_squared_subtlety(self):
        # a_p^2 |B> = (a_{-p}^2 - p)|B>, the source of the n c/8 anomaly term
        b = boson_boundary_state(6)
        p = 2
        lhs = boson_mode(p, boson_mode(p, b))
        rhs = boson_mode(-p, boson_mode(-p, b)).add_scaled(b, F(-p))
        keep = b.cutoff - 2 * p
        lhs_t = {k: v for k, v in coeffs(lhs).items() if sum(k) <= keep}
        rhs_t = {k: v for k, v in coeffs(rhs).items() if sum(k) <= keep}
        assert lhs_t == rhs_t


class TestBosonVirasoro:
    def test_l0(self):
        v = free_vector(BosonVector, {(3,): F(1)}, 4)
        assert coeffs(boson_virasoro(0, v)) == {(3,): F(3)}

    def test_l2_on_a1a1(self):
        v = free_vector(BosonVector, {(1, 1): F(1)}, 4)
        out = boson_virasoro(2, v)
        assert coeffs(out) == {(): F(1)}  # = c/2 at c = 1

    def test_algebra_on_random_vectors(self):
        rng = random.Random(3)
        cutoff = 8
        for _ in range(5):
            lams = [(), (1,), (2, 1), (3,), (2, 2)]
            v = free_vector(BosonVector, {lam: F(rng.randint(-3, 3)) for lam in lams}, cutoff)
            for m in (-2, -1, 1, 2, 3):
                for n in (-3, -1, 1, 2):
                    if m == -n:
                        continue  # central term checked separately
                    lhs = boson_virasoro(m, boson_virasoro(n, v)).add_scaled(
                        boson_virasoro(n, boson_virasoro(m, v)), F(-1))
                    rhs = boson_virasoro(m + n, v)
                    keep = cutoff - max(0, -(m + n)) - max(abs(m), abs(n))
                    lt = {k: c for k, c in coeffs(lhs).items() if sum(k) <= keep}
                    rt = {k: c for k, c in coeffs(rhs).items() if sum(k) <= keep}
                    rt = {k: c * (m - n) for k, c in rt.items() if c}
                    assert lt == {k: c for k, c in rt.items() if c}, (m, n)

    def test_central_term_c_equals_1(self):
        # [L_m, L_{-m}] |0> = 2m L_0 |0> + (1/12) m(m^2-1)|0> at c = 1
        for m in (2, 3):
            v = boson_vacuum(8)
            lhs = boson_virasoro(m, boson_virasoro(-m, v))
            assert lhs.coeff(()) == F(m * (m * m - 1), 12)

    def test_product_equals_coherent_to_level8(self):
        prod = virasoro_product_state(boson_virasoro, boson_vacuum(8), 8, 3)
        assert prod == boson_boundary_state(8)


class TestBosonAmplitude:
    def test_normalized(self):
        assert boson_amplitude(0)[0] == 1

    def test_q1_coefficient(self):
        # product formula m=1, s=1 term: (2s)!/(s!s!) (q/4) = q/2
        assert boson_product_formula(4)[2] == F(1, 2)
        assert boson_amplitude(2)[2] == F(1, 2)

    def test_matches_eta_half(self):
        order = 16
        amp = boson_amplitude(order)
        eta = eta_inverse_power(F(1, 2), "qhat", order).series
        assert amp == eta

    def test_matches_product_formula(self):
        assert boson_amplitude(12) == boson_product_formula(12)

    def test_norms(self):
        assert boson_norm_sq((1, 1)) == 2
        assert boson_norm_sq((3, 2, 2)) == 3 * 4 * 2


# ----------------------------------------------------------------- fermion

# closed-form values of the quadratic form, frozen from the exact expansion
G_REFERENCE = {(0, 1): F(1, 2),
             (0, 3): F(1, 8), (1, 2): F(5, 8),
             (0, 5): F(1, 16), (1, 4): F(3, 16), (2, 3): F(5, 8),
             (0, 7): F(5, 128), (1, 6): F(13, 128), (2, 5): F(25, 128),
             (3, 4): F(81, 128)}


class TestGSeries:
    def test_reference_values(self):
        g = g_series(8)
        for (m, n), val in G_REFERENCE.items():
            assert g[m, n] == val, (m, n)

    def test_matches_fraction_reference(self):
        """The dyadic recurrence against the O(cutoff^3) Fraction route,
        entry for entry; every entry is dyadic, and G_mn = 0 for m + n even."""
        for cutoff in range(33):
            pairs = list(g_series(cutoff).pairs())
            assert pairs == list(reference.g_series(cutoff).pairs()), cutoff
            for m, n, g in pairs:
                den = g.denominator
                assert den & (den - 1) == 0, (m, n, g)
                assert (m + n) % 2 == 1, (m, n, g)
        assert len(pairs) == 17 * 16  # every m < n <= 32 with m + n odd

    def test_antisymmetry_and_parity(self):
        g = g_series(10)
        for m in range(11):
            for n in range(11):
                assert g[m, n] == -g[n, m]
                if (m + n) % 2 == 0:
                    assert g[m, n] == 0

    def test_amatrix_route_converges(self):
        g = g_series(8)
        errs = []
        for cutoff in (50, 100, 200, 400):
            gn = g_from_amatrix(cutoff)
            err = max(abs(gn[m, n] - float(g[m, n]))
                      for m in range(8) for n in range(8))
            errs.append(err)
        assert errs[2] < 5e-3          # truncation 200 vs exact table
        assert errs == sorted(errs, reverse=True)  # error decreasing in cutoff

    def test_amatrix_antisymmetric(self):
        gn = g_from_amatrix(100)
        assert np.abs(gn + gn.T).max() < 1e-10

    def test_amatrix_parity(self):
        gn = g_from_amatrix(200)
        for m in range(8):
            for n in range(8):
                if (m + n) % 2 == 0:
                    assert abs(gn[m, n]) < 5e-3


class TestFermionState:
    def test_level0(self):
        b = fermion_boundary_state(0, g_series(1))
        assert coeffs(b) == {(): F(1)}

    def test_level2_matches_g01(self):
        b = fermion_boundary_state(2, g_series(2))
        # coefficient of the monomial psi_{-1/2} psi_{-3/2} (as in the
        # quadratic form) is +G_01; in the descending canonical basis the
        # reordering sign makes the stored coefficient -G_01
        assert b.coeff((1, 0)) == -F(1, 2)

    def test_level4_matches_g_table(self):
        b = fermion_boundary_state(4, g_series(4))
        assert b.coeff((3, 0)) == -F(1, 8)
        assert b.coeff((2, 1)) == -F(5, 8)

    def test_even_parity_only(self):
        b = fermion_boundary_state(9, g_series(9))
        assert all(len(modes) % 2 == 0 for modes in b.terms)

    def test_annihilation(self):
        g = g_series(10)
        b = fermion_boundary_state(10, g)
        for m in (0, 1, 2, 3):
            assert fermion_annihilation_check(b, m, g).is_zero(), m

    def test_annihilation_on_vacuum_alone(self):
        v = fermion_vacuum(4)
        assert fermion_mode(2 * 0 + 1, v).is_zero()


class TestFermionVirasoro:
    def test_l0_eigenvalue(self):
        v = free_vector(FermionVector, {(1, 0): F(1)}, 4)
        assert coeffs(fermion_virasoro(0, v)) == {(1, 0): F(2)}

    def test_shapovalov_quarter(self):
        # <L_{-2} O | L_{-2} O> = c/2 = 1/4 at c = 1/2
        v = fermion_virasoro(-2, fermion_vacuum(4))
        assert coeffs(v) == {(1, 0): F(1, 2)}
        w = fermion_virasoro(2, v)
        assert w.coeff(()) == F(1, 4)

    def test_algebra_on_random_vectors(self):
        rng = random.Random(11)
        cutoff = 7
        basis = [(), (1, 0), (2, 1), (3, 0), (2, 0), (1,)]
        for _ in range(4):
            v = free_vector(FermionVector, {b: F(rng.randint(-2, 2)) for b in basis}, cutoff)
            for m in (-3, -2, -1, 1, 2, 3):
                for n in (-2, 1, 3):
                    if m == -n:
                        continue
                    lhs = fermion_virasoro(m, fermion_virasoro(n, v)).add_scaled(
                        fermion_virasoro(n, fermion_virasoro(m, v)), F(-1))
                    rhs = fermion_virasoro(m + n, v)
                    keep = cutoff - max(0, -(m + n)) - max(abs(m), abs(n))
                    lt = {k: c for k, c in coeffs(lhs).items() if fermion_level(k) <= keep}
                    rt = {k: c * (m - n) for k, c in coeffs(rhs).items()
                          if fermion_level(k) <= keep}
                    assert lt == {k: c for k, c in rt.items() if c}, (m, n)

    def test_central_term_c_equals_half(self):
        for m in (2, 3):
            lhs = fermion_virasoro(m, fermion_virasoro(-m, fermion_vacuum(8)))
            assert lhs.coeff(()) == F(1, 2) * F(m * (m * m - 1), 12)

    def test_product_equals_coherent_to_level8(self):
        prod = virasoro_product_state(fermion_virasoro, fermion_vacuum(8), 8, 3)
        coh = fermion_boundary_state(8, g_series(8))
        assert prod == coh


class TestFermionAmplitude:
    def test_low_order_coefficients(self):
        amp = fermion_amplitude(8)
        assert amp[2] == F(1, 4)
        assert amp[4] == F(13, 32)
        assert amp[6] == F(55, 128)
        assert amp[8] == F(1235, 2048)

    def test_odd_levels_vanish(self):
        amp = fermion_amplitude(9)
        for n in (1, 3, 5, 7, 9):
            assert amp[n] == 0

    def test_matches_eta_quarter(self):
        order = 10
        amp = fermion_amplitude(order)
        eta = eta_inverse_power(F(1, 4), "qhat", order).series
        assert amp == eta
