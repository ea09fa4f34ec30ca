import math
import random

import pytest

from rectcft.fitting import (ABSOLUTE_BASIS, RATIO_BASIS, FitError, extract_overlap,
                             fit, ground_state_fit, points_needed, ratio_fit)


def synth(ns, a0=2.0, a1=-0.0625, a2=1.0, a3=3.0):
    return [(n, a0 * n + a1 * math.log(n) + a2 + a3 / n) for n in ns]


class TestFit:
    def test_exact_recovery(self):
        data = synth(range(4, 40, 2))
        r = fit(data, ("N", "logN", "1", "1/N"))
        assert abs(r.coefficient("N") - 2.0) < 1e-10
        assert abs(r.coefficient("logN") + 0.0625) < 1e-10
        assert abs(r.coefficient("1") - 1.0) < 1e-10
        assert abs(r.coefficient("1/N") - 3.0) < 1e-10
        assert r.residual_norm < 1e-10

    def test_reorder_invariance(self):
        data = synth(range(4, 30, 2))
        rng = random.Random(0)
        shuffled = data[:]
        rng.shuffle(shuffled)
        r1 = fit(data, ABSOLUTE_BASIS)
        r2 = fit(shuffled, ABSOLUTE_BASIS)
        for t in ABSOLUTE_BASIS:
            assert r1.coefficient(t) == pytest.approx(r2.coefficient(t), abs=1e-12)

    def test_extra_term_insensitive_on_exact_data(self):
        data = synth(range(4, 60, 2))
        base = fit(data, ("N", "logN", "1", "1/N", "1/N^2"))
        ext = fit(data, ("N", "logN", "1", "1/N", "1/N^2", "1/N^3"))
        for t in ("N", "logN", "1", "1/N"):
            assert abs(base.coefficient(t) - ext.coefficient(t)) < 1e-8

    def test_drop_first(self):
        data = [(2, 99.0), (4, 99.0)] + synth(range(6, 40, 2))
        r = fit(data, ("N", "logN", "1", "1/N"), drop_first=2)
        assert abs(r.coefficient("N") - 2.0) < 1e-9

    def test_rank_deficiency(self):
        data = [(10, 1.0), (10, 1.0), (10, 1.0)]
        with pytest.raises(FitError):
            fit(data, ("1", "1/N"))

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit([(2, 1.0), (4, 2.0)], ("N", "logN", "1"))

    def test_non_finite_point(self):
        # points are named in input order: N = 0 would sort first
        data = synth(range(4, 20, 2)) + [(0, 1.0), (6, math.nan)]
        with pytest.raises(FitError, match=r"^point 9 \(N=0, y=1\) cannot be fitted: "
                                           r"logN, 1/N not finite$"):
            fit(data, ("N", "logN", "1", "1/N"))
        with pytest.raises(FitError, match=r"^point 10 \(N=6, y=nan\) .*: y not finite$"):
            fit(data, ("N", "1"))

    def test_window_spread_nonnegative(self):
        rng = random.Random(1)
        data = [(n, 2 * n + rng.gauss(0, 1e-3)) for n in range(4, 40, 2)]
        r = fit(data, ("N", "1"))
        assert all(s >= 0 for s in r.window_spread.values())
        assert r.window_spread["N"] > 0

    def test_one_window_has_no_spread(self):
        # with no second window nothing was measured: null, not 0.0
        data = synth(range(2, 2 * points_needed(ABSOLUTE_BASIS) + 1, 2))
        gfit, block = ground_state_fit(data)
        assert gfit.window_spread == dict.fromkeys(ABSOLUTE_BASIS, None)
        assert block["a1_spread"] is None and block["alpha_spread"] is None
        ratio = [(n, 0.5 + 1.0 / n) for n in range(2, 2 * points_needed(RATIO_BASIS, 3) + 1, 2)]
        assert ratio_fit(ratio)[1] is None
        assert ratio_fit(ratio + [(40, 0.5 + 1.0 / 40)])[1] >= 0


class TestExtractOverlap:
    def test_inverse_log(self):
        data = [(n, -math.log(0.5) + 2.0 / n) for n in range(8, 40, 2)]
        r = fit(data, RATIO_BASIS)
        assert extract_overlap(r) == pytest.approx(0.5, abs=1e-10)
