import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from rectcft import ising
from rectcft.cli import main
from rectcft.ising import (conformal_label, correlation_matrix, enumerate_low_states,
                           ising_fit_summary, ising_overlap_table, mode_blocks, neg_log_overlap,
                           overlap_allowed, overlap_sq, solve_chain)
from reference import (brute_force_reference, lu_overlap_kernel, many_body_spectrum, mode_matrix,
                       orthogonality_residual)


class TestSolveChain:
    def test_n1(self):
        sol = solve_chain(1)
        assert sol.energies[0] == pytest.approx(2 * math.sin(math.pi / 6), abs=1e-15)
        assert sol.energies[0] == pytest.approx(1.0, abs=1e-15)

    def test_orthogonality_large(self):
        assert orthogonality_residual(solve_chain(500)) < 1e-12

    def test_spectrum_against_brute_force(self):
        for n in (2, 3, 4):
            sol = solve_chain(n)
            free = [e for e, _ in many_body_spectrum(sol)]
            dense, _ = brute_force_reference(n)
            assert np.abs(np.array(free) - dense).max() < 1e-12


class TestCorrelationMatrix:
    def test_ground_state_definition(self):
        sol = solve_chain(3)
        g = correlation_matrix(sol)
        expect = -sol.phi_minus.T @ sol.phi_plus
        assert np.abs(g - expect).max() == 0

    def test_full_excitation_flips_sign(self):
        sol = solve_chain(4)
        g0 = correlation_matrix(sol)
        gall = correlation_matrix(sol, (1, 2, 3, 4))
        assert np.abs(gall + g0).max() == 0

    def test_n2_single_excitation_by_hand(self):
        sol = solve_chain(2)
        g = correlation_matrix(sol, (1,))
        expect = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                expect[i, j] = (sol.phi_minus[0, i] * sol.phi_plus[0, j]
                                - sol.phi_minus[1, i] * sol.phi_plus[1, j])
        assert np.abs(g - expect).max() < 1e-15


class TestOverlaps:
    def test_against_brute_force(self):
        for n in (2, 3, 4):
            sol = solve_chain(n)
            spectrum = many_body_spectrum(sol)
            dense_e, dense_ov = brute_force_reference(n)
            for idx, (e, exc) in enumerate(spectrum):
                assert abs(overlap_sq(sol, exc) - dense_ov[idx]) < 1e-10, (n, exc)

    def test_completeness(self):
        for n in (2, 3, 4):
            sol = solve_chain(n)
            tot = sum(overlap_sq(sol, exc)
                      for r in range(n + 1)
                      for exc in itertools.combinations(range(1, n + 1), r))
            assert tot == pytest.approx(1.0, abs=1e-10)

    def test_reflection_symmetry(self):
        # relabeling sites i -> N+1-i leaves det((1+G)/2) unchanged
        sol = solve_chain(6)
        g = correlation_matrix(sol, (1, 2))
        d1 = np.linalg.det((np.eye(6) + g) / 2)
        gr = g[::-1, ::-1]
        d2 = np.linalg.det((np.eye(6) + gr) / 2)
        assert d1 == pytest.approx(d2, rel=1e-12)

    def test_odd_parity_determinants_vanish(self):
        for n in (2, 5, 20, 101):
            sol = solve_chain(n)
            for exc in ((1,), (2,), (1, 2, 3)):
                if exc[-1] <= n:
                    assert overlap_sq(sol, exc) < 1e-12

    def test_selection_rule(self):
        # forbidden sets carry no weight, neither in det((1+G)/2) nor in the
        # 2^N brute force: each degenerate cluster's weight is its allowed sets'
        for n in range(1, 11):
            sol = solve_chain(n)
            spectrum = many_body_spectrum(sol)
            forbidden = sum(overlap_sq(sol, exc) for _, exc in spectrum
                            if not overlap_allowed(exc))
            assert forbidden < 1e-14, n
            _, dense_ov = brute_force_reference(n)
            cuts = list(np.flatnonzero(np.diff([e for e, _ in spectrum]) > 1e-9) + 1)
            for lo, hi in zip([0] + cuts, cuts + [len(spectrum)]):
                allowed = sum(overlap_sq(sol, exc) for _, exc in spectrum[lo:hi]
                              if overlap_allowed(exc))
                assert abs(dense_ov[lo:hi].sum() - allowed) < 1e-10, (n, lo)

    def test_neg_log_matches_det(self):
        sol = solve_chain(40)
        nlo = neg_log_overlap(sol)
        assert math.exp(-2 * nlo) == pytest.approx(overlap_sq(sol), rel=1e-10)


def check_against_references(records):
    """Each table record against the N x N site-space determinant of its
    state (1e-12 on -log overlaps, 1e-15 on a forbidden state's witness)
    and the allowed ones against the N x N LU route (1e-13)."""
    top = max(max(r.excitation, default=0) for r in records)
    by_n = {}
    for r in records:
        by_n.setdefault(r.n_sites, []).append(r)
    for n, rows in by_n.items():
        sol = solve_chain(n)
        logdet0, a = lu_overlap_kernel(n, min(top, n))
        for r in rows:
            if overlap_allowed(r.excitation):
                ref = neg_log_overlap(sol, r.excitation)
                assert abs(r.neg_log_overlap - ref) <= 1e-12, (n, r.excitation)
                s = [j - 1 for j in r.excitation]
                lu_ref = -0.5 * (logdet0 + np.log(np.linalg.det(a[np.ix_(s, s)])))
                assert abs(r.neg_log_overlap - lu_ref) <= 1e-13, (n, r.excitation)
            else:
                assert r.overlap == 0.0
                ref = overlap_sq(sol, r.excitation)
                assert abs(r.overlap_det - ref) <= 1e-15, (n, r.excitation)


class TestOverlapKernel:
    """The table's one Cholesky per N against the N x N determinant per
    state and the N x N LU of (1 - O)/2."""

    def test_table_against_nxn_references(self):
        ns = (1, 2, 3, 7, 40, 101, 500)
        records = ising_overlap_table(ns, 10)
        assert {r.n_sites for r in records} == set(ns)
        check_against_references(records)

    def test_table_at_cli_cap(self):
        n = 1000  # the largest N that `ising --nmax` accepts
        check_against_references(ising_overlap_table([n], 10))

    def test_one_mode_factorisation_per_n(self, monkeypatch):
        calls = {"correlation_matrix": [], "lu_factor": [], "cho_factor": []}

        def counted(module, name, size):
            original = getattr(module, name)

            def wrapper(arg, *rest, **kw):
                calls[name].append(size(arg))
                return original(arg, *rest, **kw)
            monkeypatch.setattr(module, name, wrapper)

        counted(ising, "correlation_matrix", lambda sol: sol.n_sites)
        counted(ising.scipy.linalg, "lu_factor", len)
        counted(ising.scipy.linalg, "cho_factor", len)
        ising_overlap_table(range(1, 42), 10)
        assert calls["correlation_matrix"] == calls["lu_factor"] == []
        assert sorted(calls["cho_factor"]) == sorted((n + 1) // 2 for n in range(1, 42))

    def test_nonpositive_det_m0_raises(self, monkeypatch, capsys):
        # K = 1 - O_oo with K_11 negated is not positive definite at any N
        blocks = ising.mode_blocks

        def flipped(n_sites, m):
            k, o_oe, l_ee = blocks(n_sites, m)
            k[0, 0] = -k[0, 0]
            return k, o_oe, l_ee

        monkeypatch.setattr(ising, "mode_blocks", flipped)
        with pytest.raises(ArithmeticError):
            ising_overlap_table(range(2, 11, 2), 3)
        assert main(["ising", "--nmax", "16", "--kmax", "3"]) == 1
        assert capsys.readouterr().err.startswith("rectcft: ")


class TestModeBlocks:
    """The parity blocks that the overlap table factorises, at odd and even N."""

    NS = (1, 2, 3, 7, 40, 101, 500, 999, 1000)

    @pytest.mark.parametrize("n", NS)
    def test_match_site_space_product(self, n):
        sol = solve_chain(n)
        o = sol.phi_plus @ sol.phi_minus.T
        k, o_oe, l_ee = mode_blocks(n, n)
        one_minus_o = np.eye(n) - o
        for block, want in ((k, one_minus_o[::2, ::2]), (o_oe, o[::2, 1::2]),
                            (l_ee, one_minus_o[1::2, 1::2])):
            assert block.shape == want.shape
            assert np.abs(block - want).max(initial=0.0) <= 1e-12
        assert np.array_equal(mode_blocks(n, 5)[2], l_ee[:2, :2])

    @pytest.mark.parametrize("n", NS)
    def test_odd_block_positive_definite(self, n):
        k = mode_blocks(n, 0)[0]
        assert np.array_equal(k, k.T)
        assert np.linalg.eigvalsh(k).min() > 1

    @pytest.mark.parametrize("n", NS)
    def test_opposite_parity_blocks_antisymmetric(self, n):
        o = mode_matrix(n)
        assert np.array_equal(o[1::2, ::2], -o[::2, 1::2].T)

    @pytest.mark.parametrize("n", NS)
    def test_even_schur_complement(self, n):
        # S = (1 - O_ee) + O_oe^T K^-1 O_oe is 2 * 1 exactly
        k, o_oe, l_ee = mode_blocks(n, n)
        s = l_ee + o_oe.T @ np.linalg.solve(k, o_oe)
        assert np.abs(s - 2 * np.eye(len(s))).max(initial=0.0) <= 1e-12

    @pytest.mark.parametrize("n", NS)
    def test_det_m0(self, n):
        # det M0 = det K / 2^ceil(N/2), against det((1 + G0)/2) in site space
        sign, logdet = np.linalg.slogdet((np.eye(n) + correlation_matrix(solve_chain(n))) / 2)
        assert sign > 0
        logdet0, _ = ising._overlap_kernel(n, 0)
        assert logdet0 == pytest.approx(logdet, abs=1e-12)


class TestModeMatrix:
    """The whole closed-form O = phi+ phi-^T of the LU reference."""

    @pytest.mark.parametrize("n", (1, 2, 3, 7, 40, 101, 500, 1000))
    def test_matches_site_space_product(self, n):
        sol = solve_chain(n)
        assert np.abs(mode_matrix(n) - sol.phi_plus @ sol.phi_minus.T).max() <= 1e-12

    @pytest.mark.parametrize("n", (1, 2, 3, 7, 40, 101))
    def test_det_m0(self, n):
        m0 = (np.eye(n) + correlation_matrix(solve_chain(n))) / 2
        det = np.linalg.det((np.eye(n) - mode_matrix(n)) / 2)
        assert det == pytest.approx(np.linalg.det(m0), rel=1e-12)

    def test_cayley_transform_structure(self):
        # what `overlap_allowed` relies on: A antisymmetric, A_ab = 0 for a + b even
        n = 40
        o = mode_matrix(n)
        a = (np.eye(n) + o) @ np.linalg.inv(np.eye(n) - o)
        assert np.abs(a + a.T).max() <= 1e-12
        idx = np.arange(1, n + 1)
        assert np.abs(a[np.add.outer(idx, idx) % 2 == 0]).max() <= 1e-12


class TestEnumeration:
    def test_lowest_states(self):
        sol = solve_chain(100)
        states = [exc for _, exc in enumerate_low_states(sol.energies, 10)]
        assert states[0] == ()
        assert states[1] == (1,)
        assert states[3] == (1, 2)
        assert states[7] == (1, 4)
        assert states[8] == (2, 3)

    def test_energies_ascending(self):
        sol = solve_chain(60)
        energies = [e for e, _ in enumerate_low_states(sol.energies, 15)]
        assert energies == sorted(energies)

    def test_matches_exhaustive(self):
        sol = solve_chain(8)
        low = enumerate_low_states(sol.energies, 12)
        full = many_body_spectrum(sol)
        base = -0.5 * sol.energies.sum()
        for (e1, s1), (e2, s2) in zip(low, full):
            assert e1 == pytest.approx(e2 - base, abs=1e-12)

    def test_h_labels(self):
        assert conformal_label(()) == 0
        assert conformal_label((1,)) == F(1, 2)
        assert conformal_label((1, 2)) == 2
        assert conformal_label((1, 4)) == 4
        assert conformal_label((2, 3)) == 4


@pytest.fixture(scope="module")
def summary():
    records = ising_overlap_table(range(2, 201, 2), 8)
    return ising_fit_summary(records)


class TestTableReproduction:

    def test_a1(self, summary):
        assert summary["a1"] == pytest.approx(-0.0625, abs=2e-4)

    def test_alpha(self, summary):
        assert summary["alpha"] == pytest.approx(1.01937, abs=2e-3)

    def test_even_tower_overlaps(self, summary):
        assert summary["overlaps"][3]["value"] == pytest.approx(0.5, abs=2e-3)
        assert summary["overlaps"][7]["value"] == pytest.approx(0.125, abs=2e-3)
        assert summary["overlaps"][8]["value"] == pytest.approx(0.625, abs=2e-3)

    def test_parity_forbidden_rows(self, summary):
        for k in (1, 2, 4, 6):
            assert summary["overlaps"][k]["parity_forbidden"]
            assert summary["overlaps"][k]["value"] == 0.0
            assert summary["overlaps"][k]["max_det"] < 1e-12

    def test_forbidden_witness_is_signed(self):
        # det M0 * minor of a forbidden state rounds to either sign; the
        # records keep it, and max_det is its largest absolute value
        records = ising_overlap_table(range(2, 21, 2), 5)
        summary = ising_fit_summary(records)
        forbidden = [r for r in records if not overlap_allowed(r.excitation)]
        assert any(r.overlap_det < 0 for r in forbidden)
        for k in {r.k for r in forbidden}:
            dets = [r.overlap_det for r in forbidden if r.k == k]
            assert summary["overlaps"][k]["max_det"] == max(map(abs, dets))
