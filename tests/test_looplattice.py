import math

import numpy as np
import pytest
import scipy.linalg as sla

from rectcft import looplattice
from rectcft.looplattice import (DegenerateNormError, ShortfallError, adjacent_state,
                                 enumerate_links, gram, gram_row, hamiltonian, link_basis,
                                 loop_fit_summary, overlap_table, parse_p, reflection_sector,
                                 sparse_structure, spectrum, spectrum_dense, spectrum_sparse,
                                 spl, tl_generator_matrix)
from reference import apply_tl, boundary_link_state, full_space_spectrum, loops_between

BETA3 = 2 * math.cos(math.pi / 4)  # p = 3


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


class TestLinkStates:
    def test_counts(self):
        assert len(enumerate_links(2)) == 1
        assert len(enumerate_links(4)) == 2
        assert len(enumerate_links(12)) == 132
        for n in (2, 4, 6, 8, 10):
            assert len(enumerate_links(n)) == catalan(n // 2)

    def test_n4_states(self):
        # (12)(34) and (14)(23), in lexicographic order
        assert enumerate_links(4).tolist() == [[1, 0, 3, 2], [3, 2, 1, 0]]
        # the cached basis is shared by every caller, so it is read-only
        basis = link_basis(4)
        assert basis is link_basis(4)
        assert np.array_equal(basis.partners, enumerate_links(4))
        # e_1 and e_3 close a loop on (12)(34); e_2 takes it to (14)(23)
        assert basis.moves[0].tolist() == [0, 1, 0]
        with pytest.raises(ValueError):
            basis.moves[0, 0] = 1
        with pytest.raises(ValueError):
            basis.partners[0, 0] = 1
        with pytest.raises(ValueError):
            enumerate_links(4)[0, 0] = 1

    def test_planarity(self):
        for s in enumerate_links(8):
            for i in range(8):
                for j in range(8):
                    a, b = sorted((i, s[i]))
                    c, d = sorted((j, s[j]))
                    crossing = a < c < b < d
                    assert not crossing


def crossing(s) -> bool:
    arcs = [(x, s[x]) for x in range(len(s)) if s[x] > x]
    return any(a < c < b < d for a, b in arcs for c, d in arcs)


class TestAgainstScalarReferences:
    """The whole-array link combinatorics against the one-state references."""

    def test_partner_rows_in_enumeration_order(self):
        for n in range(2, 15, 2):
            rows = [tuple(r) for r in enumerate_links(n).tolist()]
            # Catalan(N/2) distinct non-crossing matchings are all of them;
            # sorted means lexicographic order, the order of the first-arc split
            assert len(rows) == catalan(n // 2)
            assert rows == sorted(set(rows))
            for s in rows:
                assert all(s[s[x]] == x != s[x] for x in range(n))
                assert not crossing(s)
            assert rows[0] == tuple(adjacent_state(n).tolist())

    def test_moves_against_apply_tl(self):
        for n in range(2, 15, 2):
            basis = link_basis(n)
            rows = [tuple(r) for r in basis.partners.tolist()]
            rank = {s: k for k, s in enumerate(rows)}
            for k, s in enumerate(rows):
                for i in range(n - 1):
                    t, closed = apply_tl(i, s)
                    assert basis.moves[k, i] == rank[t]
                    assert (basis.moves[k, i] == k) == closed

    def test_gram_against_loops_between(self):
        for n in range(2, 13, 2):
            rows = link_basis(n).partners.tolist()
            loops = [[loops_between(s, t) for t in rows] for s in rows]
            for beta in (BETA3, 2.0):
                assert gram(n, beta).tolist() == [[beta ** m for m in r] for r in loops]

    def test_gram_row_at_random_anchors(self):
        partners = link_basis(18).partners
        rows = partners.tolist()
        for anchor in np.random.default_rng(7).choice(len(rows), size=4, replace=False):
            loops = [loops_between(rows[anchor], t) for t in rows]
            for beta in (BETA3, 2.0):
                row = gram_row(partners, beta, partners[anchor])
                assert row.tolist() == [beta ** m for m in loops]


class TestReflection:
    """x -> N-1-x on the link basis: an involution that commutes with every
    e_i (e_i goes to e_{N-2-i}) and fixes B."""

    def test_involution_and_mirror_image(self):
        for n in range(2, 17, 2):
            basis = link_basis(n)
            r = basis.reflection
            assert np.array_equal(r[r], np.arange(len(r)))
            # the mirror image of partner row s is x -> N-1-s[N-1-x]
            assert np.array_equal(basis.partners[r], n - 1 - basis.partners[:, ::-1])
        with pytest.raises(ValueError):
            link_basis(6).reflection[0] = 1

    def test_commutes_with_moves(self):
        for n in range(2, 17, 2):
            basis = link_basis(n)
            r, moves = basis.reflection, basis.moves
            for i in range(n - 1):
                assert np.array_equal(moves[r, n - 2 - i], r[moves[:, i]])

    def test_fixes_the_boundary_state(self):
        for n in range(2, 19, 2):
            basis = link_basis(n)
            assert basis.partners[0].tolist() == adjacent_state(n).tolist()
            assert basis.reflection[0] == 0
            for beta in (BETA3, 2.0):
                row = gram_row(basis.partners, beta, adjacent_state(n))
                assert row[basis.reflection].tolist() == row.tolist()

    def test_fixed_state_count(self):
        # a fixed matching is fixed by its left half: C(N/2, floor(N/4))
        fixed = {n: int(np.count_nonzero(link_basis(n).reflection == np.arange(catalan(n // 2))))
                 for n in range(2, 25, 2)}
        assert fixed == {n: math.comb(n // 2, n // 4) for n in fixed}
        assert (fixed[20], fixed[22], fixed[24]) == (252, 462, 924)

    def test_sector_operators_restrict_h(self):
        # H E = E M and H^T E = E M_T on each sector's embedding E, exactly
        for n in range(2, 15, 2):
            for beta in (BETA3, parse_p(5).beta, 2.0):
                h = sparse_structure(n, beta)
                dims = []
                for parity in (1, -1):
                    op, op_t, embed = reflection_sector(n, beta, parity)
                    dims.append(op.shape[0])
                    assert np.array_equal((h @ embed).toarray(), (embed @ op).toarray())
                    assert np.array_equal((h.T @ embed).toarray(), (embed @ op_t).toarray())
                    # a sector vector's link components are 1 and the parity
                    assert set(embed.data) <= {1.0, float(parity)}
                fixed = math.comb(n // 2, n // 4)
                assert dims == [(catalan(n // 2) + fixed) // 2, (catalan(n // 2) - fixed) // 2]
        # N = 2 and 4: every state is fixed, the odd sector is empty
        assert reflection_sector(4, BETA3, -1)[0].shape == (0, 0)

    def test_sector_energies_match_full_eig(self):
        for p in (3, 4, 5, 6, math.inf):
            beta = parse_p(p).beta
            for n in range(2, 13, 2):
                full = np.sort(sla.eigvals(hamiltonian(n, beta)).real)
                sectors = np.sort(np.concatenate(
                    [sla.eigvals(reflection_sector(n, beta, parity)[0].toarray()).real
                     for parity in (1, -1)]))
                assert np.abs(full - sectors).max() < 1e-9 * max(1.0, np.abs(full).max())


class TestTLAction:
    def test_idempotent_up_to_loop(self):
        s = (1, 0, 3, 2)
        t, closed = apply_tl(0, s)
        assert t == s and closed

    def test_e2_moves_pairing(self):
        t, closed = apply_tl(1, (1, 0, 3, 2))
        assert t == (3, 2, 1, 0) and not closed

    def test_tl_relations_as_matrices(self):
        for n, beta in ((4, BETA3), (6, 1.3), (8, 2.0), (12, BETA3)):
            es = [tl_generator_matrix(i, n, beta) for i in range(n - 1)]
            for i in range(n - 1):
                assert np.abs(es[i] @ es[i] - beta * es[i]).max() < 1e-12
            for i in range(n - 2):
                assert np.abs(es[i] @ es[i + 1] @ es[i] - es[i]).max() < 1e-12
                assert np.abs(es[i + 1] @ es[i] @ es[i + 1] - es[i + 1]).max() < 1e-12
            for i in range(n - 1):
                for j in range(i + 2, n - 1):
                    assert np.abs(es[i] @ es[j] - es[j] @ es[i]).max() < 1e-12


class TestGram:
    def test_two_loop_gluing_example(self):
        # gluing <(12)(36)(45)| against |(16)(23)(45)> forms exactly two
        # closed loops, value beta^2
        s1 = (1, 0, 5, 4, 3, 2)   # arcs (12)(36)(45)
        s2 = (5, 2, 1, 4, 3, 0)   # arcs (16)(23)(45)
        assert loops_between(s1, s2) == 2
        assert BETA3 ** loops_between(s1, s2) == pytest.approx(BETA3 ** 2)

    def test_diagonal(self):
        for n in (2, 4, 6):
            g = gram(n, BETA3)
            assert np.allclose(np.diag(g), BETA3 ** (n / 2))

    def test_n4_gram(self):
        g = gram(4, 1.5)
        b = 1.5
        adj, other = 0, 1  # (12)(34), (14)(23)
        assert g[adj, adj] == pytest.approx(b ** 2)
        assert g[adj, other] == pytest.approx(b)

    def test_h_self_adjoint_wrt_gram(self):
        for n in (4, 6, 8, 10, 12):
            h = hamiltonian(n, BETA3)
            g = gram(n, BETA3)
            assert np.abs(g @ h - h.T @ g).max() < 1e-9


class TestHamiltonian:
    def test_sum_of_generator_matrices(self):
        # the one sparse build against -sum_i e_i of the dense e_i; they may
        # differ only in how the diagonal beta * (closed loops) is rounded
        for p in (2, 3, 4, 5, 6, math.inf):
            beta = parse_p(p).beta
            for n in range(2, 15, 2):
                h = hamiltonian(n, beta)
                expect = -sum(tl_generator_matrix(i, n, beta) for i in range(n - 1))
                assert np.abs(h - expect).max() <= 4 * np.spacing(np.abs(h).max())

    def test_n2(self):
        assert hamiltonian(2, 1.7) == pytest.approx(np.array([[-1.7]]))

    def test_n4_by_hand(self):
        beta = 1.5
        a, b = 0, 1  # (12)(34), (14)(23)
        h = hamiltonian(4, beta)
        # e1+e3 act diagonally on (12)(34); e2 maps it to (14)(23), and v.v.
        expect = np.zeros((2, 2))
        expect[a, a] = -2 * beta
        expect[b, a] = -1
        expect[a, b] = -2
        expect[b, b] = -beta
        assert np.abs(h - expect).max() < 1e-14

    def test_ground_energy_n2(self):
        entries = spectrum(2, BETA3, 0)
        assert entries[0].energy == pytest.approx(-BETA3)

    def test_ground_energy_n4_closed_form(self):
        # 2x2 characteristic polynomial of [[-2b, -2], [-1, -b]]:
        # E^2 + 3b E + 2b^2 - 2 = 0, ground root (-3b - sqrt(b^2 + 8))/2
        beta = BETA3
        expect = (-3 * beta - math.sqrt(beta ** 2 + 8)) / 2
        entries = spectrum(4, beta, 0)
        assert entries[0].energy == pytest.approx(expect, rel=1e-12)


class TestBoundaryState:
    def test_coefficient(self):
        v = boundary_link_state(4, BETA3)
        assert enumerate_links(4)[0].tolist() == adjacent_state(4).tolist()
        assert v[0] == pytest.approx(BETA3 ** -2)
        assert np.count_nonzero(v) == 1

    def test_loop_norm(self):
        for n in (2, 4, 6):
            v = boundary_link_state(n, BETA3)
            g = gram(n, BETA3)
            assert v @ g @ v == pytest.approx(BETA3 ** (-n / 2))


@pytest.fixture
def eigs_calls(monkeypatch):
    """The k of every ARPACK run, in call order."""
    eigs, calls = spl.eigs, []

    def counting(*args, **kwargs):
        calls.append(kwargs["k"])
        return eigs(*args, **kwargs)

    monkeypatch.setattr(spl, "eigs", counting)
    return calls


class TestSpectrum:
    def test_eigenvalues_real_and_sorted(self):
        for p in (3, 4, 5, math.inf):
            beta = parse_p(p).beta
            entries = spectrum(8, beta, 3)
            energies = [e.energy for e in entries]
            assert energies == sorted(energies)

    def test_loop_normalization(self):
        g = gram(10, BETA3)
        for e in spectrum(10, BETA3, 3):
            assert e.vector @ g @ e.vector == pytest.approx(1.0, abs=1e-8)

    def test_eigen_residual(self):
        h = hamiltonian(12, BETA3)
        for e in spectrum(12, BETA3, 3):
            assert np.abs(h @ e.vector - e.energy * e.vector).max() < 1e-8

    def test_dense_vs_sparse(self):
        for p in (3, 5, math.inf):
            beta = parse_p(p).beta
            for n in (12, 14, 16):
                d = spectrum_dense(n, beta, 3)
                s = spectrum_sparse(n, beta, 3, 10)
                assert len(d) == len(s) == 4
                for a, b in zip(d, s):
                    assert a.energy == pytest.approx(b.energy, abs=1e-9)
                    assert a.boundary_overlap == pytest.approx(b.boundary_overlap, abs=1e-8)

    def test_arpack_wherever_its_krylov_space_fits(self, monkeypatch):
        # ARPACK needs k + 1 < ncv <= dim: at kmax 3 each reflection sector's
        # Arnoldi space has 5 * 6 = 30 vectors, so the sectors of Catalan(6) =
        # 132 states (76 even, 56 odd) go sparse, H then H^T in each, and those
        # of Catalan(5) = 42 (26, 16) dense
        eigs, calls = spl.eigs, []

        def counting(*args, **kwargs):
            calls.append(args[0].shape[0])
            return eigs(*args, **kwargs)

        monkeypatch.setattr(spl, "eigs", counting)
        spectrum(10, BETA3, 3)
        assert calls == []
        spectrum(12, BETA3, 3)
        assert calls == [76, 76, 56, 56]

    def test_one_rule_through_degenerate_clusters(self, eigs_calls):
        # at p = 3, N = 14 and kmax 20, ARPACK's 14 eigenvalues per sector
        # less their last cluster hold too few physical states, its 28 every
        # requested one, two degenerate pairs among them: the sparse route
        # answers alone and agrees row by row with the dense one and with one
        # eig of the whole H
        got = spectrum(14, BETA3, 20)
        assert eigs_calls == [14, 14, 14, 14, 28, 28, 28, 28]
        assert len(spectrum_sparse(14, BETA3, 20, 14)) < 21
        for ref in (spectrum_dense(14, BETA3, 20), full_space_spectrum(14, BETA3, 20)):
            assert len(got) == len(ref) == 21
            for a, b in zip(got, ref):
                assert a.energy == pytest.approx(b.energy, abs=1e-9)
                assert a.boundary_overlap == pytest.approx(b.boundary_overlap, abs=1e-8)
        # B couples only to the first member of a degenerate physical pair,
        # whatever basis of the pair the solver returned
        pairs = [k for k in range(1, 20) if abs(got[k].energy - got[k - 1].energy) < 1e-9]
        assert len(pairs) == 2
        for k in pairs:
            assert got[k - 1].boundary_overlap > 1e-3
            assert got[k].boundary_overlap == 0.0
            # both pairs straddle the sectors: the even member comes first
            assert (got[k - 1].parity, got[k].parity) == (1, -1)

    def test_sectors_keep_full_space_rows(self):
        # the sector solve against one eig of the whole H, row by row: the
        # same energies and overlaps in the same order, degenerate clusters
        # across the sectors included
        for p in (3, 4, 5, 6, math.inf):
            beta = parse_p(p).beta
            for n in range(2, 13, 2):
                count = min(8, len(full_space_spectrum(n, beta, 8)) - 1)
                got, ref = spectrum(n, beta, count), full_space_spectrum(n, beta, count)
                assert len(got) == len(ref) == count + 1
                for a, b in zip(got, ref):
                    assert a.energy == pytest.approx(b.energy, abs=1e-9)
                    assert a.boundary_overlap == pytest.approx(b.boundary_overlap, abs=1e-8)

    def test_odd_states_are_structural_zeros(self):
        # B is reflection-even: an odd state's overlap is reported as 0.0, not
        # computed, and the witness |G_B . y| of its link vector is roundoff
        for p in (3, math.inf):
            beta = parse_p(p).beta
            for n in range(10, 17, 2):
                partners = link_basis(n).partners
                row = gram_row(partners, beta, adjacent_state(n))
                odd = [e for e in spectrum(n, beta, 10) if e.parity < 0]
                assert odd
                for e in odd:
                    assert e.boundary_overlap == 0.0
                    assert abs(row @ e.vector) <= 1e-12
                    assert np.array_equal(e.vector[link_basis(n).reflection], -e.vector)

    def test_k_doubles_then_dense(self, monkeypatch, eigs_calls):
        # at N = 12 the 14 eigenvalues per sector of kmax 20 (ARPACK on the
        # 76 even states, dense eig on the 56 odd ones, which its 70-vector
        # Arnoldi space does not fit) hold 16 of the 21 physical states below
        # the even sector's last cluster; doubled, k = 28 fits neither sector,
        # so dense eig answers
        dense = []
        monkeypatch.setattr(looplattice, "spectrum_dense",
                            lambda *args: dense.append(args[:3]) or spectrum_dense(*args))
        assert len(spectrum_sparse(12, BETA3, 20, 14)) == 16
        eigs_calls.clear()
        got = spectrum(12, BETA3, 20)
        assert eigs_calls == [14, 14]
        assert dense == [(12, BETA3, 20)]
        assert [e.energy for e in got] == [e.energy for e in spectrum_dense(12, BETA3, 20)]

    def test_cluster_at_arpacks_edge_is_left_out(self):
        # at N = 14 the even sector's 23rd eigenvalue is the first of a
        # degenerate pair (and an odd state shares its energy): 23 ARPACK
        # eigenvalues hold one vector of each of its right and left
        # eigenspaces, unpaired, so that cluster must not be read, in either
        # sector
        ref = spectrum_dense(14, BETA3, 40)
        got = spectrum_sparse(14, BETA3, 40, k=23)
        assert len(got) == 24
        assert [e.parity for e in ref[len(got):len(got) + 3]] == [1, 1, -1]
        assert got[-1].energy < ref[len(got)].energy - 1e-3
        for a, b in zip(got, ref):
            assert a.energy == pytest.approx(b.energy, abs=1e-9)
            assert a.boundary_overlap == pytest.approx(b.boundary_overlap, abs=1e-8)

    def test_shortfall_when_doubling_finds_no_new_state(self, eigs_calls):
        # p = 2 (beta = 1) has one physical state at every N; the doubled run
        # is ARPACK on the even sector and dense eig on the odd one
        with pytest.raises(ShortfallError,
                           match="only 1 of the 2 .* 12 lowest eigenvalues .* sector at N=12"):
            spectrum(12, 1.0, 1)
        assert eigs_calls == [6, 6, 6, 6, 12, 12]

    def test_dense_shortfall_raises(self):
        # N = 4 has two link states in all, both in the even sector
        with pytest.raises(ShortfallError, match="only 2 of the 4 .* at N=4"):
            spectrum(4, BETA3, 3)
        # at p = 3, N = 12 both sectors go dense at kmax 40 and hold too few
        with pytest.raises(ShortfallError, match="only .* of the 41 .* at N=12"):
            spectrum(12, BETA3, 40)

    def test_gap_ratios_approach_field_content(self):
        # scaled gaps carry a nonuniversal velocity; their ratios approach
        # h/h' for the j=0 tower h = 2, 3, 4
        prev = None
        for n in (8, 12, 16):
            entries = spectrum(n, BETA3, 3)
            g1 = entries[1].energy - entries[0].energy
            g2 = entries[2].energy - entries[0].energy
            ratio = g2 / g1
            dev = abs(ratio - 1.5)
            if prev is not None:
                assert dev < prev
            prev = dev
        assert dev < 0.05

    def test_sparse_rejects_degenerate_pairs(self, monkeypatch):
        eigs = spl.eigs

        def doubled_ground(*args, **kwargs):
            w, v = eigs(*args, **kwargs)
            w = w.copy()
            w[np.argsort(w.real)[1]] = w[np.argmin(w.real)]
            return w, v

        monkeypatch.setattr(spl, "eigs", doubled_ground)
        with pytest.raises(DegenerateNormError, match="degenerate"):
            spectrum_sparse(12, BETA3, 2, 6)

    def test_h3_state_decouples(self):
        # the h = 3 state is reflection-odd: its overlap is a structural zero
        for n in (10, 12, 14):
            entries = spectrum(n, BETA3, 2)
            assert entries[2].parity == -1
            assert entries[2].boundary_overlap == 0.0


@pytest.fixture(scope="module")
def table_p3():
    return overlap_table(3, range(8, 19, 2), kmax=2)


class TestOverlapTableAndFits:
    def test_summary_values(self, table_p3):
        # small-window smoke check; the full N=8..24 run is in acceptance
        s = loop_fit_summary(table_p3, drop_first_excited=1)
        assert s["a1"] == pytest.approx(-0.0625, abs=5e-3)
        assert s["overlaps"][1]["value"] == pytest.approx(0.5, abs=2e-2)
        assert s["overlaps"][2]["max_abs_for_n_ge_10"] == 0.0

    def test_parse_p(self):
        assert parse_p("inf").beta == 2.0
        assert parse_p(3).beta == pytest.approx(math.sqrt(2))
        assert parse_p("4").central_charge == pytest.approx(0.7)
