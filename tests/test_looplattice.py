import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from rectcft import fitting, ising, looplattice
from rectcft.looplattice import (DegenerateNormError, ShortfallError, _sector_states,
                                 dyck_words, enumerate_links, gram, gram_row, hamiltonian,
                                 link_basis, loop_fit_summary, overlap_table, parse_p,
                                 reflection_sectors, rsos_basis, rsos_generators,
                                 sparse_structure, spectrum, spectrum_dense,
                                 spectrum_sparse, spl)
from reference import (adjacent_state, apply_tl, boundary_link_state, full_space_spectrum,
                       link_reflection_sector, link_sector_spectrum, loops_between,
                       rsos_hamiltonian, tl_generator_matrix)

BETA3 = 2 * math.cos(math.pi / 4)  # p = 3


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def sector_embedding(basis, reps, parity):
    """Q: column j is the unit vector (s + parity*Rs)/|..| of s = reps[j]."""
    q = np.zeros((len(basis.words), len(reps)))
    q[reps, np.arange(len(reps))] = 1.0
    q[basis.reflection[reps], np.arange(len(reps))] += parity
    return q / np.linalg.norm(q, axis=0)


class TestLinkStates:
    def test_counts(self):
        assert len(enumerate_links(2)) == 1
        assert len(enumerate_links(4)) == 2
        assert len(enumerate_links(12)) == 132
        for n in (2, 4, 6, 8, 10):
            assert len(enumerate_links(n)) == catalan(n // 2)

    def test_n4_states(self):
        # (12)(34) and (14)(23), each once
        rows = enumerate_links(4).tolist()
        assert sorted(rows) == [[1, 0, 3, 2], [3, 2, 1, 0]]
        adjacent, nested = rows.index([1, 0, 3, 2]), rows.index([3, 2, 1, 0])
        # the cached basis is shared by every caller, so it is read-only
        basis = link_basis(4)
        assert basis is link_basis(4)
        assert np.array_equal(basis.partners, enumerate_links(4))
        # e_1 and e_3 close a loop on (12)(34); e_2 takes it to (14)(23)
        assert basis.moves[adjacent].tolist() == [adjacent, nested, adjacent]
        with pytest.raises(ValueError):
            basis.moves[0, 0] = 1
        with pytest.raises(ValueError):
            basis.partners[0, 0] = 1
        with pytest.raises(ValueError):
            enumerate_links(4)[0, 0] = 1

    def test_rows_follow_the_dyck_table(self):
        # link row k is Dyck row k: its opener word is the table's word k, B
        # is the table's boundary row and the mirror image its reflection row
        for n in range(2, 17, 2):
            table, partners = dyck_words(n), enumerate_links(n)
            opener = ((partners > np.arange(n)).astype(np.int64) << np.arange(n)).sum(axis=1)
            assert np.array_equal(opener, table.words)
            assert partners[table.boundary].tolist() == adjacent_state(n).tolist()
            assert np.array_equal(partners[table.reflection], n - 1 - partners[:, ::-1])

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
            # Catalan(N/2) distinct non-crossing matchings are all of them
            assert len(rows) == len(set(rows)) == catalan(n // 2)
            for s in rows:
                assert all(s[s[x]] == x != s[x] for x in range(n))
                assert not crossing(s)
            # B's row in the enumeration order is the Dyck table's
            assert rows.index(tuple(adjacent_state(n).tolist())) == dyck_words(n).boundary

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
    """x -> N-1-x, `dyck_words(n).reflection` on the link basis (see
    `test_rows_follow_the_dyck_table`) and on the height basis: an
    involution that commutes with every e_i (e_i goes to e_{N-2-i}) and
    fixes B."""

    def test_involution_and_mirror_image(self):
        for n in range(2, 17, 2):
            # in the height basis the mirror image reverses the heights
            table = dyck_words(n)
            assert np.array_equal(table.reflection[table.reflection], np.arange(len(table.words)))
            assert np.array_equal(table.heights[table.reflection], table.heights[:, ::-1])
        with pytest.raises(ValueError):
            dyck_words(6).reflection[0] = 1

    def test_commutes_with_moves(self):
        for n in range(2, 17, 2):
            r, moves = dyck_words(n).reflection, link_basis(n).moves
            for i in range(n - 1):
                assert np.array_equal(moves[r, n - 2 - i], r[moves[:, i]])

    def test_fixes_the_boundary_state(self):
        for n in range(2, 19, 2):
            basis = link_basis(n)
            r = dyck_words(n).reflection
            b, = np.flatnonzero((basis.partners == adjacent_state(n)).all(axis=1))
            assert r[b] == b
            for beta in (BETA3, 2.0):
                row = gram_row(basis.partners, beta, adjacent_state(n))
                assert row[r].tolist() == row.tolist()
            for p in (2, 3, math.inf):
                rsos = rsos_basis(n, p)
                assert rsos.reflection[rsos.boundary] == rsos.boundary
                assert rsos.heights[rsos.boundary].tolist() == [x % 2 for x in range(n + 1)]

    def test_fixed_state_count(self):
        # a fixed matching is fixed by its left half: C(N/2, floor(N/4)); so
        # is a fixed Dyck word, the opener word of a fixed matching
        fixed = {n: int(np.count_nonzero(dyck_words(n).reflection == np.arange(catalan(n // 2))))
                 for n in range(2, 25, 2)}
        assert fixed == {n: math.comb(n // 2, n // 4) for n in fixed}
        assert (fixed[20], fixed[22], fixed[24]) == (252, 462, 924)

    def test_sector_operators_restrict_h(self):
        # link sectors: H E = E M and H^T E D^-1 = E D^-1 M^T on each
        # sector's embedding E (orbit sizes D), exactly
        for n in range(2, 15, 2):
            for beta in (BETA3, parse_p(5).beta, 2.0):
                h = sparse_structure(n, beta)
                dims = []
                for parity in (1, -1):
                    op, embed = link_reflection_sector(n, beta, parity)
                    dims.append(op.shape[0])
                    assert np.array_equal((h @ embed).toarray(), (embed @ op).toarray())
                    left = embed.toarray() / abs(embed).sum(axis=0)
                    assert np.array_equal(h.T @ left, left @ op.T.toarray())
                    # a sector vector's link components are 1 and the parity
                    assert set(embed.data) <= {1.0, float(parity)}
                fixed = math.comb(n // 2, n // 4)
                assert dims == [(catalan(n // 2) + fixed) // 2, (catalan(n // 2) - fixed) // 2]
        # N = 2 and 4: every state is fixed, the odd sector is empty
        assert link_reflection_sector(4, BETA3, -1)[0].shape == (0, 0)
        # height-basis sectors: H Q = Q M on the orthonormal embedding Q, up
        # to roundoff, and each sector exactly symmetric
        for n in range(2, 15, 2):
            for p in (3, 5, math.inf):
                basis = rsos_basis(n, p)
                h = rsos_hamiltonian(basis).toarray()
                dims = []
                for parity, (op, reps) in reflection_sectors(basis).items():
                    dims.append(len(reps))
                    assert (op != op.T).nnz == 0
                    q = sector_embedding(basis, reps, parity)
                    assert np.abs(q.T @ q - np.eye(len(reps))).max(initial=0.0) < 1e-15
                    assert np.abs(h @ q - q @ op.toarray()).max(initial=0.0) < 1e-13
                assert sum(dims) == len(basis.words)

    def test_sectors_do_not_depend_on_the_block_size(self, monkeypatch):
        # blocks of 7 even columns split the sectors from N = 10 on at every
        # p (N = 16, p = inf into 108 blocks); the CSR arrays are those of one
        # block over every column, exactly symmetric, and still restrict H
        for n in range(2, 17, 2):
            for p in (3, 5, math.inf):
                basis = rsos_basis(n, p)
                monkeypatch.setattr(looplattice, "_BLOCK", len(basis.words))
                whole = reflection_sectors(basis)
                monkeypatch.setattr(looplattice, "_BLOCK", 7)
                h = rsos_hamiltonian(basis).toarray()
                for parity, (op, reps) in reflection_sectors(basis).items():
                    ref, ref_reps = whole[parity]
                    assert np.array_equal(reps, ref_reps)
                    for name in ("indptr", "indices", "data"):
                        assert np.array_equal(getattr(op, name), getattr(ref, name))
                    assert op.indices.dtype == op.indptr.dtype == np.int32
                    # sorted indices, each entry once
                    assert op.has_canonical_format
                    assert (op != op.T).nnz == 0
                    q = sector_embedding(basis, reps, parity)
                    assert np.abs(h @ q - q @ op.toarray()).max(initial=0.0) < 1e-13

    def test_sector_build_memory_stays_near_its_output(self):
        """The tracemalloc peak of `reflection_sectors` at N = 20, p = inf
        stays below 3.5 times the bytes of the CSR arrays it returns
        (1.96 MiB).  Measured with NumPy 2.4: 2.6x (5.0 MiB) in blocks of
        1024 columns; 5.3x (10.5 MiB) when each sector went through one COO
        matrix of all its entries and `tocsr`."""
        basis = rsos_basis(20, math.inf)
        tracemalloc.start()
        try:
            sectors = reflection_sectors(basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(a.nbytes for op, _ in sectors.values()
                   for a in (op.indptr, op.indices, op.data))
        assert size > 1 << 20
        assert peak < 3.5 * size

    def test_sector_energies_match_full_eig(self):
        for p in (3, 4, 5, 6, math.inf):
            beta = parse_p(p).beta
            for n in range(2, 13, 2):
                full = np.sort(sla.eigvals(hamiltonian(n, beta)).real)
                sectors = np.sort(np.concatenate(
                    [sla.eigvals(link_reflection_sector(n, beta, parity)[0].toarray()).real
                     for parity in (1, -1)]))
                assert np.abs(full - sectors).max() < 1e-9 * max(1.0, np.abs(full).max())
                # the height-basis spectrum is the link one less its Gram-null
                # states
                basis = rsos_basis(n, p)
                rsos = np.sort(np.concatenate(
                    [np.linalg.eigvalsh(op.toarray())
                     for op, _ in reflection_sectors(basis).values()]))
                assert np.abs(rsos - np.linalg.eigvalsh(
                    rsos_hamiltonian(basis).toarray())).max() < 1e-12 * max(1.0, abs(rsos[0]))
                assert max(np.abs(full - e).min() for e in rsos) < 1e-9 * max(1.0, abs(full[0]))


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
        rows = enumerate_links(4).tolist()
        adj, other = rows.index([1, 0, 3, 2]), rows.index([3, 2, 1, 0])  # (12)(34), (14)(23)
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
        rows = enumerate_links(4).tolist()
        a, b = rows.index([1, 0, 3, 2]), rows.index([3, 2, 1, 0])  # (12)(34), (14)(23)
        h = hamiltonian(4, beta)
        # e1+e3 act diagonally on (12)(34); e2 maps it to (14)(23), and v.v.
        expect = np.zeros((2, 2))
        expect[a, a] = -2 * beta
        expect[b, a] = -1
        expect[a, b] = -2
        expect[b, b] = -beta
        assert np.abs(h - expect).max() < 1e-14

    def test_ground_energy_n2(self):
        entries = spectrum(2, 3, 0)
        assert entries[0].energy == pytest.approx(-BETA3)

    def test_ground_energy_n4_closed_form(self):
        # 2x2 characteristic polynomial of [[-2b, -2], [-1, -b]]:
        # E^2 + 3b E + 2b^2 - 2 = 0, ground root (-3b - sqrt(b^2 + 8))/2
        beta = BETA3
        expect = (-3 * beta - math.sqrt(beta ** 2 + 8)) / 2
        entries = spectrum(4, 3, 0)
        assert entries[0].energy == pytest.approx(expect, rel=1e-12)


class TestBoundaryState:
    def test_coefficient(self):
        v = boundary_link_state(4, BETA3)
        b = enumerate_links(4).tolist().index(adjacent_state(4).tolist())
        assert v[b] == pytest.approx(BETA3 ** -2)
        assert np.count_nonzero(v) == 1

    def test_loop_norm(self):
        for n in (2, 4, 6):
            v = boundary_link_state(n, BETA3)
            g = gram(n, BETA3)
            assert v @ g @ v == pytest.approx(BETA3 ** (-n / 2))


class TestRSOS:
    """The A_p height basis: its size, the TL relations of its e_i, the
    symmetry of H, and the boundary state's sum rule."""

    def test_word_table(self):
        for n in range(2, 17, 2):
            table = dyck_words(n)
            assert table is dyck_words(n)
            assert len(table.words) == catalan(n // 2)
            assert np.all(np.diff(table.words.astype(np.int64)) > 0)
            assert table.heights.min() == 0 and not table.heights[:, [0, -1]].any()
        with pytest.raises(ValueError):
            dyck_words(6).heights[0, 0] = 1

    def test_dimension_is_gram_rank(self):
        # the height basis spans the link module modulo the Gram radical
        for n in range(2, 13, 2):
            for p in (2, 3, 4, 5, 6):
                rank = np.linalg.matrix_rank(gram(n, parse_p(p).beta))
                assert len(rsos_basis(n, p).words) == rank
            assert len(rsos_basis(n, math.inf).words) == catalan(n // 2)
        assert [len(rsos_basis(24, p).words) for p in (3, 4, 5, 6, math.inf)] == \
            [2048, 28657, 88574, 147798, 208012]

    def test_tl_relations(self):
        n = 8
        for p in (3, 5, math.inf):
            basis, beta = rsos_basis(n, p), parse_p(p).beta
            gen, rows, cols, values = rsos_generators(basis)
            es = []
            for i in range(n - 1):
                e = np.zeros((len(basis.words),) * 2)
                e[rows[gen == i], cols[gen == i]] = values[gen == i]
                es.append(e)
            for i in range(n - 1):
                assert np.abs(es[i] @ es[i] - beta * es[i]).max() < 1e-12
            for i in range(n - 2):
                assert np.abs(es[i] @ es[i + 1] @ es[i] - es[i]).max() < 1e-12
                assert np.abs(es[i + 1] @ es[i] @ es[i + 1] - es[i + 1]).max() < 1e-12
            for i in range(n - 1):
                for j in range(i + 2, n - 1):
                    assert np.abs(es[i] @ es[j] - es[j] @ es[i]).max() < 1e-12

    def test_h_is_exactly_symmetric(self):
        for n in (8, 12, 16):
            for p in (2, 3, 4, 5, 6, math.inf):
                h = rsos_hamiltonian(rsos_basis(n, p))
                assert (h != h.T).nnz == 0

    def test_p_rule(self):
        # the one rule of `parse_p`, which the height basis and the solver
        # apply: an integer p >= 2, or inf
        for p in (2, 3, 4, 5, 6, 17, math.inf):
            assert parse_p(p).p == parse_p(str(p)).p == p
            assert rsos_basis(8, p).p == p
            assert len(spectrum(8, p, 0)) == 1
        for p in (0, 1, 1.5, 3.5, math.nan, -math.inf):
            for call in (parse_p, lambda p: rsos_basis(8, p), lambda p: spectrum(8, p, 0)):
                with pytest.raises(ValueError, match="neither an integer >= 2 nor inf"):
                    call(p)
        # beta rounds to 2 from p ~ 2e8 on: such a p is solved at inf
        assert rsos_basis(8, 1e200) is dyck_words(8)
        assert [(e.energy, e.boundary_overlap) for e in spectrum(10, 1e200, 1)] == \
            [(e.energy, e.boundary_overlap) for e in spectrum(10, math.inf, 1)]

    def test_boundary_sum_rule(self):
        # sum_k <B|k>^2 over every state is |B|^2 / beta^N = beta^{-N/2}
        for p in (3, 4, 5, 6, math.inf):
            beta = parse_p(p).beta
            for n in range(2, 13, 2):
                states = spectrum_dense(n, p, len(rsos_basis(n, p).words) - 1)
                total = sum(e.boundary_overlap ** 2 for e in states)
                assert abs(total - beta ** (-n / 2)) < 1e-14


@pytest.fixture
def eigsh_calls(monkeypatch):
    """(sector dimension, k) of every eigsh run, in call order."""
    eigsh, calls = spl.eigsh, []

    def counting(*args, **kwargs):
        calls.append((args[0].shape[0], kwargs["k"]))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spl, "eigsh", counting)
    return calls


@pytest.fixture(scope="module")
def link_route():
    """The link route's rows at kmax 10 per (p, N), N = 2..16: dense eig of
    each link-basis sector with the Gram-radical rule."""
    return {(p, n): link_sector_spectrum(n, parse_p(p).beta, 10)
            for p in (3, 4, 5, 6, math.inf) for n in range(2, 17, 2)}


def assert_same_rows(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.energy == pytest.approx(b.energy, abs=1e-9)
        assert a.boundary_overlap == pytest.approx(b.boundary_overlap, abs=1e-8)


class TestSpectrum:
    def test_eigenvalues_real_and_sorted(self):
        for p in (3, 4, 5, math.inf):
            entries = spectrum(8, p, 3)
            energies = [e.energy for e in entries]
            assert energies == sorted(energies)

    def test_loop_normalization(self):
        # the loop form is the dot product of the height basis
        for e in spectrum(10, 3, 3):
            assert e.vector @ e.vector == pytest.approx(1.0, abs=1e-8)

    def test_eigen_residual(self):
        h = rsos_hamiltonian(rsos_basis(12, 3))
        for e in spectrum(12, 3, 3):
            assert np.abs(h @ e.vector - e.energy * e.vector).max() < 1e-8

    def test_dense_vs_sparse(self):
        for p in (3, 5, math.inf):
            for n in (12, 14, 16):
                d = spectrum_dense(n, p, 3)
                s = spectrum_sparse(n, p, 3, 10)
                assert len(d) == len(s) == 4
                for a, b in zip(d, s):
                    assert a.energy == pytest.approx(b.energy, abs=1e-9)
                    assert a.boundary_overlap == pytest.approx(b.boundary_overlap, abs=1e-8)

    def test_arpack_wherever_its_krylov_space_fits(self, eigsh_calls):
        # eigsh needs its Lanczos space of 5k vectors inside the sector: at
        # kmax 3, k = 5, so the p = 3 sectors of N = 12 (20 even, 12 odd
        # states) go dense and those of N = 14 (36, 28) sparse; at p = inf,
        # N = 10 runs eigsh on its 26 even states and dense eigh on its 16
        # odd ones
        spectrum(12, 3, 3)
        assert eigsh_calls == []
        spectrum(14, 3, 3)
        assert eigsh_calls == [(36, 5), (28, 5)]
        eigsh_calls.clear()
        spectrum(10, math.inf, 3)
        assert eigsh_calls == [(26, 5)]

    def test_one_rule_through_degenerate_clusters(self, eigsh_calls):
        # at p = 3, N = 14 and kmax 20 the height basis has 36 even and 28 odd
        # states, too few for eigsh's k = 22, so dense eigh answers; from
        # k = 7 eigsh runs on the even sector until, doubled, its Lanczos
        # space no longer fits.  Both agree row by row with the link route
        # (in sectors and in one eig of the whole H), two degenerate pairs
        # among the rows
        got = spectrum(14, 3, 20)
        assert eigsh_calls == []
        sparse = spectrum_sparse(14, 3, 20, 7)
        assert eigsh_calls == [(36, 7)]
        for ref in (sparse, link_sector_spectrum(14, BETA3, 20),
                    full_space_spectrum(14, BETA3, 20)):
            assert len(ref) == 21
            assert_same_rows(got, ref)
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
        # the sector solve against one eig of the whole link-basis H, row by
        # row: the same energies and overlaps in the same order, degenerate
        # clusters across the sectors included
        for p in (3, 4, 5, 6, math.inf):
            beta = parse_p(p).beta
            for n in range(2, 13, 2):
                count = min(8, len(full_space_spectrum(n, beta, 8)) - 1)
                got, ref = spectrum(n, p, count), full_space_spectrum(n, beta, count)
                assert len(got) == len(ref) == count + 1
                assert_same_rows(got, ref)

    @pytest.mark.parametrize("kmax", [3, 10])
    def test_rows_match_the_link_route(self, link_route, kmax):
        # every request up to N = 16 has the link route's rows, or runs short
        # exactly where the link route has too few physical states
        for (p, n), ref in link_route.items():
            if len(ref) <= kmax:
                with pytest.raises(ShortfallError, match=f"only {len(ref)} of the {kmax + 1}"):
                    spectrum(n, p, kmax)
            else:
                assert_same_rows(spectrum(n, p, kmax), ref[:kmax + 1])

    def test_odd_states_are_structural_zeros(self):
        # B is reflection-even: an odd state's overlap is 0.0, and its
        # height-basis vector is antisymmetric under R and 0.0 at B
        for p in (3, math.inf):
            for n in range(10, 17, 2):
                basis = rsos_basis(n, p)
                odd = [e for e in spectrum(n, p, 10) if e.parity < 0]
                assert odd
                for e in odd:
                    assert e.boundary_overlap == 0.0
                    assert e.vector[basis.boundary] == 0.0
                    assert np.array_equal(e.vector[basis.reflection], -e.vector)

    def test_k_doubles_then_dense(self, eigsh_calls):
        # at p = inf, N = 14 and kmax 10, eigsh's 6 eigenpairs per sector cut
        # the list at the even sector's edge: the even sector alone runs
        # again with k = 12.  At p = 3, N = 14 from k = 7 the even sector's
        # doubled Lanczos space does not fit, and dense eigh answers there
        # as it does in the 28 odd states from the start
        got = spectrum_sparse(14, math.inf, 10, 6)
        assert eigsh_calls == [(232, 6), (197, 6), (232, 12)]
        assert_same_rows(got, spectrum_dense(14, math.inf, 10))
        eigsh_calls.clear()
        got = spectrum_sparse(14, 3, 20, 7)
        assert eigsh_calls == [(36, 7)]
        assert [e.energy for e in got] == [e.energy for e in spectrum_dense(14, 3, 20)]

    def test_cluster_at_arpacks_edge_is_left_out(self):
        # at p = 3, N = 20 the odd sector's 16th eigenvalue is the first of a
        # degenerate pair: eigsh's 16 eigenpairs hold one vector of it, so
        # that cluster is not read and its energy is the sector's edge
        basis = rsos_basis(20, 3)
        odd = reflection_sectors(basis)[-1]
        ref, top = _sector_states(basis, -1, odd, None)
        assert top == math.inf
        assert ref[16].energy == ref[15].energy
        got, top = _sector_states(basis, -1, odd, 16)
        assert len(got) == 15
        assert top == pytest.approx(ref[15].energy, abs=1e-9)
        assert_same_rows(got, ref[:15])
        assert_same_rows(spectrum_sparse(20, 3, 40, 16), spectrum_dense(20, 3, 40))

    def test_shortfall_when_doubling_finds_no_new_state(self, eigsh_calls):
        # p = 2 (beta = 1) has one height path, and so one physical state,
        # at every N: dense eigh finds it and the request runs short
        with pytest.raises(ShortfallError,
                           match="only 1 of the 2 requested physical states exist at N=12"):
            spectrum(12, 2, 1)
        assert eigsh_calls == []

    def test_dense_shortfall_raises(self):
        # N = 4 has two link states in all, both in the even sector
        with pytest.raises(ShortfallError, match="only 2 of the 4 .* at N=4"):
            spectrum(4, 3, 3)
        # at p = 3, N = 12 the 32 height paths are too few for kmax 40
        with pytest.raises(ShortfallError, match="only 32 of the 41 .* at N=12"):
            spectrum(12, 3, 40)

    def test_gap_ratios_approach_field_content(self):
        # scaled gaps carry a nonuniversal velocity; their ratios approach
        # h/h' for the j=0 tower h = 2, 3, 4
        prev = None
        for n in (8, 12, 16):
            entries = spectrum(n, 3, 3)
            g1 = entries[1].energy - entries[0].energy
            g2 = entries[2].energy - entries[0].energy
            ratio = g2 / g1
            dev = abs(ratio - 1.5)
            if prev is not None:
                assert dev < prev
            prev = dev
        assert dev < 0.05

    def test_sparse_rejects_degenerate_pairs(self, monkeypatch):
        eigsh = spl.eigsh

        def doubled_ground(*args, **kwargs):
            w, v = eigsh(*args, **kwargs)
            w = w.copy()
            w[np.argsort(w)[1]] = w.min()
            return w, v

        monkeypatch.setattr(spl, "eigsh", doubled_ground)
        with pytest.raises(DegenerateNormError, match="degenerate"):
            spectrum_sparse(12, math.inf, 2, 6)

    def test_h3_state_decouples(self):
        # the h = 3 state is reflection-odd: its overlap is a structural zero
        for n in (10, 12, 14):
            entries = spectrum(n, 3, 2)
            assert entries[2].parity == -1
            assert entries[2].boundary_overlap == 0.0


class TestIsingAtP3:
    """At p = 3 (beta = sqrt 2) the loop model on N sites is the free Ising
    chain on N/2 sites restricted to excitation sets S of even size: the
    2^{N/2-1} A_3 height paths are the even half of its 2^{N/2} spin states.
    Row k is the k-th even S by energy, with

        E_k = sqrt2 (E_0 + sum_{j in S} Lambda_j) - (N - 1)/sqrt2,
        E_0 = -(1/2) sum_j Lambda_j,   beta^{N/4} <B|k> = |<all up|S>|."""

    @pytest.mark.parametrize("n", range(8, 25, 2))
    def test_rows_are_the_even_ising_states(self, n):
        m = n // 2
        kmax = min(10, 2 ** (m - 1) - 1)
        if kmax < 10:
            with pytest.raises(ShortfallError):
                spectrum(n, 3, 10)
        rows = spectrum(n, 3, kmax)
        lam = ising.mode_energies(m)
        e0 = -0.5 * lam.sum()
        # the Ising overlap table over enough of the lowest sets (of either
        # size) to hold kmax + 1 even ones
        table = ising.ising_overlap_table([m], min(2 ** m - 1, 4 * (kmax + 1)))
        even = [r for r in table if len(r.excitation) % 2 == 0][:kmax + 1]
        assert len(even) == kmax + 1
        for row, ref in zip(rows, even):
            s = ref.excitation
            energy = BETA3 * (e0 + sum(lam[j - 1] for j in s)) - (n - 1) / BETA3
            # measured max over N = 8..24: 1.2e-13 (energies), 1.1e-13 (overlaps)
            assert abs(row.energy - energy) < 1e-12, (row.k, s)
            assert abs(BETA3 ** (n / 4) * row.boundary_overlap - ref.overlap) < 1e-12, (row.k, s)
            # B is reflection-even: an odd-sector row is a set the Ising
            # selection rule forbids
            if row.parity < 0:
                assert not ising.overlap_allowed(s), (row.k, s)


@pytest.fixture(scope="module")
def table_p3():
    return overlap_table(3, range(8, 19, 2), kmax=2)


class TestOverlapTableAndFits:
    def test_summary_values(self, table_p3, monkeypatch):
        # small-window smoke check; the full N=8..24 run is in acceptance
        monkeypatch.setattr(fitting, "DROP_FIRST_EXCITED", 1)
        s = loop_fit_summary(table_p3)
        assert s["a1"] == pytest.approx(-0.0625, abs=5e-3)
        assert s["overlaps"][1]["value"] == pytest.approx(0.5, abs=2e-2)
        assert s["overlaps"][2]["max_abs_for_n_ge_10"] == 0.0

    def test_parse_p(self):
        assert parse_p("inf").beta == 2.0
        assert parse_p(3).beta == pytest.approx(math.sqrt(2))
        assert parse_p("4").central_charge == pytest.approx(0.7)
