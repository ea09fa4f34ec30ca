"""Temperley-Lieb dense loop model on N strands with free boundaries.

The loop form <s1|s2> = beta^{#loops} on link states makes H = -sum_i e_i
self-adjoint.  At beta = 2cos(pi/(p+1)) the link module modulo the form's
radical is the A_p RSOS representation (Pasquier-Saleur), where H is real
symmetric and the loop form is the dot product; the solver works there,
keyed by p, an integer >= 2 or inf (`parse_p`).

Its basis is the Dyck words of length N (bit x set iff step x goes up, the
opener bit of a link state) of height <= p - 1, heights a_x in 1..p; at
p = inf, every Dyck word.  One sorted word table per N, with its heights,
is shared by every p and by the link basis (`dyck_words`): link row k is
the matching whose opener word is Dyck row k.  Rows are ranked by
`searchsorted` in that table.
e_i acts where steps i and i+1 differ: with a = a_i = a_{i+2}, b = a_{i+1}
and S_a = sin(pi a/(p+1)) (a at p = inf), it puts S_b/S_a on the diagonal
and sqrt(S_b S_b')/S_a on the word with the two steps swapped, b' = 2a - b,
when 1 <= b' <= p.  B = (12)(34)... is the word 1010...10, the row
`dyck_words(N).boundary` in both bases, of loop norm^2 beta^{N/2}, so
<B|k> = beta^{-N/4} |u_k[B]| for a unit eigenvector u_k.

The reflection x -> N-1-x (the bit-reversed complement of a word) commutes
with H and fixes B, so every solve runs in the even sector, (s + Rs)/sqrt(2)
per pair and the fixed s, and the odd one, (s - Rs)/sqrt(2): `eigsh` where
its Lanczos space fits, dense `eigh` otherwise.  Both sectors' CSR arrays
are assembled one block of columns at a time, from one generator pass per
block, so the build holds little more than its output.  Their states are merged in
energy order, even first inside a degenerate cluster, which is rotated so
that B couples only to its first member.  An odd state's overlap is a
structural 0.0.  The link basis and its Gram form stay for the checks of
the TL relations; no solver builds them.  They are keyed by beta, as the
link module exists at any beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spl

from .fitting import FitError, ground_state_fit, ratio_fit, rows_by_k


@dataclass(frozen=True)
class LoopWeight:
    """beta = 2 cos(pi/(p+1)) and c = 1 - 6/(p(p+1)); p = inf means beta = 2."""

    p: float

    @property
    def beta(self) -> float:
        if math.isinf(self.p):
            return 2.0
        return 2.0 * math.cos(math.pi / (self.p + 1))

    @property
    def central_charge(self) -> float:
        if math.isinf(self.p):
            return 1.0
        return 1.0 - 6.0 / (self.p * (self.p + 1))


def parse_p(text) -> LoopWeight:
    """The weight of p, a number or its text ("inf", "infinity" or "oo" for
    inf).  Only an integer p >= 2 or inf has a height basis; any other p
    raises ValueError."""
    p = math.inf if str(text).lower() == "oo" else float(text)
    if not (p == math.inf or p >= 2 and p.is_integer()):
        raise ValueError(f"p = {text!r} is neither an integer >= 2 nor inf")
    return LoopWeight(p)


def enumerate_links(n_sites: int) -> np.ndarray:
    """All non-crossing perfect matchings of 0..N-1 as one read-only int32
    (Catalan(N/2), N) array of partner indices; row k is the matching whose
    opener word is row k of `dyck_words`.

    Read off the Dyck heights in one sweep of the sites: an up step at
    height h opens the arc at h, and a down step to h closes it."""
    heights = dyck_words(n_sites).heights
    rows = np.arange(len(heights))
    partners = np.empty((len(heights), n_sites), dtype=np.int32)
    opener = np.empty((len(heights), n_sites // 2), dtype=np.int32)  # [k, h]: of row k's arc at h
    for x in range(n_sites):
        h, after = heights[:, x], heights[:, x + 1]
        up = after > h
        opener[rows[up], h[up]] = x
        down = rows[~up]
        a = opener[down, after[~up]]
        partners[down, x], partners[down, a] = a, x
    partners.flags.writeable = False
    return partners


@dataclass(frozen=True)
class LinkBasis:
    """The partner array of `enumerate_links` and moves[k, i] = the row of
    e_i applied to row k (a closed loop iff moves[k, i] == k).  Cached and
    shared: the arrays are read-only."""

    partners: np.ndarray
    moves: np.ndarray


@lru_cache(maxsize=None)
def link_basis(n_sites: int) -> LinkBasis:
    """One beta-independent basis per N, in the rows of `dyck_words`.

    A matching is fixed by its opener word (bit x set iff site x opens an
    arc, P[x] > x), its Dyck word.  e_i pairs (i, i+1) and joins the former
    partners a, b of i and i+1; applied to every row at once, it rewrites
    those four bits and the result is ranked in the sorted word table by
    `searchsorted`.  On a closed loop (a = i+1, b = i) the rewrite gives
    the word back, so the row stays."""
    partners = enumerate_links(n_sites)
    words = dyck_words(n_sites).words
    word = words.dtype.type
    one = word(1)
    moves = np.empty((len(partners), n_sites - 1), dtype=np.int32)
    for i in range(n_sites - 1):
        a, b = partners[:, i].astype(word), partners[:, i + 1].astype(word)
        kept = words & ~((one << i) | (one << (i + 1)) | (one << a) | (one << b))
        moves[:, i] = np.searchsorted(words, kept | (one << i) | (one << np.minimum(a, b)))
    moves.flags.writeable = False
    return LinkBasis(partners, moves)


_BATCH = 1 << 14  # glued partner entries per pointer-doubling batch (cache-sized)


def _loops(glued: np.ndarray) -> np.ndarray:
    """Closed loops of each glued pair of link states.

    Row r is s0[s] for two fixed-point-free involutions s0, s; its cycles
    come in pairs, one pair per loop.  Each cycle is counted once, at its
    smallest site, which pointer doubling finds in every row at once."""
    rows, n = glued.shape
    sites = np.arange(rows * n, dtype=np.int32)
    nxt = (glued + sites[::n, None]).ravel()
    low = sites
    # a cycle has at most N/2 sites: ceil(log2(N/2)) doublings cover it
    for _ in range((n // 2 - 1).bit_length()):
        low = np.minimum(low, low.take(nxt))
        nxt = nxt.take(nxt)
    return (low == sites).reshape(rows, n).sum(axis=1) // 2


def gram_row(partners, beta: float, s0) -> np.ndarray:
    """Row s0 (a partner row) of the Gram matrix: beta^{loops(s0, s)} for
    every row s of `partners`."""
    step = max(1, _BATCH // partners.shape[1])
    counts = np.concatenate([_loops(s0[partners[r:r + step]])
                             for r in range(0, len(partners), step)])
    # Python's float ** int, not np.power, which rounds differently
    return np.array([beta ** m for m in range(partners.shape[1] // 2 + 1)])[counts]


def gram(n_sites: int, beta: float) -> np.ndarray:
    """The whole Gram matrix, one `gram_row` per link state (for checks:
    no solver builds it)."""
    partners = link_basis(n_sites).partners
    return np.array([gram_row(partners, beta, s) for s in partners])


def sparse_structure(n_sites: int, beta: float) -> sp.csc_matrix:
    """H = -sum_i e_i = -(A + beta*diag(closed loops)) as a CSC matrix, read
    off the cached move table of `link_basis`: A[moves[k, i], k] counts the
    generators that take state k to another state."""
    moves = link_basis(n_sites).moves
    d = len(moves)
    closed = moves == np.arange(d)[:, None]
    # row-major order: state k outer, generator i inner
    cols, _ = np.nonzero(~closed)
    a = sp.coo_matrix((np.ones(len(cols)), (moves[~closed], cols)), shape=(d, d)).tocsr()
    return -(a + sp.diags(beta * closed.sum(axis=1))).tocsc()


def hamiltonian(n_sites: int, beta: float) -> np.ndarray:
    """Dense H, the `sparse_structure` matrix as an array."""
    return sparse_structure(n_sites, beta).toarray()


@dataclass(frozen=True)
class RSOSBasis:
    """The A_p height paths as sorted Dyck words and their heights
    (a_x = heights[k, x] + 1); reflection[k] is the row of row k's mirror
    image and `boundary` the row of B, the word 1010...10."""

    p: float
    words: np.ndarray
    heights: np.ndarray
    reflection: np.ndarray
    boundary: int


@lru_cache(maxsize=None)
def dyck_words(n_sites: int) -> RSOSBasis:
    """Every Dyck word of length N, the p = inf basis: one read-only table
    per N, whose rows every finite p filters.  The paths grow a step at a
    time, up while they can still return to 0 and down while above it."""
    if n_sites % 2:
        raise ValueError("need an even number of sites")
    word = np.uint32 if n_sites <= 32 else np.uint64
    words, height = np.zeros(1, dtype=word), np.zeros(1, dtype=np.int8)
    for x in range(n_sites):
        up, down = height < n_sites - 1 - x, height > 0
        words = np.concatenate([words[up] | word(1 << x), words[down]])
        height = np.concatenate([height[up] + 1, height[down] - 1])
    words.sort()
    heights = np.zeros((len(words), n_sites + 1), dtype=np.int8)
    mirrored = np.zeros_like(words)
    for x in range(n_sites):
        up = (words >> word(x)) & word(1)
        heights[:, x + 1] = heights[:, x] + np.where(up, 1, -1)
        mirrored |= (word(1) - up) << word(n_sites - 1 - x)
    reflection = np.searchsorted(words, mirrored)
    for table in (words, heights, reflection):
        table.flags.writeable = False
    b = np.searchsorted(words, sum(1 << x for x in range(0, n_sites, 2)))
    return RSOSBasis(math.inf, words, heights, reflection, int(b))


def rsos_basis(n_sites: int, p: float) -> RSOSBasis:
    """The rows of `dyck_words` whose height stays <= p - 1, in its order,
    for a p that `parse_p` accepts.  A p whose beta rounds to 2 gets the
    p = inf table: its sine weights equal those of inf to rounding, and
    from p ~ 1e154 on their products underflow."""
    weight = parse_p(p)
    table = dyck_words(n_sites)
    if weight.beta == 2.0:
        return table
    p = weight.p
    keep = table.heights.max(axis=1) < p
    words = table.words[keep]
    return RSOSBasis(p, words, table.heights[keep],
                     np.searchsorted(words, table.words[table.reflection[keep]]),
                     int(np.searchsorted(words, table.words[table.boundary])))


def rsos_generators(basis: RSOSBasis, cols=None):
    """Every nonzero entry of every e_i in the columns `cols` (all when
    None), as arrays (i, row, col, value).  The swap weight is the same
    float both ways, so H is exactly symmetric."""
    cols = np.arange(len(basis.words)) if cols is None else cols
    h = basis.heights[cols]
    up = h[:, 1:] > h[:, :-1]
    c, i = np.nonzero(up[:, :-1] != up[:, 1:])
    a, b = h[c, i].astype(np.intp) + 1, h[c, i + 1].astype(np.intp) + 1
    flip = 2 * a - b
    heights = np.arange(int(h.max(initial=0)) + 3)
    s = heights.astype(float) if math.isinf(basis.p) else np.sin(np.pi * heights / (basis.p + 1))
    ok = (flip >= 1) & (flip <= basis.p)
    word = basis.words.dtype.type
    swapped = basis.words[cols[c[ok]]] ^ (word(3) << i[ok].astype(word))
    return (np.r_[i, i[ok]], np.r_[cols[c], np.searchsorted(basis.words, swapped)],
            np.r_[cols[c], cols[c[ok]]],
            np.r_[s[b] / s[a], np.sqrt(s[b[ok]] * s[flip[ok]]) / s[a[ok]]])


_BLOCK = 1 << 10  # even columns per block of `reflection_sectors`


def reflection_sectors(basis: RSOSBasis) -> dict:
    """H on the sector of each parity (+1 even, -1 odd), as {parity: (op,
    reps)}: the sector's coordinate j is the unit vector (s + parity*Rs)/sqrt(2)
    for s = reps[j] < Rs, or the fixed row s = Rs (even sector only).  An
    entry H[m, t] at t in reps adds to m's orbit, times the parity when
    m > Rm and sqrt(|orbit of t| / |orbit of m|); an off-diagonal sector
    entry is one or two such terms, so the sector is exactly symmetric too.

    The even columns are walked in blocks of _BLOCK, one generator pass per
    block serving both sectors: the odd columns are the same less the fixed
    rows, in the same order.  A block's entries go to sector coordinates
    with H's minus sign, the duplicates in each column are summed in
    generator order, and its columns are appended to each sector's arrays.
    A sector is symmetric, so its columns are its rows: those arrays are its
    CSR, the same for every block size, and the transient memory is one
    block's."""
    mirror = basis.reflection
    rows = np.arange(len(mirror))
    size = np.where(rows == mirror, 1.0, 2.0)
    even = np.flatnonzero(rows <= mirror)
    parts = {}
    for parity in (1, -1):
        reps = even if parity > 0 else np.flatnonzero(rows < mirror)
        coord = np.full(len(mirror), -1)
        coord[reps] = coord[mirror[reps]] = np.arange(len(reps))
        parts[parity] = (reps, coord, [], [], [])
    for start in range(0, len(even), _BLOCK):
        block = even[start:start + _BLOCK]
        to, col, value = rsos_generators(basis, block)[1:]
        value = -value * np.sqrt(size[col] / size[to])
        for parity, (reps, coord, data, indices, counts) in parts.items():
            row, column, weight = coord[to], coord[col], value
            if parity < 0:  # the odd sector has no fixed row or column
                hit = (row >= 0) & (column >= 0)
                row, column = row[hit], column[hit]
                weight = np.where(to > mirror[to], -value, value)[hit]
            # sorted by column, then row; a stable sort keeps each column's
            # generator order, in which its duplicates are summed
            key = column * len(reps) + row
            order = np.argsort(key, kind="stable")
            key = key[order]
            new = np.diff(key, prepend=-1) != 0
            data.append(np.bincount(np.cumsum(new) - 1, weights=weight[order]))
            key = key[new]
            indices.append((key % len(reps)).astype(np.int32))
            # the block's sector columns are reps[lo:hi]
            lo, hi = np.searchsorted(reps, block[0]), np.searchsorted(reps, block[-1], "right")
            counts.append(np.bincount(key // len(reps) - lo, minlength=hi - lo))
    sectors = {}
    for parity, (reps, _, data, indices, counts) in parts.items():
        indptr = np.zeros(len(reps) + 1, dtype=np.int32)
        np.cumsum(_joined(counts), out=indptr[1:])
        sectors[parity] = (sp.csr_matrix((_joined(data), _joined(indices), indptr),
                                         shape=(len(reps),) * 2), reps)
    return sectors


def _joined(pieces: list) -> np.ndarray:
    """The pieces as one array; the list is emptied, so that they are freed."""
    out = np.concatenate(pieces)
    pieces.clear()
    return out


class DegenerateNormError(AssertionError):
    """A reported state is no eigenvector of H."""


class ShortfallError(RuntimeError):
    """Fewer physical states than requested in the whole basis (a limit of
    the request, not a broken exact invariant)."""


@dataclass
class SpectrumEntry:
    k: int
    energy: float
    vector: np.ndarray      # unit vector in the height basis, vector[B] >= 0
    boundary_overlap: float  # <B|k> >= 0; exactly 0.0 on an odd state
    parity: int             # reflection sector: +1 even, -1 odd


def eigenvalue_clusters(energies):
    """Half-open index ranges [i, j) of the sorted `energies` that lie
    within 1e-9 * max(1, |E_i|) of their first member E_i."""
    i = 0
    while i < len(energies):
        j = i + 1
        while j < len(energies) and energies[j] - energies[i] < 1e-9 * max(1.0, abs(energies[i])):
            j += 1
        yield i, j
        i = j


def _sector_states(basis, parity, sector, k):
    """The lowest states of the `reflection_sectors` entry of `parity`, and the
    energy below which they are all of the sector's: eigsh's k lowest
    eigenpairs, in a Lanczos space of 5k vectors, less their last cluster
    (which it may hold only part of); or every eigenpair from dense eigh
    when k is None or 5k does not fit inside the sector.  A degenerate
    cluster is rotated so that B couples only to its first member, whatever
    basis the solver returned; a state whose eigen-residual exceeds
    1e-8 * max(1, |E|) raises.  A state's vector is in sector coordinates,
    with y[B] >= 0: `_embed` takes it to the height basis."""
    op, reps = sector
    n_sites, dim = basis.heights.shape[1] - 1, len(reps)
    beta = LoopWeight(basis.p).beta
    if k is not None and 5 * k < dim:
        # fixed start vector: ARPACK's default is random, which would break
        # the byte-identical-rerun guarantee
        v0 = np.full(dim, 1.0 / math.sqrt(dim))
        energies, vectors = spl.eigsh(op, k=k, which="SA", ncv=5 * k, maxiter=20000, tol=0,
                                      v0=v0)
        order = np.argsort(energies)
        energies, vectors = energies[order], vectors[:, order]
        stop = list(eigenvalue_clusters(energies))[-1][0]
        top = energies[stop]
    else:
        energies, vectors = np.linalg.eigh(op.toarray())
        stop, top = dim, math.inf
    # B is a fixed row: a coordinate of the even sector, with no odd part
    at = int(np.searchsorted(reps, basis.boundary)) if parity > 0 else None
    out = []
    for i, j in eigenvalue_clusters(energies[:stop]):
        y = vectors[:, i:j]
        if at is not None and j - i > 1 and y[at].any():
            b = y[at] / np.linalg.norm(y[at])
            y = y @ np.column_stack([b, sla.null_space(b[None])])
        energy = float(energies[i:j].mean())
        residual = np.abs(op @ y - energy * y).max()
        if residual > 1e-8 * max(1.0, abs(energy)):
            raise DegenerateNormError(f"eigen-residual {residual:.1e} at E={energy}, "
                                      f"N={n_sites}: a degenerate cluster mixes eigenvalues")
        for t in range(y.shape[1]):
            sign = -1.0 if at is not None and y[at, t] < 0 else 1.0
            ovl = 0.0 if at is None else beta ** (-n_sites / 4) * abs(float(y[at, t]))
            out.append(SpectrumEntry(0, energy, sign * y[:, t], ovl, parity))
    return out, top


def _embed(basis, reps, parity, y) -> np.ndarray:
    """The height-basis vector of sector coordinates y: y_j / sqrt(|orbit|)
    at reps[j] and the parity times that at its mirror image."""
    mirror = basis.reflection[reps]
    y = y / np.sqrt(np.where(reps == mirror, 1.0, 2.0))
    u = np.zeros(len(basis.words))
    u[mirror] = parity * y
    u[reps] = y
    return u


def spectrum_sparse(n_sites: int, p: float, count: int, k: int | None) -> list[SpectrumEntry]:
    """The lowest `count`+1 states of both reflection sectors in global
    energy order below the lower of the two sectors' edges, from eigsh's k
    lowest eigenpairs per sector (dense eigh for a sector that 5k does not
    fit) or, when k is None, dense eigh.  The cluster that reaches that
    edge is left out, and inside a cluster even states come first: B
    couples to the first member of a degenerate pair.  While the list is
    short, the sector whose edge cut it runs again with k doubled; fewer
    states in the whole basis than requested raise ShortfallError."""
    basis = rsos_basis(n_sites, p)
    sectors = reflection_sectors(basis)
    ks = dict.fromkeys(sectors, k)
    runs = {parity: _sector_states(basis, parity, sectors[parity], k) for parity in sectors}
    while True:
        top = min(edge for _, edge in runs.values())
        states = sorted((s for run, _ in runs.values() for s in run if s.energy < top),
                        key=lambda s: s.energy)
        out = []
        for i, j in eigenvalue_clusters([s.energy for s in states] + [top]):
            if j > len(states):
                break
            out += sorted(states[i:j], key=lambda s: -s.parity)
        if len(out) > count or top == math.inf:
            break
        parity = min(runs, key=lambda q: runs[q][1])
        ks[parity] *= 2
        runs[parity] = _sector_states(basis, parity, sectors[parity], ks[parity])
    if len(out) <= count:
        raise ShortfallError(f"only {len(out)} of the {count + 1} requested "
                             f"physical states exist at N={n_sites}")
    out = out[:count + 1]
    for label, state in enumerate(out):
        state.k = label
        state.vector = _embed(basis, sectors[state.parity][1], state.parity, state.vector)
    return out


def spectrum_dense(n_sites: int, p: float, count: int) -> list[SpectrumEntry]:
    """The lowest `count`+1 states from dense eigh of each reflection sector."""
    return spectrum_sparse(n_sites, p, count, None)


def spectrum(n_sites: int, p: float, count: int) -> list[SpectrumEntry]:
    """The lowest `count`+1 states in the A_p height basis (p an integer
    >= 2 or inf, see `parse_p`): eigsh with k = count + 2 per reflection
    sector, so that each sector holds count + 1 states below its edge
    unless that edge is degenerate."""
    return spectrum_sparse(n_sites, p, count, count + 2)


@dataclass
class LoopOverlapRecord:
    p: float
    n_sites: int
    k: int
    energy: float
    overlap: float


def overlap_table(p, n_values, kmax: int = 3) -> list[LoopOverlapRecord]:
    weight = parse_p(p)
    return [LoopOverlapRecord(p=weight.p, n_sites=n, k=e.k, energy=e.energy,
                              overlap=e.boundary_overlap)
            for n in sorted(n_values) for e in spectrum(n, weight.p, kmax)]


def loop_fit_summary(records) -> dict:
    """Table-style summary: a1 and alpha from the ground state (full window,
    scaling form with N, logN), excited overlaps from ratio fits dropping the
    first DROP_FIRST_EXCITED points, plus the raw k=2 overlaps (expected to vanish for N >= 10;
    null when no N >= 10 is present).
    """
    by_k = rows_by_k(records)
    ground = by_k[0]
    gdata = [(r.n_sites, -math.log(r.overlap)) for r in ground]
    g_by_n = {r.n_sites: r.overlap for r in ground}
    p = ground[0].p
    weight = LoopWeight(p)
    summary = {
        "p": p if not math.isinf(p) else "inf",
        "beta": weight.beta,
        "c": weight.central_charge,
        "a1_cft": -weight.central_charge / 8,
        "overlaps": {},
    }
    try:
        summary.update(ground_state_fit(gdata)[1])
    except FitError as exc:
        summary["fit_error"] = str(exc)
    if 1 in by_k:
        data = [(r.n_sites, -math.log(r.overlap / g_by_n[r.n_sites])) for r in by_k[1]]
        try:
            value, spread = ratio_fit(data)
            summary["overlaps"][1] = {
                "value": value,
                "spread": spread,
                "cft": math.sqrt(weight.central_charge / 2),
            }
        except FitError as exc:
            summary["overlaps"][1] = {"fit_error": str(exc)}
    if 2 in by_k:
        worst = max((abs(r.overlap) for r in by_k[2] if r.n_sites >= 10), default=None)
        summary["overlaps"][2] = {"max_abs_for_n_ge_10": worst, "cft": 0.0}
    return summary
