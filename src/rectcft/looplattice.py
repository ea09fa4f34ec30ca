"""Temperley-Lieb dense loop model on N strands with free boundaries.

Link states are non-crossing perfect matchings of N sites (the j = 0
sector, Catalan(N/2) of them).  The Hamiltonian H = -sum_i e_i acts in the
link basis; the loop bilinear form <s1|s2> = beta^{#loops} makes H
self-adjoint, G H = H^T G.  At the root-of-unity weights used here the
Gram form is positive semidefinite with a nontrivial radical, so physical
eigenstates are extracted by projecting Gram-null directions out of each
(near-)degenerate eigenvalue cluster.

The beta-independent combinatorics are whole-array numpy work, built once
per N: the states are one int32 partner array (row k, column x = the
partner of site x), ranked by their opener bit words, and the move table of
every e_i on every row is rewritten on those words and ranked with
`searchsorted`.  H is built one way, as a sparse matrix read off the move
table (`sparse_structure`; `hamiltonian` is its dense form).  Loop counts
are read one way, a Gram row at a time (`gram_row`): the loops between two
states are half the cycles of the composed involutions, counted for many
pairs at once by pointer doubling.

The reflection x -> N-1-x maps the basis onto itself (`LinkBasis.reflection`,
the bit-reversed closer words ranked like the moves); it commutes with H
and G and fixes B.  So every solve runs in the even and odd reflection
sectors, each about half the basis: H and H^T on the orbit vectors
s +- Rs, read off the move table (`reflection_sector`).  B has no odd
part, so an odd state's overlap is a structural 0.0, not a fit to roundoff.

One rule picks the physical states from one sector's sorted eigenpairs,
right and left, embedded back into link space (`_physical_states`): on
each eigenvalue cluster G V = W C, with C fixed by Gram rows at a few
anchors, so the Gram block follows without G.  ARPACK supplies each
sector's eigenpairs (its H and H^T) while its Arnoldi space fits inside the
sector, with k doubled while a run finds new physical states but too few,
and dense eig once it does not; the two are cross-checked in the tests.
The sectors' states are merged in energy order, even first inside a
degenerate cluster, and relabelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spl

from .fitting import ABSOLUTE_BASIS, DROP_FIRST_EXCITED, RATIO_BASIS, FitError, extract_overlap, fit


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
    if isinstance(text, (int, float)):
        return LoopWeight(float(text))
    if str(text).lower() in ("inf", "infinity", "oo"):
        return LoopWeight(math.inf)
    return LoopWeight(float(text))


def enumerate_links(n_sites: int) -> np.ndarray:
    """All non-crossing perfect matchings of 0..N-1 as one read-only int32
    (Catalan(N/2), N) array of partner indices, rows in lexicographic order.

    Built by the first-arc split, smallest N first: the matchings with arc
    (0, p) are every inner matching of 1..p-1 (major) paired with every
    outer matching of p+1..N-1, broadcast into their block of rows."""
    if n_sites % 2:
        raise ValueError("need an even number of sites")
    tables = [np.zeros((1, 0), dtype=np.int32)]  # tables[m]: matchings of 2m sites
    for m in range(1, n_sites // 2 + 1):
        pairs = [(tables[j], tables[m - 1 - j]) for j in range(m)]
        out = np.empty((sum(len(i) * len(o) for i, o in pairs), 2 * m), dtype=np.int32)
        row = 0
        for p, (inner, outer) in zip(range(1, 2 * m, 2), pairs):
            size = len(inner) * len(outer)
            block = out[row:row + size].reshape(len(inner), len(outer), 2 * m)
            block[..., 0], block[..., p] = p, 0
            block[..., 1:p] = inner[:, None] + 1
            block[..., p + 1:] = outer + (p + 1)
            row += size
        tables.append(out)
    tables[-1].flags.writeable = False
    return tables[-1]


def adjacent_state(n_sites: int) -> np.ndarray:
    """(12)(34)...: every site paired with its neighbor (row 0 of the basis)."""
    return np.arange(n_sites, dtype=np.int32) ^ 1


@dataclass(frozen=True)
class LinkBasis:
    """The partner array of `enumerate_links`, moves[k, i] = the row of e_i
    applied to row k (a closed loop iff moves[k, i] == k) and reflection[k]
    = the row of the mirror image of row k under x -> N-1-x.  Cached and
    shared: the arrays are read-only."""

    partners: np.ndarray
    moves: np.ndarray
    reflection: np.ndarray


@lru_cache(maxsize=None)
def link_basis(n_sites: int) -> LinkBasis:
    """One beta-independent basis per N, shared by every p.

    A matching is fixed by its opener word (bit x set iff site x opens an
    arc, P[x] > x), so rows are ranked by a sorted word array.  e_i pairs
    (i, i+1) and joins the former partners a, b of i and i+1; applied to
    every row at once, it rewrites those four bits and the result is ranked
    by `searchsorted`.  On a closed loop (a = i+1, b = i) the rewrite gives
    the word back, so the row stays.  A site opens in the mirror image
    exactly when its mirror site closes, so the mirrored opener word is the
    bit-reversed closer word, ranked the same way."""
    partners = enumerate_links(n_sites)
    word = np.uint32 if n_sites <= 32 else np.uint64
    one = word(1)
    words = np.zeros(len(partners), dtype=word)
    mirrored = np.zeros_like(words)
    for x in range(n_sites):
        words |= (partners[:, x] > x).astype(word) << x
        mirrored |= (partners[:, x] < x).astype(word) << (n_sites - 1 - x)
    rank = np.argsort(words)
    ranked = words[rank]
    moves = np.empty((len(partners), n_sites - 1), dtype=np.int32)
    for i in range(n_sites - 1):
        a, b = partners[:, i].astype(word), partners[:, i + 1].astype(word)
        kept = words & ~((one << i) | (one << (i + 1)) | (one << a) | (one << b))
        moves[:, i] = rank[np.searchsorted(ranked, kept | (one << i) | (one << np.minimum(a, b)))]
    reflection = rank[np.searchsorted(ranked, mirrored)].astype(np.int32)
    moves.flags.writeable = reflection.flags.writeable = False
    return LinkBasis(partners, moves, reflection)


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


def tl_generator_matrix(i: int, n_sites: int, beta: float) -> np.ndarray:
    """Dense e_i in the link basis, read off the move table."""
    moves = link_basis(n_sites).moves
    cols = np.arange(len(moves))
    e = np.zeros((len(moves), len(moves)))
    e[moves[:, i], cols] = np.where(moves[:, i] == cols, beta, 1.0)
    return e


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


def reflection_sector(n_sites: int, beta: float, parity: int):
    """H and H^T in the reflection sector of `parity` (+1 even, -1 odd), and
    the sparse embedding of the sector into link space.

    The reflection R (x -> N-1-x) commutes with H.  The sector has one
    vector s + parity*Rs per orbit {s, Rs}, at its lower row s <= Rs (the
    odd sector has none on a fixed state s = Rs); a sector vector's
    coordinates are its link components at those rows.  Column s of the
    sector's H is H s + parity*R H s read there: a move of s to m adds
    [m <= Rm] + parity*[m >= Rm] to m's orbit, or only [m <= Rm] when s is
    fixed.  With the orbit sizes D, the sector of H^T is D^-1 M^T D for the
    sector M of H, not M^T (they differ on the even sector only)."""
    basis = link_basis(n_sites)
    mirror = basis.reflection
    rows = np.arange(len(mirror))
    lower, upper = rows <= mirror, rows >= mirror
    reps = np.flatnonzero(lower if parity > 0 else rows < mirror)
    dim = len(reps)
    paired = reps != mirror[reps]
    coord = np.zeros(len(mirror), dtype=np.int64)
    coord[reps] = coord[mirror[reps]] = np.arange(dim)
    embed = sp.csr_matrix(
        (np.r_[np.ones(dim), np.full(paired.sum(), float(parity))],
         (np.r_[reps, mirror[reps[paired]]], np.r_[np.arange(dim), np.flatnonzero(paired)])),
        shape=(len(mirror), dim))
    moves = basis.moves[reps]
    closed = moves == reps[:, None]
    cols, _ = np.nonzero(~closed)
    to = moves[~closed]
    weight = lower[to] + parity * (upper[to] & paired[cols])
    hit = weight != 0
    a = sp.coo_matrix((weight[hit].astype(float), (coord[to[hit]], cols[hit])),
                      shape=(dim, dim)).tocsr()
    h = -(a + sp.diags(beta * closed.sum(axis=1))).tocsc()
    size = 1.0 + paired
    return h, (sp.diags(1 / size) @ h.T @ sp.diags(size)).tocsr(), embed


class DegenerateNormError(ArithmeticError):
    pass


class ShortfallError(RuntimeError):
    """Fewer physical states than requested: in the whole basis on the dense
    route, or in ARPACK runs that stopped finding new ones (a limit of the
    request, not a broken exact invariant)."""


@dataclass
class SpectrumEntry:
    k: int
    energy: float
    vector: np.ndarray      # loop-normalized: v^T G v = 1
    boundary_overlap: float  # <B|k>, sign fixed >= 0; exactly 0.0 on an odd state
    parity: int             # reflection sector: +1 even, -1 odd


NULL_TOL = 1e-8


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


def _physical_states(n_sites, beta, h, energies, right, left, count, boundary,
                     parity) -> list[SpectrumEntry]:
    """The lowest `count`+1 physical states (fewer if there are fewer) among
    sorted real eigenvalues with right (H V = V E) and left (H^T W = W E)
    eigenvectors, all in one reflection sector of `parity`; `boundary` is
    the sector's part of the Gram row of B (zero in the odd sector).

    G H = H^T G maps each right eigenspace onto the left one: G V = W C on
    a cluster.  C follows from the Gram rows at the cluster's anchors, the
    first pivots of a pivoted QR of W^T (for a simple eigenvalue, the
    largest component of w), and the Gram block is V^T G V = V^T W C.  Its
    Gram-null directions are skipped and a negative norm raises.  A
    degenerate physical cluster is rotated so that B couples only to its
    first member, whatever basis the solver returned.  A physical state
    that is no eigenvector of H raises."""
    partners = link_basis(n_sites).partners
    out = []
    for i, j in eigenvalue_clusters(energies):
        if len(out) > count:
            break
        v, w = right[:, i:j], left[:, i:j]
        anchors = sla.qr(w.T, mode="r", pivoting=True)[1][:j - i]
        rows = np.array([gram_row(partners, beta, partners[a]) for a in anchors])
        block = (v.T @ w) @ np.linalg.solve(w[anchors], rows @ v)
        lam, u = np.linalg.eigh((block + block.T) / 2)
        if lam.min() < -NULL_TOL * rows.max():
            raise DegenerateNormError(f"negative loop norm {lam.min()} at N={n_sites}")
        keep = lam > NULL_TOL * rows.max()
        y = v @ (u[:, keep] / np.sqrt(lam[keep]))
        b = boundary @ y
        if len(b) > 1 and b.any():
            b /= np.linalg.norm(b)
            y = y @ np.column_stack([b, sla.null_space(b[None])])
        energy = float(energies[i:j].mean())
        residual = np.abs(h @ y - energy * y).max(initial=0.0)
        if residual > 1e-8 * max(1.0, abs(energy)):
            raise DegenerateNormError(f"eigen-residual {residual:.1e} at E={energy}, "
                                      f"N={n_sites}: a degenerate cluster mixes eigenvalues")
        for t in range(y.shape[1]):
            ovl = beta ** (-n_sites / 2) * float(boundary @ y[:, t])
            sign = -1.0 if ovl < 0 else 1.0
            out.append(SpectrumEntry(len(out), energy, sign * y[:, t], sign * ovl, parity))
    return out[:count + 1]


def _eigenpairs(m, k):
    """Sorted real eigenpairs of the sparse m: ARPACK's k lowest, in an
    Arnoldi space of 5k vectors, or all of them from dense eig when k is
    None."""
    if k is None:
        w, v = sla.eig(m.toarray())
        if np.abs(w.imag).max() > 1e-9:
            raise DegenerateNormError("complex eigenvalues in the link-basis H")
    else:
        # fixed start vector: ARPACK's default is random, which would break
        # the byte-identical-rerun guarantee; the ones vector has a large
        # component along the sign-uniform lowest state
        v0 = np.full(m.shape[0], 1.0 / math.sqrt(m.shape[0]))
        w, v = spl.eigs(m, k=k, which="SR", ncv=5 * k, maxiter=20000, tol=0, v0=v0)
        if np.abs(w.imag).max() > 1e-8:
            raise DegenerateNormError("complex ARPACK eigenvalues in the link-basis H")
    order = np.argsort(w.real)
    return w.real[order], v.real[:, order]


def _sector_states(n_sites, beta, h, boundary, parity, count, k, below=math.inf):
    """One reflection sector's lowest physical states, up to `count`+1 and
    from clusters that start below `below`, and the energy below which
    they are all of the sector's: ARPACK's k lowest eigenpairs of the
    sector's H and H^T less their last cluster (which the runs may hold
    only part of, unpaired), or every eigenpair from dense eig when k is
    None or 5k does not fit inside the sector."""
    op, op_t, embed = reflection_sector(n_sites, beta, parity)
    if op.shape[0] == 0:  # N = 2, 4: every state is its own mirror image
        return [], math.inf
    if k is not None and 5 * k >= op.shape[0]:
        k = None
    (wr, vr), (wl, vl) = (_eigenpairs(m, k) for m in (op, op_t))
    if np.abs(wr - wl).max() > 1e-7 * max(1.0, np.abs(wr).max()):
        raise DegenerateNormError("left/right spectra disagree")
    starts = [i for i, _ in eigenvalue_clusters(wr)]
    top, stop = math.inf, len(wr)
    if k is not None:
        top, stop = wr[starts[-1]], starts[-1]
    stop = next((i for i in starts if i < stop and wr[i] >= below), stop)
    # B is reflection-even: it has no part in the odd sector
    part = boundary if parity > 0 else np.zeros_like(boundary)
    return _physical_states(n_sites, beta, h, wr[:stop], embed @ vr[:, :stop],
                            embed @ vl[:, :stop], count, part, parity), top


def _spectrum(n_sites, beta, count, k, boundary) -> list[SpectrumEntry]:
    """The lowest `count`+1 physical states of both reflection sectors (fewer
    if the sectors hold fewer), in global energy order below the lower of
    the two sectors' edges.  The cluster that reaches that edge is left
    out, and inside a cluster even states come first: B couples to the
    first member of a degenerate pair.  No odd state from the energy of the
    (`count`+1)-th even one on can be among them, so the odd sector's
    clusters stop there."""
    if boundary is None:
        boundary = gram_row(link_basis(n_sites).partners, beta, adjacent_state(n_sites))
    h = sparse_structure(n_sites, beta)  # for the eigen-residuals in link space
    even, top = _sector_states(n_sites, beta, h, boundary, 1, count, k)
    below = even[count].energy if len(even) > count else math.inf
    odd, odd_top = _sector_states(n_sites, beta, h, boundary, -1, count, k, below)
    top = min(top, odd_top)
    states = sorted((s for s in even + odd if s.energy < top), key=lambda s: s.energy)
    out = []
    for i, j in eigenvalue_clusters([s.energy for s in states] + [top]):
        if j > len(states):
            break
        out += sorted(states[i:j], key=lambda s: -s.parity)
    for label, state in enumerate(out):
        state.k = label
    return out[:count + 1]


def spectrum_dense(n_sites: int, beta: float, count: int, boundary=None) -> list[SpectrumEntry]:
    """Lowest `count`+1 physical states from dense eig of each reflection
    sector's H and H^T.  Fewer in the whole basis than requested raise
    ShortfallError.  `boundary` is the Gram row of B, computed when not
    given."""
    out = _spectrum(n_sites, beta, count, None, boundary)
    if len(out) <= count:
        raise ShortfallError(f"only {len(out)} of the {count + 1} requested "
                             f"physical states exist at N={n_sites}")
    return out


def spectrum_sparse(n_sites: int, beta: float, count: int, k: int,
                    boundary=None) -> list[SpectrumEntry]:
    """The lowest physical states, up to `count`+1, among ARPACK's k lowest
    eigenpairs of H and of H^T in each reflection sector (in an Arnoldi
    space of 5k vectors; dense eig for a sector it does not fit), without
    building G.  `boundary` is the Gram row of B, computed when not given."""
    return _spectrum(n_sites, beta, count, k, boundary)


def spectrum(n_sites: int, beta: float, count: int) -> list[SpectrumEntry]:
    """Lowest `count`+1 physical states, solved in the even and odd
    reflection sectors.  Each sector's ARPACK runs compute k = max(count +
    6, 10) // 2 + 1 eigenpairs while their Arnoldi space 5k fits inside the
    sector, and k doubles while a run finds more physical states than the
    run before but too few; a run that finds no new one raises
    ShortfallError.  Once the Arnoldi space fits neither sector, dense eig
    answers.  The Gram row of B is computed once."""
    basis = link_basis(n_sites)
    boundary = gram_row(basis.partners, beta, adjacent_state(n_sites))
    # the even sector, one vector per orbit, is the larger one
    orbits = np.count_nonzero(np.arange(len(basis.reflection)) <= basis.reflection)
    k, found = max(count + 6, 10) // 2 + 1, 0
    while 5 * k < orbits:
        out = spectrum_sparse(n_sites, beta, count, k, boundary)
        if len(out) > count:
            return out
        if len(out) <= found:
            raise ShortfallError(
                f"only {len(out)} of the {count + 1} requested physical states are among "
                f"the {k} lowest eigenvalues of each reflection sector at N={n_sites}: "
                f"this run found no new one")
        found, k = len(out), 2 * k
    return spectrum_dense(n_sites, beta, count, boundary)


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
            for n in sorted(n_values) for e in spectrum(n, weight.beta, kmax)]


def loop_fit_summary(records, drop_first_excited: int = DROP_FIRST_EXCITED) -> dict:
    """Table-style summary: a1 and alpha from the ground state (full window,
    scaling form with N, logN), excited overlaps from ratio fits dropping the
    first points, plus the raw k=2 overlaps (expected to vanish for N >= 10;
    null when no N >= 10 is present).
    """
    by_k: dict = {}
    p = None
    for r in records:
        p = r.p
        by_k.setdefault(r.k, []).append(r)
    ground = sorted(by_k[0], key=lambda r: r.n_sites)
    gdata = [(r.n_sites, -math.log(r.overlap)) for r in ground]
    g_by_n = {r.n_sites: r.overlap for r in ground}
    weight = LoopWeight(p)
    summary = {
        "p": p if not math.isinf(p) else "inf",
        "beta": weight.beta,
        "c": weight.central_charge,
        "a1_cft": -weight.central_charge / 8,
        "overlaps": {},
    }
    try:
        gfit = fit(gdata, ABSOLUTE_BASIS)
        summary["a1"] = gfit.coefficient("logN")
        summary["a1_spread"] = gfit.window_spread["logN"]
        summary["alpha"] = extract_overlap(gfit)
        summary["alpha_spread"] = summary["alpha"] * math.expm1(gfit.window_spread["1"])
    except FitError as exc:
        summary["fit_error"] = str(exc)
    if 1 in by_k:
        rows = sorted(by_k[1], key=lambda r: r.n_sites)
        data = [(r.n_sites, -math.log(r.overlap / g_by_n[r.n_sites])) for r in rows]
        try:
            rfit = fit(data, RATIO_BASIS, drop_first=drop_first_excited)
            summary["overlaps"][1] = {
                "value": extract_overlap(rfit),
                "spread": rfit.window_spread["1"],
                "cft": math.sqrt(weight.central_charge / 2),
            }
        except FitError as exc:
            summary["overlaps"][1] = {"fit_error": str(exc)}
    if 2 in by_k:
        worst = max((abs(r.overlap) for r in by_k[2] if r.n_sites >= 10), default=None)
        summary["overlaps"][2] = {"max_abs_for_n_ge_10": worst, "cft": 0.0}
    return summary
