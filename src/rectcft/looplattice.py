"""Temperley-Lieb dense loop model on N strands with free boundaries.

Link states are non-crossing perfect matchings of N sites (the j = 0
sector, Catalan(N/2) of them).  The Hamiltonian H = -sum_i e_i acts in the
link basis; the loop bilinear form <s1|s2> = beta^{#loops} makes H
self-adjoint, G H = H^T G.  At the root-of-unity weights used here the
Gram form is positive semidefinite with a nontrivial radical, so physical
eigenstates are extracted by projecting Gram-null directions out of each
(near-)degenerate eigenvalue cluster.

Two diagonalization paths, cross-checked in the tests:
  dense (N <= 16):  full nonsymmetric eig + per-cluster Gram projection
                    (a Cholesky pencil solve is used when G is positive
                    definite, e.g. larger p);
  sparse (N > 16):  ARPACK on H and H^T; for a simple eigenvalue the left
                    eigenvector w is proportional to G v, and the constant
                    follows from a single computable row of G, giving loop
                    norms and overlaps without ever materializing G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spl

from .fitting import ABSOLUTE_BASIS, RATIO_BASIS, FitError, extract_overlap, fit

DENSE_LIMIT = 16


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


def enumerate_links(n_sites: int) -> list[tuple]:
    """All non-crossing perfect matchings of 0..N-1, each as the tuple of
    partner indices.  Count = Catalan(N/2)."""
    if n_sites % 2:
        raise ValueError("need an even number of sites")

    def gen(sites):
        if not sites:
            yield ()
            return
        first = sites[0]
        for idx in range(1, len(sites), 2):
            partner = sites[idx]
            for inner in gen(sites[1:idx]):
                for outer in gen(sites[idx + 1:]):
                    yield ((first, partner),) + inner + outer

    out = []
    for pairs in gen(tuple(range(n_sites))):
        m = [0] * n_sites
        for a, b in pairs:
            m[a], m[b] = b, a
        out.append(tuple(m))
    return out


def adjacent_state(n_sites: int) -> tuple:
    """(12)(34)...: every site paired with its neighbor."""
    return tuple(i + 1 if i % 2 == 0 else i - 1 for i in range(n_sites))


def apply_tl(i: int, state: tuple):
    """e_i on a link state (pairs sites i, i+1, 0-based i <= N-2).

    Returns (new_state, closed_loop): the new pairing joins (i, i+1) and the
    former partners of i and i+1; a closed loop appears iff i and i+1 were
    already partners (diagrammatically worth a factor beta)."""
    a, b = state[i], state[i + 1]
    if a == i + 1:
        return state, True
    t = list(state)
    t[i], t[i + 1] = i + 1, i
    t[a], t[b] = b, a
    return tuple(t), False


def loops_between(s1: tuple, s2: tuple) -> int:
    """Closed loops formed by gluing s2 against the mirror image of s1:
    the number of orbits of the composition of the two involutions."""
    n = len(s1)
    seen = [False] * n
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        x = start
        while not seen[x]:
            seen[x] = True
            y = s2[x]
            seen[y] = True
            x = s1[y]
    return count


@dataclass(frozen=True)
class LinkBasis:
    """Link states, their index, and moves[k, i] = index of e_i on state k
    (a closed loop iff moves[k, i] == k).  Cached and shared: read-only."""

    states: tuple
    index: MappingProxyType
    moves: np.ndarray


@lru_cache(maxsize=None)
def link_basis(n_sites: int) -> LinkBasis:
    """One beta-independent basis per N, shared by every p."""
    states = tuple(enumerate_links(n_sites))
    index = {s: k for k, s in enumerate(states)}
    moves = np.empty((len(states), n_sites - 1), dtype=np.int32)
    for k, s in enumerate(states):
        moves[k] = [index[apply_tl(i, s)[0]] for i in range(n_sites - 1)]
    moves.flags.writeable = False
    return LinkBasis(states, MappingProxyType(index), moves)


@lru_cache(maxsize=None)
def loop_counts(n_sites: int) -> np.ndarray:
    """loops_between for every pair of link states (read-only)."""
    states = link_basis(n_sites).states
    counts = np.empty((len(states), len(states)), dtype=np.int8)
    for a, s in enumerate(states):
        counts[a, a:] = counts[a:, a] = [loops_between(s, t) for t in states[a:]]
    counts.flags.writeable = False
    return counts


def gram(n_sites: int, beta: float) -> np.ndarray:
    # Python's float ** int, not np.power, which rounds differently
    powers = np.array([beta ** m for m in range(n_sites // 2 + 1)])
    return powers[loop_counts(n_sites)]


def hamiltonian(n_sites: int, beta: float) -> np.ndarray:
    """H = -sum_i e_i, accumulated in increasing i."""
    h = np.zeros((len(link_basis(n_sites).states),) * 2)
    for i in range(n_sites - 1):
        h -= tl_generator_matrix(i, n_sites, beta)
    return h


def tl_generator_matrix(i: int, n_sites: int, beta: float) -> np.ndarray:
    moves = link_basis(n_sites).moves
    cols = np.arange(len(moves))
    e = np.zeros((len(moves), len(moves)))
    e[moves[:, i], cols] = np.where(moves[:, i] == cols, beta, 1.0)
    return e


def sparse_structure(n_sites: int):
    """(states, index, offdiag A, diagonal loop counts); H = -(A + beta*diag).

    beta-independent; read off the cached move table of `link_basis`."""
    basis = link_basis(n_sites)
    d, moves = len(basis.states), basis.moves
    closed = moves == np.arange(d)[:, None]
    # row-major order: state k outer, generator i inner
    cols, _ = np.nonzero(~closed)
    rows = moves[~closed]
    a = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(d, d)).tocsr()
    return basis.states, basis.index, a, closed.sum(axis=1).astype(float)


def boundary_link_state(n_sites: int, beta: float) -> np.ndarray:
    """beta^{-N/2} on the all-adjacent-arcs pattern, as a link-basis vector."""
    basis = link_basis(n_sites)
    v = np.zeros(len(basis.states))
    v[basis.index[adjacent_state(n_sites)]] = beta ** (-n_sites / 2)
    return v


def gram_row(states, beta: float, s0: tuple) -> np.ndarray:
    return np.array([beta ** loops_between(s0, s) for s in states])


class DegenerateNormError(ArithmeticError):
    pass


class ArpackShortfallError(RuntimeError):
    """Fewer physical states than requested among the computed ARPACK
    eigenvalues (a resource limit, not a broken exact invariant)."""


@dataclass
class SpectrumEntry:
    k: int
    energy: float
    vector: np.ndarray      # loop-normalized: v^T G v = 1
    boundary_overlap: float  # <B|k>, sign fixed >= 0


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


def _with_overlaps(n_sites, beta, states, picked) -> list[SpectrumEntry]:
    """Entry k for the k-th (energy, loop-normalized vector), signed so
    that <B|k> >= 0."""
    row = gram_row(states, beta, adjacent_state(n_sites))
    out = []
    for k, (e, v) in enumerate(picked):
        ovl = beta ** (-n_sites / 2) * float(row @ v)
        if ovl < 0:
            v, ovl = -v, -ovl
        out.append(SpectrumEntry(k=k, energy=e, vector=v, boundary_overlap=ovl))
    return out


def spectrum_dense(n_sites: int, beta: float, count: int) -> list[SpectrumEntry]:
    """Lowest `count`+1 physical states by full diagonalization.

    Gram-positive-definite case: symmetric pencil (GH) v = E G v, which
    yields loop-normalized eigenvectors directly.  Otherwise (the loop form
    has a radical at these roots of unity) fall back to plain eig and
    project each eigenvalue cluster onto the Gram-positive subspace."""
    g = gram(n_sites, beta)
    scale = g.max()
    # Cholesky alone is not a safe positivity test: at the root-of-unity
    # weights the Gram radical shows up as eigenvalues at roundoff scale,
    # which factor "successfully" and poison the pencil solve
    gram_eigs = np.linalg.eigvalsh(g)
    positive = gram_eigs.min() > 1e-10 * gram_eigs.max()
    # H stays unnamed, so its memory is freed before the eigensolver runs
    if positive:
        energies, vectors = sla.eigh(g @ hamiltonian(n_sites, beta), g)
        picked = [(float(energies[t]), vectors[:, t])
                  for t in np.argsort(energies)[:count + 1]]
    else:
        picked = []  # (energy, loop-normalized vector)
        energies, vectors = sla.eig(hamiltonian(n_sites, beta))
        if np.abs(energies.imag).max() > 1e-9:
            raise DegenerateNormError("complex eigenvalues in the link-basis H")
        energies = energies.real
        vectors = vectors.real
        order = np.argsort(energies)
        energies, vectors = energies[order], vectors[:, order]
        for i, j in eigenvalue_clusters(energies):
            if len(picked) > count:
                break
            block = vectors[:, i:j]
            m = block.T @ g @ block
            lam, u = np.linalg.eigh(m)
            if lam.min() < -NULL_TOL * scale:
                raise DegenerateNormError(
                    f"negative loop norm {lam.min()} at N={n_sites}")
            for t in range(len(lam)):
                if lam[t] > NULL_TOL * scale:
                    picked.append((float(energies[i:j].mean()),
                                   block @ u[:, t] / math.sqrt(lam[t])))
    return _with_overlaps(n_sites, beta, link_basis(n_sites).states, picked[:count + 1])


def spectrum_sparse(n_sites: int, beta: float, count: int) -> list[SpectrumEntry]:
    """Lowest `count`+1 physical states via ARPACK without building G.

    Right and left eigenvectors (H and H^T) are matched by eigenvalue; for a
    simple physical eigenvalue G v = const * w, with the constant fixed by
    one row of G evaluated at the left vector's largest component.  Null
    states give const ~ 0 and are skipped.  A degenerate eigenvalue among
    the pairs used raises, since position alone cannot pair its vectors;
    so does a request with too few physical states among the computed
    eigenvalues (ArpackShortfallError)."""
    states, index, a, diag = sparse_structure(n_sites)
    h = -(a + sp.diags(beta * diag)).tocsc()
    k_req = max(count + 6, 10)
    ncv = max(60, 5 * k_req)
    # fixed start vector: ARPACK's default is random, which would break the
    # byte-identical-rerun guarantee; the ones vector has a large component
    # along the sign-uniform ground state
    v0 = np.full(h.shape[0], 1.0 / math.sqrt(h.shape[0]))
    wr, vr = spl.eigs(h, k=k_req, which="SR", ncv=ncv, maxiter=20000, tol=0, v0=v0)
    wl, vl = spl.eigs(h.T.tocsc(), k=k_req, which="SR", ncv=ncv, maxiter=20000, tol=0, v0=v0)
    if max(np.abs(wr.imag).max(), np.abs(wl.imag).max()) > 1e-8:
        raise DegenerateNormError("complex ARPACK eigenvalues in the link-basis H")
    o1 = np.argsort(wr.real)
    o2 = np.argsort(wl.real)
    wr, vr = wr.real[o1], vr[:, o1].real
    wl, vl = wl.real[o2], vl[:, o2].real
    if np.abs(wr - wl).max() > 1e-7 * max(1.0, np.abs(wr).max()):
        raise DegenerateNormError("left/right ARPACK spectra disagree")
    picked = []
    for t, end in eigenvalue_clusters(wr):
        if len(picked) > count:
            break
        if end - t > 1:
            raise DegenerateNormError(
                f"degenerate ARPACK eigenvalue {wr[t]} at N={n_sites}; "
                "left/right pairing is ambiguous")
        v, w = vr[:, t], vl[:, t]
        anchor = int(np.argmax(np.abs(w)))
        row_anchor = gram_row(states, beta, states[anchor])
        const = float(row_anchor @ v) / w[anchor]
        norm_sq = const * float(v @ w)
        if norm_sq <= NULL_TOL * float(np.abs(row_anchor).max()):
            continue  # Gram-null state
        picked.append((float(wr[t]), v / math.sqrt(norm_sq)))
    if len(picked) < count + 1:
        raise ArpackShortfallError(
            f"only {len(picked)} of the {count + 1} requested physical states are among "
            f"the {k_req} lowest ARPACK eigenvalues at N={n_sites}")
    return _with_overlaps(n_sites, beta, states, picked)


def spectrum(n_sites: int, beta: float, count: int) -> list[SpectrumEntry]:
    if n_sites <= DENSE_LIMIT:
        return spectrum_dense(n_sites, beta, count)
    return spectrum_sparse(n_sites, beta, count)


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


def loop_fit_summary(records, drop_first_excited: int = 3) -> dict:
    """Table-style summary: a1 and alpha from the ground state (full window,
    scaling form with N, logN), excited overlaps from ratio fits dropping the
    first points, plus the raw k=2 overlaps (expected to vanish for N >= 10).
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
        worst = max(abs(r.overlap) for r in by_k[2] if r.n_sites >= 10)
        summary["overlaps"][2] = {"max_abs_for_n_ge_10": worst, "cft": 0.0}
    return summary
