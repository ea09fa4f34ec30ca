"""Critical transverse-field Ising chain with free/free boundaries.

The chain H = -(1/2)(sum sigma^z_i + sum sigma^x_i sigma^x_{i+1}) is solved
by the exact single-particle data (Lieb, Schultz and Mattis), with
theta_k = (2k-1) pi / (2N+1),

    Lambda_k  = 2 sin(theta_k / 2),                     k = 1..N
    phi+_ki   = (-)^i   (2/sqrt(2N+1)) cos(theta_k (i-1/2))
    phi-_ki   = (-)^{i+1}(2/sqrt(2N+1)) sin(theta_k i),

and the squared overlap of any eigenstate with the all-up product state is
the determinant det((1 + G)/2) built from the correlation kernel
G_ij = -sum_k s_k phi-_ki phi+_kj, where s_k = -1 on excited modes.
`correlation_matrix`, `overlap_sq` and `neg_log_overlap` compute it so, in
site space.  The overlap table works in mode space instead, where the
orthogonal O = phi+ phi-^T has a closed form: with s_k = sin(theta_k / 2),
c_k = cos(theta_k / 2) and f = 2/(2N+1), split into odd (o) and even (e)
mode indices,

    (1 - O)_kl = f c_k c_l / (s_k + s_l),    k != l of equal parity
    (1 - O)_kk = 1 + (1/s_k + 2N s_k) / (2N+1)
    O_kl       = f c_k c_l / (s_k - s_l),    k odd, l even,

and O_eo = -O_oe^T: Cauchy matrices (Cauchy 1841) plus a diagonal
(`mode_blocks`).  The Cayley transform A = 2 (1 - O)^-1 - 1 is
antisymmetric with zero same-parity blocks, so (1 - O)^-1 =
(1/2)[[1, B], [-B^T, 1]] with B = A_oe = K^-1 O_oe, where K = 1 - O_oo is
symmetric positive definite.  Since phi- is orthogonal, det M0 =
det((1 - O)/2) = det K / 2^ceil(N/2) for the ground state's M0 = (1 + G0)/2,
so one Cholesky of the ceil(N/2) x ceil(N/2) block K per N gives
-log det M0 (N = 1000 needs no extended precision) and the few columns of A
that each state's small minor is read from.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from .fitting import FitError, ground_state_fit, ratio_fit, rows_by_k


@dataclass
class FreeFermionSolution:
    n_sites: int
    energies: np.ndarray       # Lambda_k ascending, k = 1..N
    phi_plus: np.ndarray       # phi+[k-1, i-1]
    phi_minus: np.ndarray


def _mode_angles(n_sites: int) -> np.ndarray:
    """theta_k = (2k-1) pi / (2N+1) for k = 1..N."""
    return (2 * np.arange(1, n_sites + 1) - 1) * np.pi / (2 * n_sites + 1)


def mode_energies(n_sites: int) -> np.ndarray:
    """Lambda_k = 2 sin(theta_k / 2), ascending."""
    return 2.0 * np.sin(_mode_angles(n_sites) / 2)


def solve_chain(n_sites: int) -> FreeFermionSolution:
    if n_sites < 1:
        raise ValueError("need at least one site")
    n = n_sites
    i = np.arange(1, n + 1)
    theta = _mode_angles(n)
    phip = ((-1.0) ** i)[None, :] * (2 / np.sqrt(2 * n + 1)) * np.cos(np.outer(theta, i - 0.5))
    phim = ((-1.0) ** (i + 1))[None, :] * (2 / np.sqrt(2 * n + 1)) * np.sin(np.outer(theta, i))
    return FreeFermionSolution(n, mode_energies(n), phip, phim)


def _cauchy_block(c_rows, c_cols, denominator, n_sites: int) -> np.ndarray:
    """(2/(2N+1)) c_k c_l / denominator_kl, exactly symmetric when the
    denominator is."""
    out = np.outer(c_rows, c_cols)
    out /= denominator
    out *= 2 / (2 * n_sites + 1)
    return out


def _same_parity_block(s, c, n_sites: int) -> np.ndarray:
    """1 - O on modes of one parity, given their s_k and c_k."""
    out = _cauchy_block(c, c, np.add.outer(s, s), n_sites)
    np.fill_diagonal(out, 1 + (1 / s + 2 * n_sites * s) / (2 * n_sites + 1))
    return out


def mode_blocks(n_sites: int, m: int):
    """K = 1 - O_oo, O_oe, and 1 - O_ee on the even modes <= m: the parity
    blocks of O = phi+ phi-^T from their closed form (module docstring),
    with no N x N trigonometry or matmul.  Row or column j of a block is
    mode 2j + 1 (odd) or 2j + 2 (even)."""
    half = _mode_angles(n_sites) / 2
    s, c = np.sin(half), np.cos(half)
    so, co, se, ce = s[::2], c[::2], s[1::2], c[1::2]
    return (_same_parity_block(so, co, n_sites),
            _cauchy_block(co, ce, np.subtract.outer(so, se), n_sites),
            _same_parity_block(se[:m // 2], ce[:m // 2], n_sites))


def correlation_matrix(sol: FreeFermionSolution, excitation=()) -> np.ndarray:
    """G_ij = -sum_k s_k phi-_ki phi+_kj with s_k = -1 for excited k (1-based)."""
    sign = np.ones(sol.n_sites)
    for k in excitation:
        sign[k - 1] = -1.0
    return -(sol.phi_minus * sign[:, None]).T @ sol.phi_plus


def overlap_sq(sol: FreeFermionSolution, excitation=()) -> float:
    """|<all-up | k1..ks>|^2 = det((1 + G)/2); alarms on determinants below
    -1e-12 (parity zeros may round to tiny negatives)."""
    g = correlation_matrix(sol, excitation)
    det = float(np.linalg.det((np.eye(sol.n_sites) + g) / 2))
    if det < -1e-12:
        raise ArithmeticError(f"negative overlap determinant {det} at N={sol.n_sites}")
    return max(det, 0.0)


def neg_log_overlap(sol: FreeFermionSolution, excitation=()) -> float:
    """-log |<all-up|exc>| via slogdet; +inf where the determinant is not
    positive."""
    g = correlation_matrix(sol, excitation)
    sign, logdet = np.linalg.slogdet((np.eye(sol.n_sites) + g) / 2)
    if sign <= 0:
        return np.inf
    return -0.5 * logdet


def enumerate_low_states(energies, kmax: int):
    """The kmax+1 lowest excitation sets by energy sum, empty set first.

    Best-first expansion over subsets of the ascending single-particle
    `energies` (`mode_energies(n)`); each nonempty subset is generated once
    via the usual grow/replace moves on its largest index."""
    lam, n = energies, len(energies)
    out = [(0.0, ())]
    heap = []
    if n >= 1:
        heapq.heappush(heap, (float(lam[0]), (1,)))
    while heap and len(out) <= kmax:
        e, s = heapq.heappop(heap)
        out.append((e, s))
        top = s[-1]
        if top < n:
            heapq.heappush(heap, (e + float(lam[top]), s + (top + 1,)))
            heapq.heappush(heap, (e - float(lam[top - 1]) + float(lam[top]),
                                  s[:-1] + (top + 1,)))
    return out[:kmax + 1]


def overlap_allowed(excitation) -> bool:
    """The selection rule: <B|S> = 0 exactly unless S has as many odd as
    even mode indices.

    A = (1 + O)(1 - O)^-1 is the Cayley transform of the orthogonal O, so it
    is antisymmetric, and A_ab = 0 whenever a + b is even, so
    det((1 + G_S)/2) = det M0 * Pf(A_SS)^2; a Pfaffian of a bipartite
    antisymmetric matrix vanishes unless its two sides have equal size.
    This covers every parity-odd S and even ones such as (1, 3)."""
    return 2 * sum(k % 2 for k in excitation) == len(excitation)


def conformal_label(excitation) -> Fraction:
    """Scaling dimension of the tower member: sum (k - 1/2) over excited k."""
    return sum((Fraction(2 * k - 1, 2) for k in excitation), Fraction(0))


@dataclass
class OverlapRecord:
    n_sites: int
    k: int
    excitation: tuple
    h_label: Fraction
    parity: int            # len(excitation) mod 2
    overlap: float         # |<B|k>|; exact 0 for forbidden states
    neg_log_overlap: float
    overlap_det: float     # numeric |<B|k>|^2: overlap**2, or for forbidden
                           # states det M0 * det A[S,S], signed, A's same-
                           # parity entries as computed (`_overlap_kernel`)


def _overlap_kernel(n_sites: int, m: int):
    """log det M0 and A = 2 (1 - O)^-1 - 1 on modes 1..m, from one Cholesky
    of K = 1 - O_oo (ArithmeticError unless K is positive definite, which
    makes det M0 = det K / 2^ceil(N/2) positive).

    A_oe = B = K^-1 O_oe; A's same-parity entries, exactly 0, are computed
    as what the factored block leaves of them: A_oo = 2 K^-1 - B B^T - 1
    and A_ee = -(S - 2)/2 with S = (1 - O_ee) + O_oe^T B (= 2 exactly), the
    numeric witness of the forbidden states."""
    mo, me = (m + 1) // 2, m // 2
    k, o_oe, l_ee = mode_blocks(n_sites, m)
    try:
        chol = scipy.linalg.cho_factor(k, overwrite_a=True)
    except np.linalg.LinAlgError:
        raise ArithmeticError(f"K = 1 - O_oo is not positive definite at N={n_sites}") from None
    logdet0 = 2 * np.log(np.diag(chol[0])).sum() - len(k) * np.log(2)
    x = scipy.linalg.cho_solve(chol, np.hstack([np.eye(len(k), mo), o_oe[:, :me]]))
    kinv, b = x[:, :mo], x[:, mo:]  # K^-1 on odd modes <= m, B on even modes <= m
    b_rows = kinv.T @ o_oe          # B on odd modes <= m, every even column
    a = np.empty((m, m))
    a[::2, ::2] = 2 * kinv[:mo] - b_rows @ b_rows.T - np.eye(mo)
    a[::2, 1::2] = b[:mo]
    a[1::2, ::2] = -b[:mo].T
    a[1::2, 1::2] = (2 * np.eye(me) - l_ee - o_oe[:, :me].T @ b) / 2
    return float(logdet0), a


def ising_overlap_table(n_values, kmax: int) -> list[OverlapRecord]:
    """Overlap records for all N in `n_values` and the kmax+1 lowest states.

    States k = 0..kmax are the kmax+1 lowest at the largest N, tracked at
    every smaller N and skipped where a mode index exceeds N.  This keeps
    each fit on one physical state; near-degenerate pairs (the two h = 4
    states) are split by their exact energy sums.

    Each N costs one Cholesky of the odd-mode block K = 1 - O_oo, built
    from the closed form of O = phi+ phi-^T (`mode_blocks`); no N x N
    matrix is built or factorised.  Exciting S adds a rank-|S| term to M0,
    so det((1 + G_S)/2) = det M0 * det A[S,S] (matrix determinant lemma)
    with the Cayley transform A = (1 + O)(1 - O)^-1 = 2 (1 - O)^-1 - 1: one
    small principal minor per state.  States forbidden by `overlap_allowed`
    are reported as exact 0, with det M0 * minor kept, signed, in
    `overlap_det` as the numeric check (ArithmeticError below -1e-12); an
    allowed state whose minor is not positive raises ArithmeticError.
    """
    n_values = sorted(n_values, reverse=True)
    labels = [exc for _, exc in enumerate_low_states(mode_energies(max(n_values)), kmax)]
    modes = max((exc[-1] for exc in labels if exc), default=0)
    h_labels = [conformal_label(exc) for exc in labels]
    records = []
    for n in n_values:  # largest N first, while the records are few
        logdet0, a = _overlap_kernel(n, min(modes, n))
        for k, exc in enumerate(labels):
            if exc and exc[-1] > n:
                continue
            s = [j - 1 for j in exc]
            minor = float(np.linalg.det(a.take(s, 0).take(s, 1)))
            if overlap_allowed(exc):
                if not minor > 0:
                    raise ArithmeticError(f"minor {minor} of <B|{exc}> at N={n}")
                nlo = -0.5 * (logdet0 + np.log(minor))
                ovl = float(np.exp(-nlo))
                det = ovl ** 2
            else:
                nlo, ovl, det = np.inf, 0.0, float(np.exp(logdet0) * minor)
                if det < -1e-12:
                    raise ArithmeticError(f"negative overlap determinant {det} at N={n}")
            records.append(OverlapRecord(
                n_sites=n, k=k, excitation=exc, h_label=h_labels[k], parity=len(exc) % 2,
                overlap=ovl, neg_log_overlap=nlo, overlap_det=det))
    return sorted(records, key=lambda r: r.n_sites)


def ising_fit_summary(records) -> dict:
    """a1, alpha from the ground-state series and <B|k> from ratio fits.

    States forbidden by `overlap_allowed` are reported as exact zeros
    without fitting, with the largest |overlap_det| as `max_det`;
    `parity_forbidden` marks the parity-odd ones.  A fit that cannot be
    made (too few N) is recorded as its `fit_error` text."""
    by_k = rows_by_k(records)
    g_by_n = {r.n_sites: r.neg_log_overlap for r in by_k.pop(0)}
    try:
        gfit, block = ground_state_fit(list(g_by_n.items()))
        summary = {**block, "ground_fit": gfit.to_json(), "overlaps": {}}
    except FitError as exc:
        summary = {"fit_error": str(exc), "overlaps": {}}
    for k, rows in by_k.items():
        h = str(rows[0].h_label)
        if not overlap_allowed(rows[0].excitation):
            summary["overlaps"][k] = {"h": h, "value": 0.0,
                                      "parity_forbidden": rows[0].parity == 1,
                                      "max_det": max(abs(r.overlap_det) for r in rows)}
            continue
        data = [(r.n_sites, r.neg_log_overlap - g_by_n[r.n_sites]) for r in rows]
        try:
            value, spread = ratio_fit(data)
            fitted = {"value": value, "a2_spread": spread}
        except FitError as exc:
            fitted = {"fit_error": str(exc)}
        summary["overlaps"][k] = {"h": h, **fitted, "parity_forbidden": False}
    return summary
