"""Plain references that the package is tested against, used only by the tests.

- Q[c] as a tuple of Fractions, c^0 first, the ring `series.CPoly` stores
  as integer numerators over one denominator.
- Three routes to the Virasoro amplitude against which
  `virasoro.product_amplitude` (one q-graded adjoint pass, its last factor
  e^{-L_2} applied transposed) is checked: the Shapovalov form, the
  adjoint exponentials run on each level component in turn, and the
  q-graded pass with e^{-L_2} run forward on every term like the other
  factors.  And the closed form of P_2, built from the scalar power of a
  series, a^r = exp(r log a), which only it and the tests raise.
- Scalar references for the vectorised loop-model code.  Each works on one
  link state at a time, given as a tuple (or row) of partner indices, the
  way the link basis was first written.  The dense TL generator e_i of
  the link basis and the whole RSOS H, which only the tests build.  And
  the link route to the loop spectrum, against which the RSOS
  height-basis solve is checked: the physical states picked from the
  Gram radical of the link basis, from one dense eig of the whole H or of
  each of its reflection sectors.
- The free-field mode-word sum that acts every word on every key and
  tests the level once, on the final key, in Fractions, against which
  `freefield.mode_sum` (which acts only where the result is kept, on
  integer numerators) is checked.  The free-field amplitude binned in
  Fractions.  And the O(cutoff^3) route to the Majorana table G_mn in
  Fractions, against which the dyadic integer recurrence of
  `freefield.g_series` is checked.  The boson coherent state by
  exponentiating its mode sum through `exp_truncated`, against which the
  product form of `freefield.boson_boundary_state` is checked.
- The partitions of n, and the level component and top level of a graded
  vector, which only the references and the tests read.  A Verma vector
  built from CPoly coefficients, a free-field vector built from rational
  ones, and the level of a free-field key as a Fraction.
- The Ising chain's 2^N brute-force diagonalization (N <= 12), the 2^N
  free-fermion spectrum it is compared with, and the orthogonality of the
  single-particle modes.  And the N x N mode-space route to the overlap
  table's kernel, against which the odd-mode Cholesky of
  `ising._overlap_kernel` is checked: the whole closed-form mode matrix O
  and one LU of (1 - O)/2."""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from rectcft import freefield
from rectcft.freefield import GMatrix
from rectcft.ising import FreeFermionSolution, _mode_angles
from rectcft.looplattice import (DegenerateNormError, RSOSBasis, SpectrumEntry, dyck_words,
                                 eigenvalue_clusters, gram_row, hamiltonian, link_basis,
                                 rsos_generators)
from rectcft.series import (CZERO, CPoly, Series, cpoly, exp_truncated, series_exp,
                            series_log)
from rectcft.virasoro import (VermaVector, _slit_factors, apply_mode, slit_factor_count,
                              slit_product, vacuum)

# ---------------------------------------------------------------- Q[c]


def poly(coeffs) -> tuple:
    """Coefficients as Fractions, trailing zeros trimmed."""
    cs = [Fraction(x) for x in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def poly_add(a, b) -> tuple:
    n = max(len(a), len(b))
    return poly((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def poly_neg(a) -> tuple:
    return tuple(-x for x in a)


def poly_mul(a, b) -> tuple:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly(out)


def poly_eval(a, x) -> Fraction:
    return sum((co * Fraction(x) ** k for k, co in enumerate(a)), Fraction(0))


# -------------------------------------------------------- graded vectors


def partitions(n: int, largest: int | None = None):
    """The partitions of n, as descending tuples."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def level_component(v, n):
    """The terms of the graded vector v at level n, as a vector of its type."""
    if isinstance(v, VermaVector):
        return VermaVector({lam: s for lam, s in v.terms.items() if sum(lam) == n},
                           v.cutoff, v.den)
    return type(v)({key: co for key, co in v.terms.items() if free_level(v, key) == n},
                   v.cutoff, v.den)


def max_level(v: VermaVector) -> int:
    """The highest level among the terms of v (0 for the zero vector)."""
    return max((sum(lam) for lam in v.terms), default=0)


# ------------------------------------------------------- Shapovalov route


def shapovalov(u: VermaVector, v: VermaVector) -> CPoly:
    """Bilinear form with L_n^dagger = L_{-n} and <0|0> = 1.

    Cross-level pairings vanish, so only matching levels contribute.
    """
    total = CZERO
    for lam, co in u.polys().items():
        w = level_component(v, sum(lam))
        for p in lam:
            w = apply_mode(p, w)
        val = w.coeff(())
        if not val.is_zero():
            total = total + co * val
    return total


def amplitude(v: VermaVector, order: int) -> Series:
    """<v| qhat^{L_0} |v> as a qhat-series with CPoly coefficients.

    The physical amplitude carries the extra prefactor qhat^{-c/24}, which
    is reported separately (see `eta_inverse_power`).  c_n is the Shapovalov
    square of the level-n component.
    """
    if order > v.cutoff:
        raise ValueError(f"order {order} exceeds cutoff {v.cutoff}")
    coeffs = []
    for n in range(order + 1):
        comp = level_component(v, n)
        coeffs.append(shapovalov(comp, comp))
    return Series("qhat", tuple(coeffs), order=order)


def product_amplitude_by_level(n_slit_exponent: int | None, order: int) -> Series:
    """The amplitude of a slit-product state from the adjoint exponentials
    (raising modes, largest first) applied to each level component of the
    state separately; `n_slit_exponent=None` means the full boundary state."""
    n = slit_factor_count(order) if n_slit_exponent is None else n_slit_exponent
    factors = _slit_factors(n)
    v = slit_product(apply_mode, vacuum(order), order, n)
    coeffs = []
    for lev in range(order + 1):
        comp = level_component(v, lev)
        for k, x in reversed(factors):
            comp = exp_truncated(functools.partial(apply_mode, k), comp, x,
                                 max_level(comp) // k)
        coeffs.append(comp.coeff(()))
    return Series("qhat", tuple(coeffs), order=order)


def product_amplitude_by_chain(n_slit_exponent: int | None, order: int) -> Series:
    """The amplitude from the q-graded adjoint pass with every factor, the
    last e^{-L_2} too, run through `exp_truncated` on all terms of the
    tagged vector, and the vacuum term read at the end;
    `n_slit_exponent=None` means the full boundary state."""
    n = slit_factor_count(order) if n_slit_exponent is None else n_slit_exponent
    v = slit_product(apply_mode, vacuum(order), order, n)
    width = order // 2 + 1
    g = v.qhat_tagged(width)
    for k, x in reversed(_slit_factors(n)):
        g = exp_truncated(functools.partial(apply_mode, k), g, x,
                          g.max_level() // k).reduced()
    rows = [[0] * width for _ in range(order + 1)]
    for t, num in g.terms.get((), {}).items():
        level, e = divmod(t, width)
        rows[level][e] = num
    # slot e holds the coefficient of h^e = c^e / 2^e
    return Series("qhat", tuple(CPoly(tuple(Fraction(num, g.den << e) for e, num in enumerate(row)))
                                for row in rows), order=order)


def restrict(v: VermaVector, cutoff: int) -> VermaVector:
    """The terms of v at level <= cutoff, as a vector truncated there."""
    return VermaVector({lam: s for lam, s in v.terms.items() if sum(lam) <= cutoff},
                       cutoff, v.den)


def verma(polys: dict, cutoff: int) -> VermaVector:
    """The Verma vector with the CPoly (or rational) coefficients `polys`,
    summed term by term through `add_scaled`."""
    v = VermaVector({}, cutoff)
    for lam, co in polys.items():
        v = v.add_scaled(VermaVector({lam: {0: 1}}, cutoff), co)
    return v


def series_pow_scalar(a: Series, r) -> Series:
    """a^r = exp(r log a) for a scalar r (Fraction or CPoly); needs constant term 1."""
    r = cpoly(r)
    return series_exp(series_log(a).map_coeffs(lambda co: r * co))


def p2_closed_form(order: int) -> Series:
    """(1+2q)^{1/2} (1+4q^2)^{5/8} / (1-16q^4)^{3/4} expanded to `order`."""

    def q_poly(coeffs):
        return Series("q", tuple(Fraction(c) for c in coeffs), order=order)

    f1 = series_pow_scalar(q_poly([1, 2]), Fraction(1, 2))
    f2 = series_pow_scalar(q_poly([1, 0, 4]), Fraction(5, 8))
    f3 = series_pow_scalar(q_poly([1, 0, 0, 0, -16]), Fraction(-3, 4))
    return f1 * f2 * f3


# ------------------------------------------------------------ loop model


def apply_tl(i: int, state):
    """e_i on a link state (pairs sites i, i+1, 0-based i <= N-2).

    Returns (new_state, closed_loop): the new pairing joins (i, i+1) and the
    former partners of i and i+1; a closed loop appears iff i and i+1 were
    already partners (diagrammatically worth a factor beta)."""
    state = tuple(int(x) for x in state)
    a, b = state[i], state[i + 1]
    if a == i + 1:
        return state, True
    t = list(state)
    t[i], t[i + 1] = i + 1, i
    t[a], t[b] = b, a
    return tuple(t), False


def loops_between(s1, s2) -> int:
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


def adjacent_state(n_sites: int) -> np.ndarray:
    """(12)(34)...: every site paired with its neighbor (the link-basis row
    `dyck_words(n).boundary`)."""
    return np.arange(n_sites, dtype=np.int32) ^ 1


def boundary_link_state(n_sites: int, beta: float) -> np.ndarray:
    """beta^{-N/2} on the all-adjacent-arcs pattern, as a link-basis vector."""
    partners = link_basis(n_sites).partners
    v = np.zeros(len(partners))
    v[(partners == adjacent_state(n_sites)).all(axis=1)] = beta ** (-n_sites / 2)
    return v


def tl_generator_matrix(i: int, n_sites: int, beta: float) -> np.ndarray:
    """Dense e_i in the link basis, read off the move table."""
    moves = link_basis(n_sites).moves
    cols = np.arange(len(moves))
    e = np.zeros((len(moves), len(moves)))
    e[moves[:, i], cols] = np.where(moves[:, i] == cols, beta, 1.0)
    return e


def rsos_hamiltonian(basis: RSOSBasis) -> sp.csr_matrix:
    """H = -sum_i e_i in the height basis, from all of `rsos_generators`."""
    _, rows, cols, values = rsos_generators(basis)
    d = len(basis.words)
    return -sp.coo_matrix((values, (rows, cols)), shape=(d, d)).tocsr()


NULL_TOL = 1e-8


def _physical_states(n_sites, beta, h, energies, right, left, count, boundary,
                     parity) -> list[SpectrumEntry]:
    """The lowest `count`+1 physical states (fewer if there are fewer) among
    sorted real eigenvalues of the link-basis H with right (H V = V E) and
    left (H^T W = W E) eigenvectors, all of one parity; `boundary` is the
    Gram row of B in the same coordinates (zero in the odd sector).

    G H = H^T G maps each right eigenspace onto the left one: G V = W C on
    a cluster.  C follows from the Gram rows at the cluster's anchors, the
    first pivots of a pivoted QR of W^T, and the Gram block is
    V^T G V = V^T W C.  Its Gram-null directions are skipped and a negative
    norm raises.  A degenerate physical cluster is rotated so that B
    couples only to its first member.  The vectors are loop-normalized
    link vectors, v^T G v = 1."""
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
            raise DegenerateNormError(f"eigen-residual {residual:.1e} at E={energy}")
        for t in range(y.shape[1]):
            ovl = beta ** (-n_sites / 2) * float(boundary @ y[:, t])
            sign = -1.0 if ovl < 0 else 1.0
            out.append(SpectrumEntry(len(out), energy, sign * y[:, t], sign * ovl, parity))
    return out[:count + 1]


def _eigenpairs(m):
    """Sorted real eigenvalues of the nonsymmetric dense m, with right
    (m V = V E) and left (m^T W = W E) eigenvectors, from one dense eig."""
    w, left, right = sla.eig(m, left=True)
    if np.abs(w.imag).max(initial=0.0) > 1e-9:
        raise DegenerateNormError("complex eigenvalues in the link-basis H")
    order = np.argsort(w.real)
    return w.real[order], right.real[:, order], left.real[:, order]


def full_space_spectrum(n_sites: int, beta: float, count: int):
    """The lowest `count`+1 physical states (fewer if there are fewer) from
    one dense eig of the whole link-basis H, right and left, through the
    Gram-radical rule; parity 0 marks that no sector was used."""
    h = hamiltonian(n_sites, beta)
    boundary = gram_row(link_basis(n_sites).partners, beta, adjacent_state(n_sites))
    return _physical_states(n_sites, beta, h, *_eigenpairs(h), count, boundary, 0)


def link_reflection_sector(n_sites: int, beta: float, parity: int):
    """H of the link basis in the reflection sector of `parity` (+1 even,
    -1 odd) and the sparse embedding E of the sector into link space:
    H E = E M.

    The sector has one vector s + parity*Rs per orbit {s, Rs}, at its lower
    row s <= Rs (the odd sector has none on a fixed state s = Rs); a sector
    vector's coordinates are its link components at those rows.  Column s
    of the sector's H is H s + parity*R H s read there: a move of s to m
    adds [m <= Rm] + parity*[m >= Rm] to m's orbit, or only [m <= Rm] when
    s is fixed.  M is not symmetric: with the orbit sizes D (the column
    sums of |E|), H^T E D^-1 = E D^-1 M^T, so E D^-1 carries the left
    eigenvectors of M to those of H."""
    basis = link_basis(n_sites)
    mirror = dyck_words(n_sites).reflection
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
    return -(a + sp.diags(beta * closed.sum(axis=1))).tocsc(), embed


def link_sector_spectrum(n_sites: int, beta: float, count: int):
    """The lowest `count`+1 physical states (fewer if there are fewer) from
    one dense eig, right and left, of each link-basis reflection sector,
    merged in energy order with even states first inside a degenerate
    cluster."""
    h = hamiltonian(n_sites, beta)
    boundary = gram_row(link_basis(n_sites).partners, beta, adjacent_state(n_sites))
    states = []
    for parity in (1, -1):
        op, embed = link_reflection_sector(n_sites, beta, parity)
        if op.shape[0] == 0:
            continue
        energies, right, left = _eigenpairs(op.toarray())
        size = np.asarray(abs(embed).sum(axis=0)).ravel()
        # B is reflection-even: it has no part in the odd sector
        part = boundary if parity > 0 else np.zeros_like(boundary)
        states += _physical_states(n_sites, beta, h, energies, embed @ right,
                                   embed @ (left / size[:, None]), count, part, parity)
    states.sort(key=lambda s: s.energy)
    out = []
    for i, j in eigenvalue_clusters([s.energy for s in states]):
        out += sorted(states[i:j], key=lambda s: -s.parity)
    return out[:count + 1]


# ------------------------------------------------------------ free fields


def free_vector(cls, coefficients: dict, cutoff: int):
    """A free-field vector of type cls from {key: rational coefficient}:
    integer numerators over the lcm of the denominators, zeros dropped."""
    fracs = {key: Fraction(co) for key, co in coefficients.items() if co}
    den = math.lcm(*(co.denominator for co in fracs.values()))
    return cls({key: co.numerator * (den // co.denominator) for key, co in fracs.items()},
               cutoff, den)


def coeffs(v) -> dict:
    """{key: Fraction coefficient} of a free-field vector, read through `coeff`."""
    return {key: v.coeff(key) for key in v.terms}


def free_level(v, key) -> Fraction:
    """The level of a basis key of the free-field vector v."""
    return Fraction(v.grade(key), v.grade_per_level)


def fermion_level(modes) -> Fraction:
    """The level of psi_{-m1-1/2}...psi_{-mk-1/2}|O>, sum(m_i + 1/2)."""
    return sum(modes, 0) + Fraction(len(modes), 2)


def mode_sum(act, words, v, keep):
    """`freefield.mode_sum` in Fractions, with every word acted on every
    key of v, each final key then kept if its level is <= `keep`."""
    acc: dict = {}
    for w, word in words:
        for start in v.terms:
            co, key, f = v.coeff(start), start, 1
            for j in reversed(word):
                hit = act(j, key)
                if hit is None:
                    break
                s, key = hit
                f *= s
            else:
                if free_level(v, key) <= keep:
                    acc[key] = acc.get(key, 0) + co * w * f
    return free_vector(type(v), acc, v.cutoff)


def boson_boundary_state(cutoff: int):
    """`freefield.boson_boundary_state` by exponentiating the mode sum:
    exp(-sum_{n>0} a_{-n}^2 / 2n)|0> through `exp_truncated`, each step one
    `freefield.mode_sum` of the words (-1/2n, (-n, -n)) over the last term.
    The action is read from the module at call time, so a wrapped
    `freefield._boson_act` counts its calls."""
    words = [(Fraction(-1, 2 * n), (-n, -n)) for n in range(1, cutoff // 2 + 1)]
    # the form raises the level by at least 2, so a zero term ends the sum
    # before the cap of `cutoff` applications
    return exp_truncated(
        lambda term: freefield.mode_sum(freefield._boson_act, words, term, cutoff),
        freefield.boson_vacuum(cutoff), 1, cutoff)


def free_amplitude(v, norm_sq, order: int) -> Series:
    """`freefield._amplitude` binned in Fractions."""
    bins = [Fraction(0)] * (order + 1)
    for key in v.terms:
        lev, rest = divmod(v.grade(key), v.grade_per_level)
        if not rest and lev <= order:
            co = v.coeff(key)
            bins[lev] += co * co * norm_sq(key)
    return Series("qhat", tuple(bins), order=order)


def sqrt_one_minus_sq(order: int) -> list[Fraction]:
    """(1 - x^2)^{1/2} coefficients from the binomial series, in Fractions."""
    co = [Fraction(0)] * (order + 1)
    b = Fraction(1)
    for j in range(order // 2 + 1):
        co[2 * j] = b * (-1) ** j
        b = b * (Fraction(1, 2) - j) / (j + 1)
    return co


def g_series(cutoff: int) -> GMatrix:
    """`freefield.g_series` in Fractions: the numerator A of
    [sqrt(1-u^2) sqrt(1-v^2)/(1-uv) - 1]/(u - v) summed term by term over
    the geometric series (a triple loop), then B = A/(u - v) solved along
    the antidiagonals, with the exact division asserted."""
    ord_ = 2 * cutoff + 1
    s = sqrt_one_minus_sq(ord_)
    a: dict = {}
    for i in range(ord_ + 1):
        if not s[i]:
            continue
        for j in range(ord_ + 1):
            if not s[j]:
                continue
            sij = s[i] * s[j]
            for k in range(0, ord_ + 1 - max(i, j)):
                key = (i + k, j + k)
                a[key] = a.get(key, 0) + sij
    a[(0, 0)] = a.get((0, 0), Fraction(0)) - 1
    # A_{i,j} = B_{i-1,j} - B_{i,j-1}
    b: dict = {}
    for tot in range(ord_):
        for j in range(tot + 1):
            i = tot - j
            b[(i, j)] = a.get((i + 1, j), Fraction(0)) + (b.get((i + 1, j - 1), Fraction(0))
                                                         if j else Fraction(0))
    for j in range(1, ord_):
        if a.get((0, j), Fraction(0)) != -b.get((0, j - 1), Fraction(0)):
            raise AssertionError("bivariate division by (u - v) left a remainder")
    entries = {(m, n): b.get((m, n), Fraction(0))
               for m in range(cutoff + 1) for n in range(m + 1, cutoff + 1)}
    return GMatrix(entries, cutoff)


# ------------------------------------------------------------ Ising chain


def orthogonality_residual(sol: FreeFermionSolution) -> float:
    n = sol.n_sites
    rp = np.abs(sol.phi_plus @ sol.phi_plus.T - np.eye(n)).max()
    rm = np.abs(sol.phi_minus @ sol.phi_minus.T - np.eye(n)).max()
    return max(rp, rm)


def brute_force_reference(n_sites: int):
    """Dense 2^N diagonalization of the spin Hamiltonian, with overlaps of
    every eigenstate against the all-up product state.

    Returns (energies ascending, |<up...up|E_j>|^2 in the same order).
    Only for n_sites <= 12."""
    if n_sites > 12:
        raise ValueError("brute force limited to 12 sites")
    n = n_sites
    dim = 2 ** n
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])

    def site_op(op, pos):
        out = np.array([[1.0]])
        for j in range(n):
            out = np.kron(out, op if j == pos else np.eye(2))
        return out

    h = np.zeros((dim, dim))
    for i in range(n):
        h -= 0.5 * site_op(sz, i)
    for i in range(n - 1):
        h -= 0.5 * site_op(sx, i) @ site_op(sx, i + 1)
    energies, vectors = np.linalg.eigh(h)
    up = np.zeros(dim)
    up[0] = 1.0  # |up...up> is index 0 in the kron ordering
    return energies, (vectors.T @ up) ** 2


def mode_matrix(n_sites: int) -> np.ndarray:
    """The whole N x N O = phi+ phi-^T from its closed form, with
    t_k = (-)^k s_k: O_kl = -(2/(2N+1)) c_k c_l (-)^l / (t_k + t_l) for
    k != l, O_kk = -(1/(2N+1)) (1/s_k + 2N s_k)."""
    n = n_sites
    half = _mode_angles(n) / 2
    s, c = np.sin(half), np.cos(half)
    eps = (-1.0) ** np.arange(1, n + 1)
    t = eps * s
    o = np.outer(c, c * eps) / np.add.outer(t, t) * (-2 / (2 * n + 1))
    np.fill_diagonal(o, -(1 / s + 2 * n * s) / (2 * n + 1))
    return o


def lu_overlap_kernel(n_sites: int, m: int):
    """log det M0 (raising unless det M0 > 0) and A = 2 (1 - O)^-1 - 1 on
    modes 1..m, from one LU of M0 = (1 - O)/2 in mode space."""
    lu, piv = sla.lu_factor((np.eye(n_sites) - mode_matrix(n_sites)) / 2)
    u = np.diag(lu)
    if not np.prod(np.sign(u)) * (-1) ** np.count_nonzero(piv != np.arange(len(u))) > 0:
        raise ArithmeticError(f"det((1 - O)/2) is not positive at N={n_sites}")
    x = sla.lu_solve((lu, piv), np.eye(n_sites, m))
    return float(np.log(np.abs(u)).sum()), x[:m] - np.eye(m)


def many_body_spectrum(sol: FreeFermionSolution):
    """All 2^N energies sum_{k in S} Lambda_k - (1/2) sum Lambda, ascending."""
    lam = sol.energies
    base = -0.5 * lam.sum()
    out = []
    for r in range(sol.n_sites + 1):
        for s in itertools.combinations(range(1, sol.n_sites + 1), r):
            out.append((base + sum(lam[k - 1] for k in s), s))
    out.sort()
    return out
