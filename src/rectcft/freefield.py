"""Free-boson and NS-Majorana realizations of the rectangle boundary state.

Boson: oscillators [a_m, a_n] = m delta_{m+n,0}, a_0 = 0 on the sector used
here; coherent state exp(-sum a_{-n}^2 / 2n)|0>.  Fermion: NS modes
{psi_r, psi_s} = delta_{r+s,0}, r in Z+1/2; coherent state built from the
antisymmetric quadratic form G, which is computed two independent ways
(exact bivariate series, truncated A-matrix inversion).

Conventions.  Fermion basis states are psi_{-m1-1/2} ... psi_{-mk-1/2}|O>
with m1 > m2 > ... (descending); reordering picks up the permutation sign.
The coherent exponent is sum_{m<n} G_mn psi_{-m-1/2} psi_{-n-1/2} exactly
as the quadratic form is defined, so the canonical coefficient of the
one-pair state {n, m} is -G_mn while the coefficient of the monomial
written in the m<n order is +G_mn.  With this state the annihilation
condition reads (psi_{m+1/2} - sum_n G_mn psi_{-n-1/2})|B> = 0, and the
Virasoro-product comparison at c = 1/2 holds exactly through level 8
including the two-pair level-8 term that distinguishes the sign choices.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .series import GradedVector, Series, exp_truncated
from .virasoro import slit_product

# ---------------------------------------------------------------------------
# free boson
# ---------------------------------------------------------------------------


class BosonVector(GradedVector):
    """Combination of a_{-l1}...a_{-lk}|0> indexed by partitions (parts >= 1)."""


def boson_vacuum(cutoff: int) -> BosonVector:
    return BosonVector({(): Fraction(1)}, cutoff)


def boson_mode(m: int, v: BosonVector) -> BosonVector:
    """a_m on v: creation for m < 0, annihilation (k * multiplicity) for m > 0,
    zero for m = 0 (no momentum sectors)."""
    if m == 0:
        return BosonVector({}, v.cutoff)
    out: dict = {}
    if m < 0:
        k = -m
        for lam, co in v.terms.items():
            if sum(lam) + k > v.cutoff:
                continue
            mu = tuple(sorted(lam + (k,), reverse=True))
            out[mu] = out.get(mu, Fraction(0)) + co
    else:
        for lam, co in v.terms.items():
            if m not in lam:
                continue
            i = lam.index(m)
            mu = lam[:i] + lam[i + 1:]
            out[mu] = out.get(mu, Fraction(0)) + co * m * lam.count(m)
    return BosonVector(out, v.cutoff)


def boson_boundary_state(cutoff: int) -> BosonVector:
    """exp(-sum_{n>0} a_{-n}^2 / 2n)|0>, truncated at `cutoff`."""

    def quadratic(term: BosonVector) -> BosonVector:
        nxt: dict = {}
        for n in range(1, cutoff // 2 + 1):
            w = boson_mode(-n, boson_mode(-n, term))
            for lam, co in w.terms.items():
                nxt[lam] = nxt.get(lam, Fraction(0)) + co * Fraction(-1, 2 * n)
        return BosonVector(nxt, cutoff)

    # the form raises the level by at least 2, so a zero term ends the sum
    # before the cap of `cutoff` applications
    return exp_truncated(quadratic, boson_vacuum(cutoff), 1, cutoff)


def boson_gluing_check(v: BosonVector, m: int) -> BosonVector:
    """(a_m + a_{-m}) v; vanishes at levels <= cutoff - m on the boundary state."""
    if m <= 0:
        raise ValueError("m must be positive")
    res = boson_mode(m, v).add_scaled(boson_mode(-m, v), Fraction(1))
    keep = v.cutoff - m
    return BosonVector({lam: co for lam, co in res.terms.items() if sum(lam) <= keep},
                       v.cutoff)


def boson_virasoro(n: int, v: BosonVector) -> BosonVector:
    """L_n = (1/2) sum_m a_{n-m} a_m for n != 0, L_0 = sum_{m>=1} a_{-m} a_m."""
    out: dict = {}
    if n == 0:
        for lam, co in v.terms.items():
            if sum(lam):
                out[lam] = co * sum(lam)
        return BosonVector(out, v.cutoff)
    bound = v.cutoff + abs(n) + 1
    # headroom: a creator inside the pair may overshoot the cutoff before the
    # partner annihilator brings the level back down
    lifted = BosonVector(dict(v.terms), v.cutoff + 2 * bound)
    res: dict = {}
    for m in range(-bound, bound + 1):
        if m == 0 or n - m == 0:
            continue  # a_0 = 0 here
        w = boson_mode(n - m, boson_mode(m, lifted))
        for lam, co in w.terms.items():
            if sum(lam) <= v.cutoff:
                res[lam] = res.get(lam, Fraction(0)) + co * Fraction(1, 2)
    return BosonVector(res, v.cutoff)


def boson_norm_sq(lam) -> Fraction:
    """<a_{-lam}0 | a_{-lam}0> = prod_j j^{m_j} m_j! over multiplicities m_j."""
    out = Fraction(1)
    for j in set(lam):
        m = lam.count(j)
        out *= Fraction(j) ** m * math.factorial(m)
    return out


def boson_inner(u: BosonVector, v: BosonVector) -> Fraction:
    return sum((u.terms[lam] * v.terms[lam] * boson_norm_sq(lam)
                for lam in u.terms.keys() & v.terms.keys()), Fraction(0))


def boson_amplitude(order: int) -> Series:
    """<B|qhat^{L_0}|B> (prefactor qhat^{-1/24} carried separately)."""
    b = boson_boundary_state(order)
    coeffs = []
    for n in range(order + 1):
        comp = b.level_component(n)
        coeffs.append(boson_inner(comp, comp))
    return Series("qhat", tuple(coeffs), order=order)


def boson_product_formula(order: int) -> Series:
    """Independent closed form: prod_{m>0} sum_s (2s)!/(s! s!) (q^m/4)^s, in qhat."""
    qord = order // 2
    out = [Fraction(0)] * (qord + 1)
    out[0] = Fraction(1)
    for m in range(1, qord + 1):
        factor = [Fraction(0)] * (qord + 1)
        for s in range(0, qord // m + 1):
            factor[m * s] = Fraction(math.factorial(2 * s),
                                     math.factorial(s) ** 2 * 4 ** s)
        new = [Fraction(0)] * (qord + 1)
        for i, x in enumerate(out):
            if x:
                for j in range(0, qord + 1 - i, 1):
                    if factor[j]:
                        new[i + j] += x * factor[j]
        out = new
    return Series("q", tuple(out), order=qord).substitute_square("qhat").truncate(order)


def virasoro_product_state(apply_l, vac, cutoff: int, n_factors: int):
    """prod_{j<=n_factors} e^{x_j L_{-2^j}} |0> with x_j = -2/2^j, built from a
    realization's Virasoro action `apply_l(n, vec)`.

    A function of its own rather than an alias of `virasoro.slit_product`,
    so that per-function timings (perfbench/spans.py) keep the free-field
    products apart from the Verma ones."""
    return slit_product(apply_l, vac, cutoff, n_factors)


# ---------------------------------------------------------------------------
# NS Majorana fermion
# ---------------------------------------------------------------------------


class GMatrix:
    """Antisymmetric table G_mn (exact rationals), m, n >= 0 up to `cutoff`.

    G_mn = 0 whenever m + n is even; only m < n entries are stored.
    """

    def __init__(self, entries: dict, cutoff: int):
        self.cutoff = cutoff
        self._upper = {}
        for (m, n), g in entries.items():
            if m < n and g:
                self._upper[(m, n)] = Fraction(g)

    def __getitem__(self, key) -> Fraction:
        m, n = key
        if m < n:
            return self._upper.get((m, n), Fraction(0))
        if m > n:
            return -self._upper.get((n, m), Fraction(0))
        return Fraction(0)

    def pairs(self):
        """Nonzero (m, n, G_mn) with m < n."""
        for (m, n), g in sorted(self._upper.items()):
            yield m, n, g

    def to_array(self, size: int | None = None) -> np.ndarray:
        size = size or self.cutoff + 1
        out = np.zeros((size, size))
        for m, n, g in self.pairs():
            if m < size and n < size:
                out[m, n] = float(g)
                out[n, m] = -float(g)
        return out


def _sqrt_one_minus_sq(order: int) -> list[Fraction]:
    """(1 - x^2)^{1/2} coefficients, exact."""
    co = [Fraction(0)] * (order + 1)
    b = Fraction(1)
    for j in range(order // 2 + 1):
        co[2 * j] = b * (-1) ** j
        b = b * (Fraction(1, 2) - j) / (j + 1)
    return co


def g_series(cutoff: int) -> GMatrix:
    """G_mn from the exact expansion of the boundary two-point function:

        [ sqrt(1-u^2) sqrt(1-v^2) / (1-uv) - 1 ] / (u - v) = sum G_mn u^m v^n

    with u = 1/z1, v = 1/z2.  All arithmetic in Q; the numerator vanishes at
    u = v, so the division is exact (asserted)."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    ord_ = 2 * cutoff + 1  # need total degree m + n <= 2*cutoff - 1, plus margin
    s = _sqrt_one_minus_sq(ord_)
    a: dict = {}
    for i in range(ord_ + 1):
        if not s[i]:
            continue
        for j in range(ord_ + 1):
            if not s[j]:
                continue
            for k in range(0, ord_ + 1 - max(i, j)):
                key = (i + k, j + k)
                a[key] = a.get(key, Fraction(0)) + s[i] * s[j]
    a[(0, 0)] = a.get((0, 0), Fraction(0)) - 1
    # B = A/(u-v): A_{i,j} = B_{i-1,j} - B_{i,j-1}, solved along diagonals
    b: dict = {}
    for tot in range(ord_):
        for j in range(tot + 1):
            i = tot - j
            b[(i, j)] = a.get((i + 1, j), Fraction(0)) + (b.get((i + 1, j - 1), Fraction(0)) if j else Fraction(0))
    for j in range(1, ord_):
        if a.get((0, j), Fraction(0)) != -b.get((0, j - 1), Fraction(0)):
            raise AssertionError("bivariate division by (u - v) left a remainder")
    entries = {(m, n): b.get((m, n), Fraction(0))
               for m in range(cutoff + 1) for n in range(m + 1, cutoff + 1)}
    return GMatrix(entries, cutoff)


def g_from_amatrix(cutoff: int) -> np.ndarray:
    """Numeric G = -(1+a)^{-1} b from the truncated sign-kernel matrix,
    a_mn = A_{m+1/2,n+1/2}, b_mn = A_{m+1/2,-n-1/2}; antisymmetrized output.

    Converges entrywise to g_series as the truncation grows."""
    m = np.arange(cutoff)
    s = m[:, None] + m[None, :] + 1
    a = (1.0 - (-1.0) ** s) / (np.pi * s)
    d = m[:, None] - m[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        b = np.where(d != 0, (1.0 - (-1.0) ** d) / (np.pi * d), 0.0)
    try:
        g = -np.linalg.solve(np.eye(cutoff) + a, b)
    except np.linalg.LinAlgError as exc:  # not expected for any truncation tried
        raise RuntimeError(f"(1+a) singular at truncation {cutoff}") from exc
    return 0.5 * (g - g.T)


def fermion_level(modes) -> Fraction:
    return sum(modes, 0) + Fraction(len(modes), 2)


class FermionVector(GradedVector):
    """Combination of psi_{-m1-1/2}...psi_{-mk-1/2}|O> over strictly
    decreasing mode tuples; level = sum(m_i + 1/2).  The cutoff is an
    integer level (states used here have integer level)."""

    level = staticmethod(fermion_level)


def fermion_vacuum(cutoff: int) -> FermionVector:
    return FermionVector({(): Fraction(1)}, cutoff)


def fermion_mode(r2: int, v: FermionVector) -> FermionVector:
    """psi_r with r = r2/2 (r2 odd).  r < 0 creates mode m = (-r2-1)/2,
    r > 0 annihilates mode m = (r2-1)/2, with the anticommutation sign."""
    if r2 % 2 == 0:
        raise ValueError("fermion mode index must be half-odd (r2 odd)")
    out: dict = {}
    if r2 < 0:
        m = (-r2 - 1) // 2
        for modes, co in v.terms.items():
            if m in modes:
                continue
            if fermion_level(modes) + m + Fraction(1, 2) > v.cutoff:
                continue
            pos = sum(1 for x in modes if x > m)
            t = modes[:pos] + (m,) + modes[pos:]
            out[t] = out.get(t, Fraction(0)) + co * (-1) ** pos
    else:
        m = (r2 - 1) // 2
        for modes, co in v.terms.items():
            if m not in modes:
                continue
            pos = modes.index(m)
            t = modes[:pos] + modes[pos + 1:]
            out[t] = out.get(t, Fraction(0)) + co * (-1) ** pos
    return FermionVector(out, v.cutoff)


def fermion_boundary_state(cutoff: int, g: GMatrix) -> FermionVector:
    """exp(sum_{m<n} G_mn psi_{-m-1/2} psi_{-n-1/2}) |O>, truncated at `cutoff`.

    Requires g.cutoff large enough that every pair with m + n + 1 <= cutoff
    is available."""
    if g.cutoff < cutoff:
        raise ValueError("G table too small for the requested level cutoff")

    pairs = [(m, n, gmn) for m, n, gmn in g.pairs() if m + n + 1 <= cutoff]

    def quadratic(vec: FermionVector) -> FermionVector:
        acc: dict = {}
        for m, n, gmn in pairs:
            w = fermion_mode(-(2 * m + 1), fermion_mode(-(2 * n + 1), vec))
            for modes, co in w.terms.items():
                acc[modes] = acc.get(modes, Fraction(0)) + co * gmn
        return FermionVector(acc, cutoff)

    # each pair raises the level by m + n + 1 >= 2, so a zero term ends the
    # sum before the cap of `cutoff` applications
    return exp_truncated(quadratic, fermion_vacuum(cutoff), 1, cutoff)


def fermion_annihilation_check(v: FermionVector, m: int, g: GMatrix) -> FermionVector:
    """(psi_{m+1/2} - sum_n G_mn psi_{-n-1/2}) v, kept at levels where the
    truncation is faithful (<= cutoff - m - 1/2)."""
    res = fermion_mode(2 * m + 1, v)
    for n in range(g.cutoff + 1):
        gmn = g[m, n]
        if gmn:
            res = res.add_scaled(fermion_mode(-(2 * n + 1), v), -gmn)
    keep = v.cutoff - m - Fraction(1, 2)
    return FermionVector({mo: co for mo, co in res.terms.items()
                          if fermion_level(mo) <= keep}, v.cutoff)


def fermion_virasoro(n: int, v: FermionVector) -> FermionVector:
    """L_n = (1/2) sum_k k :psi_{n-k} psi_k: on NS states.

    For n != 0 the two modes never collide, so no ordering constant; L_0 is
    the level operator (zero-point constants dropped, prefactors are carried
    by the amplitudes)."""
    if n == 0:
        out = {}
        for modes, co in v.terms.items():
            lev = fermion_level(modes)
            if lev:
                out[modes] = co * lev
        return FermionVector(out, v.cutoff)
    bound = 2 * (v.cutoff + abs(n) + 2)
    lifted = FermionVector(dict(v.terms), v.cutoff + bound)
    res: dict = {}
    for k2 in range(-bound + 1, bound, 2):
        n2 = 2 * n - k2
        w = fermion_mode(k2, lifted)
        if w.is_zero():
            continue
        w = fermion_mode(n2, w)
        for modes, co in w.terms.items():
            if fermion_level(modes) <= v.cutoff:
                res[modes] = res.get(modes, Fraction(0)) + co * Fraction(k2, 4)
    return FermionVector(res, v.cutoff)


def fermion_inner(u: FermionVector, v: FermionVector) -> Fraction:
    """Orthonormal basis: <S|S'> = delta_{SS'} with psi_r^dagger = psi_{-r}."""
    return sum((u.terms[m] * v.terms[m] for m in u.terms.keys() & v.terms.keys()),
               Fraction(0))


def fermion_amplitude(order: int, g: GMatrix | None = None) -> Series:
    """<B|qhat^{L_0}|B> (prefactor qhat^{-1/48} carried separately)."""
    g = g if g is not None else g_series(order)
    b = fermion_boundary_state(order, g)
    coeffs = [Fraction(0)] * (order + 1)
    for modes, co in b.terms.items():
        lev = fermion_level(modes)
        if lev.denominator == 1 and lev <= order:
            coeffs[int(lev)] += co * co
    return Series("qhat", tuple(coeffs), order=order)
