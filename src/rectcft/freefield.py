"""Free-boson and NS-Majorana realizations of the rectangle boundary state.

Boson: oscillators [a_m, a_n] = m delta_{m+n,0}, a_0 = 0 on the sector used
here; coherent state exp(-sum a_{-n}^2 / 2n)|0>, built as the product over
the commuting modes, prod_n sum_k (-1/2n)^k / k! a_{-n}^{2k}|0>, each term
written down directly rather than exponentiated.  Fermion: NS modes
{psi_r, psi_s} = delta_{r+s,0}, r in Z+1/2; coherent state built from the
antisymmetric quadratic form G, which is computed two independent ways
(exact bivariate series, truncated A-matrix inversion).

Exact arithmetic runs on Python integers over one denominator: the
bivariate series for G is dyadic and built as integers over one power of
two, and a free-field vector (`GradedVector`) holds integer numerators
over one denominator, which the mode-word sums, `add_scaled` and the
amplitudes fold directly.  Fractions are made only for output: a
coefficient read through `coeff`, a G entry, an amplitude coefficient.

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

from .series import Series, exp_truncated
from .virasoro import slit_product


class GradedVector:
    """Finite combination of basis states, truncated at level `cutoff`.

    `terms` maps a basis key (a tuple of mode labels) to a nonzero integer
    numerator, all over the one positive denominator `den`.  A realization
    subclasses this with the integer grade of a key (`grade`) and the grade
    of one level (`grade_per_level`), and supplies its monomial action to
    `mode_sum`.  Equality is by value, whatever the common factor."""

    __slots__ = ("terms", "cutoff", "den")

    def __init__(self, terms: dict, cutoff: int, den: int = 1):
        self.terms, self.cutoff, self.den = terms, cutoff, den

    def __eq__(self, other):
        return (isinstance(other, type(self)) and self.terms.keys() == other.terms.keys()
                and all(n * other.den == other.terms[key] * self.den
                        for key, n in self.terms.items()))

    def coeff(self, key) -> Fraction:
        return Fraction(self.terms.get(tuple(key), 0), self.den)

    def is_zero(self) -> bool:
        return not any(self.terms.values())

    def add_scaled(self, other, s):
        """self + s * other for a rational s, over the lcm of the denominators."""
        num, sden = s.numerator, s.denominator
        den = math.lcm(self.den, sden * other.den)
        f, num = den // self.den, num * (den // (sden * other.den))
        acc = {key: n * f for key, n in self.terms.items()}
        for key, n in other.terms.items():
            acc[key] = acc.get(key, 0) + n * num
        return _reduced(type(self), acc, max(self.cutoff, other.cutoff), den)


def _reduced(cls, acc: dict, cutoff: int, den: int) -> GradedVector:
    """cls(acc / den) with the zero numerators dropped and the gcd of the
    rest and den taken out."""
    if not all(acc.values()):
        acc = {key: n for key, n in acc.items() if n}
    g = math.gcd(den, *acc.values())
    if g != 1:
        acc = {key: n // g for key, n in acc.items()}
    return cls(acc, cutoff, den // g)


def mode_sum(act, words, v: GradedVector, keep) -> GradedVector:
    """sum_w w * X_{j1} X_{j2} ... v over the (w, (j1, j2, ...)) in `words`,
    folded over each basis key of v with the monomial action `act(j, key)`:
    X_j on one basis state is (integer factor, key), or None for zero.

    The last mode acts first, a word stops at its first zero, and only
    levels <= `keep` are kept.  The level of a result is known before
    acting: X_j shifts the integer grade of a key (`v.grade`, which is
    `v.grade_per_level` times its level) by -j, so a word is acted only on
    the keys it takes to grade <= grade_per_level * keep.  That keeps the
    terms a cutoff after every mode would keep as long as each word acts
    with its annihilator (if any) first: then no partial product rises
    above both its start and its end.

    The fold runs on integers: the numerators of v times the word weights
    over their least common denominator, the result over v.den times that
    denominator, reduced once."""
    grade = v.grade
    top = math.floor(v.grade_per_level * keep)
    starts = [(key, co, grade(key)) for key, co in v.terms.items()]
    wden = math.lcm(*(w.denominator for w, _ in words))
    acc: dict = {}
    for w, word in words:
        w = w.numerator * (wden // w.denominator)
        reach = top + sum(word)
        word = word[::-1]
        for start, co, g in starts:
            if g > reach:
                continue
            key, f = start, 1
            for j in word:
                hit = act(j, key)
                if hit is None:
                    break
                s, key = hit
                f *= s
            else:
                acc[key] = acc.get(key, 0) + co * w * f
    return _reduced(type(v), acc, v.cutoff, v.den * wden)


def _amplitude(v: GradedVector, norm_sq, order: int) -> Series:
    """<v|qhat^{L_0}|v> over a basis orthogonal with <key|key> = norm_sq(key)
    (an integer): numerator^2 * norm_sq binned by level in one pass, integer
    levels <= order, over den^2."""
    grade, per = v.grade, v.grade_per_level
    bins = [0] * (order + 1)
    for key, n in v.terms.items():
        lev, rest = divmod(grade(key), per)
        if not rest and lev <= order:
            bins[lev] += n * n * norm_sq(key)
    den = v.den * v.den
    return Series("qhat", tuple(Fraction(n, den) for n in bins), order=order)


# ---------------------------------------------------------------------------
# free boson
# ---------------------------------------------------------------------------


class BosonVector(GradedVector):
    """Combination of a_{-l1}...a_{-lk}|0> indexed by partitions (parts >= 1).
    The integer grade of a key (see `mode_sum`) is its level."""

    __slots__ = ()
    grade = staticmethod(sum)
    grade_per_level = 1


def boson_vacuum(cutoff: int) -> BosonVector:
    return BosonVector({(): 1}, cutoff)


def _boson_act(m: int, lam):
    """a_m on a_{-lam}|0>: creation for m < 0, annihilation (m times the
    multiplicity of m) for m > 0, zero for m = 0 (no momentum sectors)."""
    if m < 0:
        return 1, tuple(sorted(lam + (-m,), reverse=True))
    if m not in lam:
        return None
    i = lam.index(m)
    return m * lam.count(m), lam[:i] + lam[i + 1:]


def boson_mode(m: int, v: BosonVector) -> BosonVector:
    """a_m on v, truncated at v.cutoff."""
    return mode_sum(_boson_act, [(1, (m,))], v, v.cutoff)


def boson_boundary_state(cutoff: int) -> BosonVector:
    """exp(-sum_{n>0} a_{-n}^2 / 2n)|0>, truncated at `cutoff`.

    The modes commute, so the exponential is the product over n of
    sum_k (-1/2n)^k / k! a_{-n}^{2k}|0>, written down term by term: the
    key holding each part n with multiplicity 2 k_n has coefficient 1/d,
    d = prod_n (-2n)^{k_n} k_n!.  The parts are taken largest first, so
    each key is built as a descending tuple, and the signed d is carried
    as an integer; the terms go over the lcm of the |d|."""
    terms = [((), 1, 0)]  # (key, signed d, level)
    for n in range(cutoff // 2, 0, -1):
        ext = []
        for key, d, lev in terms:
            k = 0
            while lev <= cutoff:
                ext.append((key, d, lev))
                k += 1
                key, d, lev = key + (n, n), d * -2 * n * k, lev + 2 * n
        terms = ext
    den = math.lcm(*(abs(d) for _, d, _ in terms))
    return _reduced(BosonVector, {key: den // d for key, d, _ in terms}, cutoff, den)


def boson_gluing_check(v: BosonVector, m: int) -> BosonVector:
    """(a_m + a_{-m}) v; vanishes at levels <= cutoff - m on the boundary state."""
    if m <= 0:
        raise ValueError("m must be positive")
    return mode_sum(_boson_act, [(1, (m,)), (1, (-m,))], v, v.cutoff - m)


def boson_virasoro(n: int, v: BosonVector) -> BosonVector:
    """L_n = (1/2) sum_m :a_{n-m} a_m:, so L_0 = sum_{m>=1} a_{-m} a_m.

    For n != 0 the two modes commute, so each pair {n-k, k} is applied
    once, larger index k first (the annihilator, if the pair has one); at
    n = 0 that order is the normal order.  a_0 = 0 here, and neither index
    goes beyond the cutoff."""
    words = [(Fraction(1, 2) if 2 * k == n else 1, (n - k, k))
             for k in range(-(-n // 2), v.cutoff + min(n, 0) + 1) if k and k != n]
    return mode_sum(_boson_act, words, v, v.cutoff)


def boson_norm_sq(lam) -> int:
    """<a_{-lam}0 | a_{-lam}0> = prod_j j^{m_j} m_j! over multiplicities m_j."""
    out = 1
    for j in set(lam):
        m = lam.count(j)
        out *= j ** m * math.factorial(m)
    return out


def boson_amplitude(order: int) -> Series:
    """<B|qhat^{L_0}|B> (prefactor qhat^{-1/24} carried separately)."""
    return _amplitude(boson_boundary_state(order), boson_norm_sq, order)


def boson_product_formula(order: int) -> Series:
    """Independent closed form: prod_{m>0} sum_s (2s)!/(s! s!) (q^m/4)^s, in qhat."""
    qord = order // 2
    out = Series("q", (1,), order=qord)
    for m in range(1, qord + 1):
        factor = [0] * (qord + 1)
        for s in range(qord // m + 1):
            factor[m * s] = Fraction(math.factorial(2 * s), math.factorial(s) ** 2 * 4 ** s)
        out = out * Series("q", factor, order=qord)
    return out.substitute_square("qhat").truncate(order)


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


def _sqrt_one_minus_sq(order: int) -> tuple[list[int], int]:
    """(1 - x^2)^{1/2} to x^order as integer numerators over one power of two.

    Every coefficient is dyadic: 1 at x^0, -2 Cat(j-1)/4^j at x^{2j} (Cat
    the Catalan numbers: 1, -1/2, -1/8, -1/16, -5/128, ...), zero at odd
    powers.  Returned as (numerators, 4^{order // 2})."""
    half = order // 2
    den = 4 ** half
    co = [0] * (order + 1)
    co[0] = den
    cat = 1  # Cat(j - 1)
    for j in range(1, half + 1):
        co[2 * j] = -2 * cat * 4 ** (half - j)
        cat = cat * 2 * (2 * j - 1) // (j + 1)
    return co, den


def g_series(cutoff: int) -> GMatrix:
    """G_mn from the exact expansion of the boundary two-point function:

        [ sqrt(1-u^2) sqrt(1-v^2) / (1-uv) - 1 ] / (u - v) = sum G_mn u^m v^n

    with u = 1/z1, v = 1/z2.  Exact, in integers over one power of two:
    with s_i the dyadic coefficients of sqrt(1-x^2), the numerator has
    A_ij = A_{i-1,j-1} + s_i s_j, filled in one O(cutoff^2) pass (the -1
    only changes A_00, which the quotient never reads).  It vanishes at
    u = v, so the division by u - v is exact (asserted: every antidiagonal
    of A sums to zero), and the quotient B_ij = B_{i+1,j-1} + A_{i+1,j} is
    a running sum along each antidiagonal.  One Fraction is made per
    reported entry."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    ord_ = 2 * cutoff + 1  # need total degree m + n <= 2*cutoff - 1, plus margin
    s, den = _sqrt_one_minus_sq(ord_)
    a = [[si * sj for sj in s] for si in s]
    for i in range(1, ord_ + 1):
        row, prev = a[i], a[i - 1]
        for j in range(1, ord_ + 1):
            row[j] += prev[j - 1]
    # B = A/(u-v): A_{i,j} = B_{i-1,j} - B_{i,j-1}, solved along antidiagonals
    b = [[0] * (ord_ - i) for i in range(ord_)]
    for tot in range(ord_):
        acc = 0
        for j in range(tot + 1):
            acc += a[tot - j + 1][j]
            b[tot - j][j] = acc
        if a[0][tot + 1] != -acc:
            raise AssertionError("bivariate division by (u - v) left a remainder")
    den *= den
    entries = {(m, n): Fraction(b[m][n], den)
               for m in range(cutoff + 1) for n in range(m + 1, cutoff + 1) if b[m][n]}
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


class FermionVector(GradedVector):
    """Combination of psi_{-m1-1/2}...psi_{-mk-1/2}|O> over strictly
    decreasing mode tuples; level = sum(m_i + 1/2).  The cutoff is an
    integer level (states used here have integer level).  The integer
    grade of a key (see `mode_sum`) is twice its level, 2 sum(m_i) + k."""

    __slots__ = ()
    grade_per_level = 2

    @staticmethod
    def grade(modes) -> int:
        return 2 * sum(modes) + len(modes)


def fermion_vacuum(cutoff: int) -> FermionVector:
    return FermionVector({(): 1}, cutoff)


def _fermion_act(r2: int, modes):
    """psi_{r2/2} on a basis monomial: r2 < 0 creates mode m = (-r2-1)/2,
    r2 > 0 annihilates mode m = (r2-1)/2, with the anticommutation sign."""
    if r2 < 0:
        m = (-r2 - 1) // 2
        if m in modes:
            return None
        pos = sum(1 for x in modes if x > m)
        return (-1) ** pos, modes[:pos] + (m,) + modes[pos:]
    m = (r2 - 1) // 2
    if m not in modes:
        return None
    pos = modes.index(m)
    return (-1) ** pos, modes[:pos] + modes[pos + 1:]


def fermion_mode(r2: int, v: FermionVector) -> FermionVector:
    """psi_r on v with r = r2/2 (r2 odd), truncated at v.cutoff."""
    if r2 % 2 == 0:
        raise ValueError("fermion mode index must be half-odd (r2 odd)")
    return mode_sum(_fermion_act, [(1, (r2,))], v, v.cutoff)


def fermion_boundary_state(cutoff: int, g: GMatrix) -> FermionVector:
    """exp(sum_{m<n} G_mn psi_{-m-1/2} psi_{-n-1/2}) |O>, truncated at `cutoff`.

    Requires g.cutoff large enough that every pair with m + n + 1 <= cutoff
    is available."""
    if g.cutoff < cutoff:
        raise ValueError("G table too small for the requested level cutoff")

    words = [(gmn, (-(2 * m + 1), -(2 * n + 1)))
             for m, n, gmn in g.pairs() if m + n + 1 <= cutoff]
    # each pair raises the level by m + n + 1 >= 2, so a zero term ends the
    # sum before the cap of `cutoff` applications
    return exp_truncated(lambda vec: mode_sum(_fermion_act, words, vec, cutoff),
                         fermion_vacuum(cutoff), 1, cutoff)


def fermion_annihilation_check(v: FermionVector, m: int, g: GMatrix) -> FermionVector:
    """(psi_{m+1/2} - sum_n G_mn psi_{-n-1/2}) v, kept at levels where the
    truncation is faithful (<= cutoff - m - 1/2)."""
    words = [(1, (2 * m + 1,))] + [(-gmn, (-(2 * n + 1),))
                                   for n in range(g.cutoff + 1) if (gmn := g[m, n])]
    return mode_sum(_fermion_act, words, v, v.cutoff - m - Fraction(1, 2))


def fermion_virasoro(n: int, v: FermionVector) -> FermionVector:
    """L_n = (1/2) sum_k k :psi_{n-k} psi_k: on NS states.

    For n != 0 the two modes anticommute, so each pair {n-k, k} is applied
    once, larger index k first, with weight k - n/2 (the pair k = n/2 drops
    out, psi_{n/2}^2 = 0), and neither index goes beyond the cutoff; at
    n = 0 that order is the normal order, L_0 = sum_{r>0} r psi_{-r} psi_r.
    Indices are doubled below: k2 = 2k is odd."""
    words = [(Fraction(k2 - n, 2), (2 * n - k2, k2))
             for k2 in range(n + 1 + n % 2, 2 * (v.cutoff + min(n, 0)), 2)]
    return mode_sum(_fermion_act, words, v, v.cutoff)


def fermion_amplitude(order: int) -> Series:
    """<B|qhat^{L_0}|B> (prefactor qhat^{-1/48} carried separately)."""
    return _amplitude(fermion_boundary_state(order, g_series(order)), lambda modes: 1, order)
