"""Conformal slit maps for the multi-slit half-plane geometries.

f(N, .) maps the half-plane minus 2^N - 1 slits of size 2^(1/2^N) onto the
half-plane, h(N, .) is its inverse, and g(k, .) = (z^k + 2)^(1/k) is the
elementary step, so f(N, .) = g(2) o g(4) o ... o g(2^N).  Principal
branches throughout: the closed forms are faithful on the wedge
|arg z| < pi/2^N outside the slit radius 2^(1/2^N), which is where the
asymptotics z + 1/z + O(z^(1-2^(N+1))) are probed.
"""

from __future__ import annotations

import cmath


class BranchCutError(ValueError):
    """Evaluation point too close to the slits for principal branches."""


def slit_radius(n: int) -> float:
    return 2.0 ** (1.0 / 2 ** n)


def _guard(n: int, z: complex):
    if abs(z) <= slit_radius(n) * (1 + 1e-9):
        raise BranchCutError(
            f"|z|={abs(z):.6g} inside guard radius {slit_radius(n):.6g} for N={n}")


def slit_map(n: int, z: complex) -> complex:
    """f_N(z) = 2 cos(2^-N arccos(z^(2^N) / 2))."""
    _guard(n, z)
    return 2 * cmath.cos(cmath.acos(complex(z) ** (2 ** n) / 2) / 2 ** n)


def slit_map_inverse(n: int, w: complex) -> complex:
    """h_N(w) = (2 cos(2^N arccos(w/2)))^(2^-N).

    A right inverse of f_N everywhere it is defined; it equals the genuine
    inverse on the principal wedge |arg z| < pi/2^N.
    """
    if abs(w) <= 2 * (1 + 1e-9):
        raise BranchCutError(f"|w|={abs(w):.6g} inside guard radius 2")
    return (2 * cmath.cos(2 ** n * cmath.acos(complex(w) / 2))) ** (2.0 ** -n)


def elementary_map(k: int, z: complex) -> complex:
    """g_k(z) = (z^k + 2)^(1/k), principal branch."""
    return (complex(z) ** k + 2) ** (1.0 / k)


def composed_map(n: int, z: complex) -> complex:
    """g_2 o g_4 o ... o g_{2^N}, numerically; equals slit_map on the wedge."""
    _guard(n, z)
    w = complex(z)
    for j in range(n, 0, -1):
        w = elementary_map(2 ** j, w)
    return w


def asymptotic_decay_slope(n: int) -> float:
    """Log-log slope of |f_N(z) - z - 1/z| against |z| on the ray arg z =
    0.04, at six radii from 6 to about 12.

    Uses extended precision internally (the N=4 correction is ~|z|^-31,
    far below double noise at usable radii).  Expected slope: 1 - 2^(N+1).
    mpmath is imported here, its only use, so that importing rectcft does
    not load it.
    """
    import mpmath as mp

    with mp.workdps(60):
        pts = []
        for r in [6.0 * 10 ** (0.06 * k) for k in range(6)]:
            z = mp.mpf(r) * mp.exp(mp.mpc(0, 0.04))
            f = 2 * mp.cos(mp.acos(z ** (2 ** n) / 2) / 2 ** n)
            pts.append((mp.log(mp.mpf(r)), mp.log(abs(f - z - 1 / z))))
        m = len(pts)
        xm = sum(x for x, _ in pts) / m
        ym = sum(y for _, y in pts) / m
        slope = (sum((x - xm) * (y - ym) for x, y in pts)
                 / sum((x - xm) ** 2 for x, _ in pts))
        return float(slope)
