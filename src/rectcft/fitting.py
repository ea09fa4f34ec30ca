"""Least-squares fits of overlap data to the finite-size scaling forms

    -log <B|k>_N           = a0 N + a1 log N + a2 + a3/N + a4/N^2
    -log(<B|k>_N/<B|0>_N)  =               a2 + a3/N + a4/N^2 + a5/N^3

Solved by orthogonal factorization (SVD least squares), never normal
equations: with N up to 500 the design columns span several orders of
magnitude.  Uncertainties are the max deviation of each coefficient over a
family of fit windows obtained by increasing the number of dropped initial
points; they are window spreads, not statistical error bars.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_COLUMNS = {
    "N": lambda n: n,
    "logN": np.log,
    "1": np.ones_like,
    "1/N": lambda n: 1.0 / n,
    "1/N^2": lambda n: 1.0 / n ** 2,
    "1/N^3": lambda n: 1.0 / n ** 3,
}
TERMS = tuple(_COLUMNS)

ABSOLUTE_BASIS = ("N", "logN", "1", "1/N", "1/N^2")
RATIO_BASIS = ("1", "1/N", "1/N^2", "1/N^3")
DROP_FIRST_EXCITED = 3  # smallest-N points the summaries' ratio fits leave out
N_WINDOWS = 4  # fit windows: the central one and up to three that drop more points


class FitError(ValueError):
    pass


@dataclass
class FitResult:
    basis: tuple
    coefficients: dict
    residual_norm: float
    window_spread: dict = field(default_factory=dict)
    points_used: int = 0

    def coefficient(self, term: str) -> float:
        return self.coefficients[term]

    def to_json(self):
        return {"basis": list(self.basis),
                "coefficients": self.coefficients,
                "residual_norm": self.residual_norm,
                "window_spread": self.window_spread,
                "points_used": self.points_used}


def points_needed(basis, drop_first: int = 0) -> int:
    """Fewest (N, y) points `fit` takes on `basis` when it drops the first
    `drop_first`: one more than the terms, after dropping."""
    return len(basis) + drop_first + 1


def fit(data, basis, drop_first: int = 0) -> FitResult:
    """Least-squares fit of (N, y) pairs after dropping `drop_first` points.

    `basis` is a sequence drawn from {N, logN, 1, 1/N, 1/N^2, 1/N^3} with at
    least two terms; a point whose y or design row is not finite raises
    FitError naming the first such point in input order.  The design
    matrix is built once; the window family drops 0..N_WINDOWS-1 further
    points from it, and spreads are max |coefficient - central|.
    """
    basis = tuple(basis)
    if len(basis) < 2:
        raise FitError("need at least two basis terms")
    for t in basis:
        if t not in _COLUMNS:
            raise FitError(f"unknown basis term {t!r}")
    ns, ys = np.array([(float(n), float(y)) for n, y in data]).reshape(-1, 2).T
    with np.errstate(divide="ignore", invalid="ignore"):
        design = np.column_stack([_COLUMNS[t](ns) for t in basis])
    finite = np.isfinite(design)
    bad = np.flatnonzero(~finite.all(axis=1) | ~np.isfinite(ys))
    if len(bad):
        i = bad[0]
        what = "y" if not np.isfinite(ys[i]) else ", ".join(np.array(basis)[~finite[i]])
        raise FitError(f"point {i + 1} (N={ns[i]:g}, y={ys[i]:g}) cannot be fitted: "
                       f"{what} not finite")
    if len(ys) < points_needed(basis, drop_first):
        raise FitError(f"{max(0, len(ys) - drop_first)} points after dropping is too few "
                       f"for {len(basis)} terms")
    rows = np.lexsort((ys, ns))[drop_first:]  # by N, then y
    design, ys = design[rows], ys[rows]
    windows = []
    for extra in range(N_WINDOWS):
        if extra and len(ys) < points_needed(basis, extra):
            break
        coef, _, rank, _ = np.linalg.lstsq(design[extra:], ys[extra:], rcond=None)
        if rank < len(basis):
            raise FitError(f"design matrix rank {rank} < {len(basis)} terms on these N")
        windows.append(coef)
    central = dict(zip(basis, windows[0].tolist()))
    spread = dict.fromkeys(basis, 0.0 if len(windows) > 1 else None)
    for coef in windows[1:]:
        for t, c in zip(basis, coef.tolist()):
            spread[t] = max(spread[t], abs(c - central[t]))
    return FitResult(basis=basis, coefficients=central,
                     residual_norm=float(np.linalg.norm(ys - design @ windows[0])),
                     window_spread=spread, points_used=len(ys))


def extract_overlap(result: FitResult) -> float:
    """exp(-a2): the scaling-limit overlap from a ratio fit.

    Applied to the absolute ground-state fit this gives the lattice
    proportionality constant alpha instead, since the ground-state overlap
    is 1 in the continuum normalization."""
    return float(np.exp(-result.coefficient("1")))


def rows_by_k(records) -> dict:
    """{k: the records of state k sorted by N}, in ascending k, for lattice
    records with fields `k` and `n_sites`."""
    by_k: dict = {}
    for r in records:
        by_k.setdefault(r.k, []).append(r)
    return {k: sorted(by_k[k], key=lambda r: r.n_sites) for k in sorted(by_k)}


def ground_state_fit(data) -> tuple[FitResult, dict]:
    """The fit of the ground-state -log <B|0>_N to ABSOLUTE_BASIS, with its
    summary block: a1 (the log N coefficient), the lattice constant alpha
    (see `extract_overlap`) and their window spreads."""
    gfit = fit(data, ABSOLUTE_BASIS)
    alpha, spread = extract_overlap(gfit), gfit.window_spread["1"]
    return gfit, {"a1": gfit.coefficient("logN"),
                  "a1_spread": gfit.window_spread["logN"],
                  "alpha": alpha,
                  "alpha_spread": None if spread is None else alpha * np.expm1(spread)}


def ratio_fit(data) -> tuple[float, float]:
    """The fit of an excited -log(<B|k>_N/<B|0>_N) to RATIO_BASIS, dropping
    its DROP_FIRST_EXCITED smallest-N points: the overlap exp(-a2) (see
    `extract_overlap`) and the window spread of a2."""
    rfit = fit(data, RATIO_BASIS, drop_first=DROP_FIRST_EXCITED)
    return extract_overlap(rfit), rfit.window_spread["1"]
