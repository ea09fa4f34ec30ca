"""The rectcft command: every computation as a deterministic subcommand.

Identical inputs give byte-identical outputs on the exact-arithmetic paths
and printed-precision-stable outputs on the floating ones.  Exit codes:
0 success, 1 runtime failure, 2 usage, 3 structural assertion (exact
invariants violated, e.g. c-divisibility), 4 selftest failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction

from scipy.sparse.linalg import ArpackError

from .series import C, DivisibilityError, cpoly, eta_inverse_power
from . import fitting, freefield, ising, looplattice, slitmaps, virasoro

STRUCTURAL_ERRORS = (DivisibilityError, AssertionError,
                     looplattice.DegenerateNormError)


def max_order() -> int:
    return int(os.environ.get("RECTCFT_MAX_ORDER", "60"))


class UsageError(ValueError):
    pass


def _check_range(name, value, hi):
    if value < 0 or value > hi:
        raise UsageError(f"{name}={value} outside [0, {hi}]")
    return value


def _series_plain(series) -> str:
    parts = []
    for n in range(series.offset, series.order + 1):
        co = series[n]
        if (co.is_zero() if hasattr(co, "is_zero") else co == 0):
            continue
        cs = f"({co})" if hasattr(co, "coeffs") and not co.is_constant() else str(co)
        if n == 0:
            parts.append(cs)
        else:
            var = series.var if n == 1 else f"{series.var}^{n}"
            parts.append(var if cs == "1" else f"{cs} {var}")
    return (" + ".join(parts) if parts else "0") + " + ..."


def _emit(args, payload, csv_rows=None, csv_header=None):
    """Write the result in the requested format to --out or stdout."""
    if args.format == "csv":
        if csv_rows is None:
            raise UsageError("this subcommand has no CSV form")
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(csv_header)
        w.writerows(csv_rows)
        text = buf.getvalue()
    elif args.format == "plain":
        if isinstance(payload, str):
            text = payload + "\n"
        else:
            text = "\n".join(f"{k}: {v}" for k, v in _flatten(payload)) + "\n"
    else:
        text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}{k}.")
    else:
        yield prefix.rstrip("."), obj


# ------------------------------------------------------------- subcommands


def cmd_boundary_state(args):
    level = _check_range("level", args.level, 40)
    state = virasoro.boundary_state(level)
    _emit(args, state.to_json())


def cmd_amplitude(args):
    order = _check_range("order", args.order, max_order())
    amp = virasoro.product_amplitude(None, order)
    eta = eta_inverse_power(C * Fraction(1, 2), "qhat", order).series
    matches = amp == eta
    if args.at_c is not None:
        c_val = Fraction(args.at_c)
        coeffs = [str(cpoly(amp[n])(c_val)) for n in range(order + 1)]
    else:
        coeffs = [cpoly(amp[n]).to_json() for n in range(order + 1)]
    payload = {"order": order, "variable": "qhat", "prefactor_exponent": "-c/24",
               "coefficients": coeffs, "eta_identity_passes": bool(matches)}
    if args.format == "plain":
        _emit(args, _series_plain(amp) + f"\n[eta identity: {'pass' if matches else 'FAIL'}]")
    else:
        _emit(args, payload)
    if not matches:
        raise AssertionError("amplitude does not match the eta power series")


def cmd_pn(args):
    order = _check_range("order", args.order, max_order() // 2)
    n = args.slits_exponent
    if n < 1 or n > 6:
        raise UsageError("slits-exponent must be in 1..6")
    p = virasoro.p_series(n, order)
    dev = virasoro.pk_conjecture_check(p)
    payload = {"slits_exponent": n, "order": order,
               "coefficients": [str(p[k]) for k in range(order + 1)],
               "first_deviation": dev.first_deviation,
               "deviation_sign": dev.deviation_sign}
    if args.format == "plain":
        _emit(args, _series_plain(p))
    else:
        _emit(args, payload)


def cmd_gluing_check(args):
    level = _check_range("level", args.level, 40)
    nmax = _check_range("nmax", args.nmax, level)
    state = virasoro.boundary_state(level)
    results = {}
    ok = True
    for n in range(1, nmax + 1):
        res = virasoro.gluing_residual(state, virasoro.homogeneous_gluing(n))
        bad = {lam: str(co) for lam, co in res.terms.items()
               if sum(lam) <= level - n and not co.is_zero()}
        results[n] = {"vanishes_to_level": level - n, "nonzero_components": len(bad)}
        ok = ok and not bad
    _emit(args, {"level": level, "modes": results, "all_vanish": ok})
    if not ok:
        raise AssertionError("gluing residual failed to vanish")


def cmd_slitmap(args):
    out = {}
    z = 4 * complex(math.cos(0.04), math.sin(0.04))
    for n in (1, 2, 3, 4):
        w = slitmaps.slit_map(n, z)
        out[f"N={n}"] = {
            "f(4e^{0.04i})": str(w),
            "composition_dev": abs(slitmaps.composed_map(n, z) - w),
            "inverse_dev": abs(slitmaps.slit_map_inverse(n, w) - z),
        }
        if args.check:
            slope = slitmaps.asymptotic_decay_slope(n)
            expect = 1 - 2 ** (n + 1)
            out[f"N={n}"]["decay_slope"] = slope
            out[f"N={n}"]["decay_slope_expected"] = expect
            if abs(slope - expect) / abs(expect) > 0.05:
                raise AssertionError(f"decay slope off at N={n}: {slope} vs {expect}")
    _emit(args, out)


def cmd_boson(args):
    order = _check_range("amplitude-order", args.amplitude_order, max_order())
    amp = freefield.boson_amplitude(order)
    eta = eta_inverse_power(Fraction(1, 2), "qhat", order).series
    payload = {"order": order, "variable": "qhat", "prefactor_exponent": "-1/24",
               "coefficients": [str(amp[n]) for n in range(order + 1)],
               "eta_identity_passes": amp == eta}
    if args.format == "plain":
        _emit(args, _series_plain(amp))
    else:
        _emit(args, payload)
    if not payload["eta_identity_passes"]:
        raise AssertionError("boson amplitude does not match eta^{-1/2}")


def cmd_majorana(args):
    if args.g_table:
        m_max, n_max = args.g_table
        g = freefield.g_series(max(m_max, n_max))
        rows = [(m, n, str(g[m, n])) for m in range(m_max + 1) for n in range(n_max + 1)]
        _emit(args, {"entries": {f"G[{m},{n}]": s for m, n, s in rows}},
              csv_rows=rows, csv_header=("m", "n", "G_mn"))
        return
    if args.compare_virasoro:
        level = _check_range("level", args.level, 12)
        prod = freefield.virasoro_product_state(
            freefield.fermion_virasoro, freefield.fermion_vacuum(level), level,
            virasoro.slit_factor_count(level))
        coh = freefield.fermion_boundary_state(level, freefield.g_series(level))
        same = prod == coh
        _emit(args, {"level": level, "virasoro_product_equals_coherent": same})
        if not same:
            raise AssertionError("fermion Virasoro product disagrees with coherent state")
        return
    order = _check_range("amplitude-order", args.amplitude_order, 20)
    amp = freefield.fermion_amplitude(order)
    eta = eta_inverse_power(Fraction(1, 4), "qhat", order).series
    payload = {"order": order, "variable": "qhat", "prefactor_exponent": "-1/48",
               "coefficients": [str(amp[n]) for n in range(order + 1)],
               "eta_identity_passes": amp == eta}
    if args.format == "plain":
        _emit(args, _series_plain(amp))
    else:
        _emit(args, payload)
    if not payload["eta_identity_passes"]:
        raise AssertionError("fermion amplitude does not match eta^{-1/4}")


def cmd_loop(args):
    nmin = _check_range("nmin", args.nmin, 1000)
    nmax = _check_range("nmax", args.nmax, 26)
    n_values = range(nmin + nmin % 2, nmax + 1, 2)
    if not n_values:
        raise UsageError(f"no even N in [{nmin}, {nmax}]")
    weights = dict.fromkeys(looplattice.parse_p(p) for p in args.p.split(","))
    tables = {w: looplattice.overlap_table(w.p, n_values, args.kmax) for w in weights}
    csv_rows = [("inf" if math.isinf(r.p) else r.p, r.n_sites, r.k, repr(r.energy),
                 repr(r.overlap))
                for w in sorted(tables, key=lambda w: w.p) for r in tables[w]]
    summaries = {("inf" if math.isinf(w.p) else str(w.p)): looplattice.loop_fit_summary(t)
                 for w, t in tables.items()}
    if args.format == "csv" or args.out and args.out.endswith(".csv"):
        args.format = "csv"
        _emit(args, summaries, csv_rows=csv_rows,
              csv_header=("p", "N", "k", "energy", "overlap"))
        if args.summary_out:
            with open(args.summary_out, "w") as fh:
                json.dump(summaries, fh, indent=2, sort_keys=True, default=str)
    else:
        _emit(args, {"rows": [list(r) for r in csv_rows], "fits": summaries})


def cmd_ising(args):
    nmin = _check_range("nmin", args.nmin, 1000)
    nmax = _check_range("nmax", args.nmax, 1000)
    kmax = _check_range("kmax", args.kmax, 30)
    n_values = list(range(nmin + nmin % 2, nmax + 1, 2))
    records = ising.ising_overlap_table(n_values, kmax)
    summary = ising.ising_fit_summary(records)
    csv_rows = [(r.n_sites, r.k, str(r.h_label), repr(r.overlap)) for r in records]
    if args.format == "csv" or args.out and args.out.endswith(".csv"):
        args.format = "csv"
        _emit(args, summary, csv_rows=csv_rows, csv_header=("N", "k", "h_label", "overlap"))
        if args.summary_out:
            with open(args.summary_out, "w") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True, default=str)
    else:
        _emit(args, {"rows": [list(r) for r in csv_rows], "fit": summary})


def cmd_fit(args):
    if not args.data:
        raise UsageError("fit requires --data")
    with open(args.data) as fh:
        rows = list(csv.reader(fh))
    if rows and not _is_number(rows[0][0]):
        rows = rows[1:]
    data = [(float(r[0]), float(r[1])) for r in rows]
    basis = tuple(args.basis.split(","))
    result = fitting.fit(data, basis, drop_first=args.drop_first)
    _emit(args, result.to_json())


def _is_number(s) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


# --------------------------------------------------------------- selftests


def _selftest_virasoro():
    from fractions import Fraction as F
    b = virasoro.boundary_state(4)
    yield "level-4 state", b.coeff(()) == 1 and b.coeff((2,)) == -1 \
        and b.coeff((4,)) == cpoly(F(-1, 2)) and b.coeff((2, 2)) == cpoly(F(1, 2))
    amp = virasoro.product_amplitude(None, 10)
    eta = eta_inverse_power(C * F(1, 2), "qhat", 10).series
    yield "eta identity to 10", amp == eta
    yield "shapovalov route agrees", virasoro.amplitude(virasoro.boundary_state(10), 10) == amp
    ok = True
    b8 = virasoro.boundary_state(8)
    for n in range(1, 5):
        r = virasoro.gluing_residual(b8, virasoro.homogeneous_gluing(n))
        ok = ok and all(co.is_zero() for lam, co in r.terms.items() if sum(lam) <= 8 - n)
    yield "gluing residuals", ok
    yield "P1 series", [str(x) for x in virasoro.p_series(1, 2).coeffs] == ["1", "1", "5/2"]
    yield "P2 closed form", virasoro.p2_closed_form_check(8)


def _selftest_slitmap():
    import cmath
    yield "f1(3)=sqrt(11)", abs(slitmaps.slit_map(1, 3.0) - math.sqrt(11)) < 1e-12
    z = 5 * cmath.exp(0.05j)
    ok = all(abs(slitmaps.composed_map(n, z) - slitmaps.slit_map(n, z)) < 1e-12
             for n in (1, 2, 3))
    yield "composition", ok
    slope = slitmaps.asymptotic_decay_slope(2)
    yield "decay slope N=2", abs(slope + 7) / 7 < 0.05


def _selftest_boson():
    from fractions import Fraction as F
    b = freefield.boson_boundary_state(8)
    yield "gluing", all(freefield.boson_gluing_check(b, m).is_zero() for m in (1, 2, 3))
    amp = freefield.boson_amplitude(10)
    yield "eta^{-1/2}", amp == eta_inverse_power(F(1, 2), "qhat", 10).series
    yield "product formula", amp == freefield.boson_product_formula(10)
    prod = freefield.virasoro_product_state(freefield.boson_virasoro,
                                            freefield.boson_vacuum(6), 6, 2)
    yield "virasoro product c=1", prod == freefield.boson_boundary_state(6)


def _selftest_majorana():
    from fractions import Fraction as F
    g = freefield.g_series(8)
    table = {(0, 1): F(1, 2), (0, 3): F(1, 8), (1, 2): F(5, 8), (3, 4): F(81, 128)}
    yield "G table", all(g[m, n] == v for (m, n), v in table.items())
    b = freefield.fermion_boundary_state(8, g)
    yield "annihilation", all(freefield.fermion_annihilation_check(b, m, g).is_zero()
                              for m in (0, 1, 2))
    amp = freefield.fermion_amplitude(8, g)
    yield "eta^{-1/4}", amp == eta_inverse_power(F(1, 4), "qhat", 8).series
    prod = freefield.virasoro_product_state(freefield.fermion_virasoro,
                                            freefield.fermion_vacuum(6), 6, 2)
    yield "virasoro product c=1/2", prod == freefield.fermion_boundary_state(6, g)


def _selftest_loop():
    import numpy as np
    beta = looplattice.parse_p(3).beta
    es = [looplattice.tl_generator_matrix(i, 8, beta) for i in range(7)]
    ok = all(np.abs(e @ e - beta * e).max() < 1e-12 for e in es)
    ok = ok and all(np.abs(es[i] @ es[i + 1] @ es[i] - es[i]).max() < 1e-12
                    for i in range(6))
    yield "TL relations N=8", ok
    g = looplattice.gram(8, beta)
    h = looplattice.hamiltonian(8, beta)
    yield "Gram self-adjointness", np.abs(g @ h - h.T @ g).max() < 1e-9
    d = looplattice.spectrum_dense(12, beta, 2)
    s = looplattice.spectrum_sparse(12, beta, 2)
    yield "dense vs sparse N=12", all(
        abs(a.energy - b.energy) < 1e-9 and abs(a.boundary_overlap - b.boundary_overlap) < 1e-8
        for a, b in zip(d, s))


def _selftest_ising():
    import numpy as np
    ok = True
    for n in (2, 3, 4):
        sol = ising.solve_chain(n)
        dense_e, dense_ov = ising.brute_force_reference(n)
        levels = ising.many_body_spectrum(sol)
        ok = ok and np.abs(np.array([e for e, _ in levels]) - dense_e).max() < 1e-12
        ok = ok and all(abs(ising.overlap_sq(sol, exc) - dense_ov[i]) < 1e-10
                        for i, (_, exc) in enumerate(levels))
    yield "brute force N<=4", ok
    sol = ising.solve_chain(3)
    import itertools
    total = sum(ising.overlap_sq(sol, e) for r in range(4)
                for e in itertools.combinations(range(1, 4), r))
    yield "completeness", abs(total - 1) < 1e-10


def _selftest_fit():
    data = [(n, 2 * n - 0.0625 * math.log(n) + 1 + 3 / n) for n in range(4, 40, 2)]
    r = fitting.fit(data, ("N", "logN", "1", "1/N"))
    yield "exact recovery", all(abs(r.coefficient(t) - v) < 1e-9 for t, v in
                                (("N", 2), ("logN", -0.0625), ("1", 1), ("1/N", 3)))


SELFTESTS = {
    "boundary-state": _selftest_virasoro,
    "amplitude": _selftest_virasoro,
    "pn": _selftest_virasoro,
    "gluing-check": _selftest_virasoro,
    "slitmap": _selftest_slitmap,
    "boson": _selftest_boson,
    "majorana": _selftest_majorana,
    "loop": _selftest_loop,
    "ising": _selftest_ising,
    "fit": _selftest_fit,
}


def run_selftest(name) -> int:
    failures = 0
    for label, ok in SELFTESTS[name]():
        print(f"[{'pass' if ok else 'FAIL'}] {name}: {label}")
        failures += 0 if ok else 1
    return failures


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rectcft",
        description="Rectangle boundary state: exact series, free fields, lattice checks")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "plain"), default="json")
    common.add_argument("--out", help="write output to this path instead of stdout")
    common.add_argument("--selftest", action="store_true",
                        help="run this module's invariant suite and exit")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, parents=[common], **kw)
        p.set_defaults(handler=fn)
        return p

    p = add("boundary-state", cmd_boundary_state, help="Verma boundary state")
    p.add_argument("--level", type=int, default=8)

    p = add("amplitude", cmd_amplitude, help="symbolic amplitude vs eta^{-c/2}")
    p.add_argument("--order", type=int, default=20)
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--symbolic", action="store_true", default=True)
    grp.add_argument("--at-c", help="evaluate coefficients at a rational c")

    p = add("pn", cmd_pn, help="finitized P_N(q) series")
    p.add_argument("--slits-exponent", type=int, required=False, default=3)
    p.add_argument("--order", type=int, default=8)

    p = add("gluing-check", cmd_gluing_check, help="gluing residuals on the boundary state")
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--level", type=int, default=12)

    p = add("slitmap", cmd_slitmap, help="slit-map identities and asymptotics")
    p.add_argument("--check", action="store_true")

    p = add("boson", cmd_boson, help="free-boson coherent state amplitude")
    p.add_argument("--amplitude-order", type=int, default=16)

    p = add("majorana", cmd_majorana, help="NS-Majorana G table, amplitude, Virasoro")
    p.add_argument("--g-table", nargs=2, type=int, metavar=("M", "N"))
    p.add_argument("--amplitude-order", type=int, default=10)
    p.add_argument("--compare-virasoro", action="store_true")
    p.add_argument("--level", type=int, default=8)

    p = add("loop", cmd_loop, help="TL loop model sweep and Table-style fits")
    p.add_argument("--p", default="3", help="comma list from {3,4,5,inf}")
    p.add_argument("--nmin", type=int, default=8)
    p.add_argument("--nmax", type=int, default=24)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--summary-out", help="also write the fit summary JSON here")

    p = add("ising", cmd_ising, help="Ising chain overlap table and fits")
    p.add_argument("--nmin", type=int, default=2)
    p.add_argument("--nmax", type=int, default=500)
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--summary-out", help="also write the fit summary JSON here")

    p = add("fit", cmd_fit, help="fit a CSV of (N, y) pairs")
    p.add_argument("--data", help="CSV path")
    p.add_argument("--basis", default="N,logN,1,1/N,1/N^2",
                   help="comma list from {N,logN,1,1/N,1/N^2,1/N^3}")
    p.add_argument("--drop-first", type=int, default=0)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.selftest:
            return 4 if run_selftest(args.command) else 0
        args.handler(args)
        return 0
    except UsageError as exc:
        print(f"rectcft: {exc}", file=sys.stderr)
        return 2
    except STRUCTURAL_ERRORS as exc:
        print(f"rectcft: structural check failed: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, ArithmeticError, ArpackError,
            looplattice.ArpackShortfallError) as exc:
        print(f"rectcft: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
