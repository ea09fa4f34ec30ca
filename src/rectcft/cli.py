"""The rectcft command: every computation as a deterministic subcommand.

Identical inputs give byte-identical outputs on the exact-arithmetic paths
and printed-precision-stable outputs on the floating ones.  Exit codes:
0 success, 1 runtime failure, 2 usage, 3 structural assertion (exact
invariants violated, e.g. c-divisibility, or a loop eigen-residual).
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

from .series import C, DivisibilityError, cpoly, eta_inverse_power
from . import fitting, freefield, ising, looplattice, slitmaps, virasoro

STRUCTURAL_ERRORS = (DivisibilityError, AssertionError)


class UsageError(ValueError):
    pass


def max_order() -> int:
    text = os.environ.get("RECTCFT_MAX_ORDER", "60")
    if not text.strip().isdecimal():
        raise UsageError(f"RECTCFT_MAX_ORDER={text!r}: need a non-negative integer")
    return int(text)


def _check_range(name, value, hi, lo=0):
    if value < lo or value > hi:
        raise UsageError(f"{name}={value} outside [{lo}, {hi}]")
    return value


def _emit(args, payload, plain=None, table=None):
    """Write the result to --out or stdout: `table`, a (header, *rows)
    sequence, as CSV under --format csv or an --out ending in .csv; `plain`
    (else the flattened payload) under --format plain; JSON otherwise."""
    if table and (args.format == "csv" or (args.out or "").endswith(".csv")):
        buf = io.StringIO()
        csv.writer(buf).writerows(table)
        text = buf.getvalue()
    elif args.format == "plain":
        if plain is None:
            plain = "\n".join(f"{k}: {v}" for k, v in _flatten(payload))
        text = plain + "\n"
    else:
        text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_table(args, header, rows, summary, summary_key):
    """A lattice table: its rows (lists) as `_emit`'s table, or
    {"rows", summary_key}; --summary-out gets the summary JSON whatever the
    format."""
    _emit(args, {"rows": rows, summary_key: summary}, table=(header, *rows))
    if args.summary_out:
        with open(args.summary_out, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True, default=str)


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}{k}.")
    else:
        yield prefix.rstrip("."), obj


# ------------------------------------------------------------- subcommands


def cmd_boundary_state(args):
    level = _check_range("level", args.level, max_order())
    state = virasoro.boundary_state(level)
    _emit(args, state.to_json())


def cmd_amplitude(args):
    order = _check_range("order", args.order, max_order())
    try:
        c_val = None if args.at_c is None else Fraction(args.at_c)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--at-c {args.at_c!r} is not a rational number") from None
    amp = virasoro.product_amplitude(None, order)
    eta = eta_inverse_power(C * Fraction(1, 2), "qhat", order).series
    matches = amp == eta
    shown = amp if c_val is None else amp.map_coeffs(lambda co: cpoly(co)(c_val))
    _emit(args, {"order": order, "variable": "qhat", "prefactor_exponent": "-c/24",
                 "coefficients": shown.to_json()["coefficients"],
                 "eta_identity_passes": bool(matches)},
          plain=repr(shown) + f"\n[eta identity: {'pass' if matches else 'FAIL'}]")
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
               "coefficients": p.to_json()["coefficients"],
               "first_deviation": dev.first_deviation,
               "deviation_sign": dev.deviation_sign}
    _emit(args, payload, plain=repr(p))


def cmd_gluing_check(args):
    level = _check_range("level", args.level, max_order())
    nmax = _check_range("nmax", args.nmax, level)
    state = virasoro.boundary_state(level)
    results = {}
    ok = True
    for n in range(1, nmax + 1):
        res = virasoro.gluing_residual(state, n)
        bad = sum(sum(lam) <= level - n and any(slots.values())
                  for lam, slots in res.terms.items())
        results[n] = {"vanishes_to_level": level - n, "nonzero_components": bad}
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


def _free_amplitude(args, name, amplitude, s):
    """A free-field amplitude against eta^{-s} in qhat, c = 2s."""
    order = _check_range("amplitude-order", args.amplitude_order, max_order())
    amp = amplitude(order)
    passes = amp == eta_inverse_power(s, "qhat", order).series
    _emit(args, {"order": order, "variable": "qhat", "prefactor_exponent": str(-s / 12),
                 "coefficients": amp.to_json()["coefficients"],
                 "eta_identity_passes": passes}, plain=repr(amp))
    if not passes:
        raise AssertionError(f"{name} amplitude does not match eta^{{-{s}}}")


def cmd_boson(args):
    _free_amplitude(args, "boson", freefield.boson_amplitude, Fraction(1, 2))


def cmd_majorana(args):
    if args.g_table:
        m_max, n_max = args.g_table
        if min(m_max, n_max) < 0 or max(m_max, n_max) < 1:
            raise UsageError(f"--g-table {m_max} {n_max}: need M, N >= 0, one of them >= 1")
        _check_range("g-table max(M, N)", max(m_max, n_max), max_order())
        g = freefield.g_series(max(m_max, n_max))
        rows = [(m, n, str(g[m, n])) for m in range(m_max + 1) for n in range(n_max + 1)]
        _emit(args, {"entries": {f"G[{m},{n}]": s for m, n, s in rows}},
              table=(("m", "n", "G_mn"), *rows))
        return
    if args.compare_virasoro:
        level = _check_range("level", args.level, max_order(), lo=1)
        prod = freefield.virasoro_product_state(
            freefield.fermion_virasoro, freefield.fermion_vacuum(level), level,
            virasoro.slit_factor_count(level))
        coh = freefield.fermion_boundary_state(level, freefield.g_series(level))
        same = prod == coh
        _emit(args, {"level": level, "virasoro_product_equals_coherent": same})
        if not same:
            raise AssertionError("fermion Virasoro product disagrees with coherent state")
        return
    _free_amplitude(args, "fermion", freefield.fermion_amplitude, Fraction(1, 4))


def _even_n(args, cap):
    """The even N >= 2 in [--nmin, --nmax], --nmax at most `cap`."""
    nmin = _check_range("nmin", args.nmin, 1000)
    nmax = _check_range("nmax", args.nmax, cap)
    n_values = range(nmin + nmin % 2, nmax + 1, 2)
    if not n_values or n_values[0] < 2:
        raise UsageError(f"no even N >= 2 in [{nmin}, {nmax}]")
    return n_values


def cmd_loop(args):
    n_values = _even_n(args, 26)
    kmax = _check_range("kmax", args.kmax, 40)
    weights = dict.fromkeys(_loop_weight(p) for p in args.p.split(","))
    tables = {w: looplattice.overlap_table(w.p, n_values, kmax) for w in weights}
    csv_rows = [["inf" if math.isinf(r.p) else r.p, r.n_sites, r.k, repr(r.energy),
                 repr(r.overlap)]
                for w in sorted(tables, key=lambda w: w.p) for r in tables[w]]
    summaries = {("inf" if math.isinf(w.p) else str(w.p)): looplattice.loop_fit_summary(t)
                 for w, t in tables.items()}
    _emit_table(args, ("p", "N", "k", "energy", "overlap"), csv_rows, summaries, "fits")


def _loop_weight(text):
    try:
        return looplattice.parse_p(text)
    except ValueError:
        raise UsageError(f"--p {text!r}: expected an integer >= 2 or inf") from None


def cmd_ising(args):
    n_values = _even_n(args, 1000)
    kmax = _check_range("kmax", args.kmax, 30)
    labels = ising.table_labels(n_values, kmax)
    try:
        ising.check_fit_points(n_values, labels)
    except fitting.FitError as exc:
        raise UsageError(f"{exc} in [{args.nmin}, {args.nmax}]") from None
    records = ising.ising_overlap_table(n_values, kmax)
    summary = ising.ising_fit_summary(records)
    csv_rows = [[r.n_sites, r.k, str(r.h_label), repr(r.overlap)] for r in records]
    _emit_table(args, ("N", "k", "h_label", "overlap"), csv_rows, summary, "fit")


def cmd_fit(args):
    if not args.data:
        raise UsageError("fit requires --data")
    basis = tuple(args.basis.split(","))
    if len(basis) < 2 or not set(basis) <= set(fitting.TERMS):
        raise UsageError(f"--basis {args.basis!r}: need two or more terms from "
                         f"{{{','.join(fitting.TERMS)}}}")
    if len(set(basis)) < len(basis):
        raise UsageError(f"--basis {args.basis!r}: a term is repeated")
    drop_first = _check_range("drop-first", args.drop_first, math.inf)
    with open(args.data) as fh:
        rows = [r for r in csv.reader(fh) if r]
    if rows and not _is_number(rows[0][0]):
        rows = rows[1:]
    data = []
    for r in rows:
        if len(r) < 2:
            raise ValueError(f"{args.data}: row {','.join(r)!r} has no (N, y) pair")
        if not (_is_number(r[0]) and _is_number(r[1])):
            raise ValueError(f"{args.data}: row {','.join(r)!r} is not a numeric (N, y) pair")
        data.append((float(r[0]), float(r[1])))
    result = fitting.fit(data, basis, drop_first=drop_first)
    _emit(args, result.to_json())


def _is_number(s) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rectcft",
        description="Rectangle boundary state: exact series, free fields, lattice checks")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "plain"), default="json")
    common.add_argument("--out", help="write output to this path instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, parents=[common], **kw)
        p.set_defaults(handler=fn)
        return p

    p = add("boundary-state", cmd_boundary_state, help="Verma boundary state")
    p.add_argument("--level", type=int, default=8)

    p = add("amplitude", cmd_amplitude, help="symbolic amplitude vs eta^{-c/2}")
    p.add_argument("--order", type=int, default=20)
    p.add_argument("--at-c", help="evaluate coefficients at a rational c")

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
    p.add_argument("--p", default="3", help="comma list of p >= 2 or inf")
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
        # only the lattice tables and the majorana G table have a CSV form
        if args.format == "csv" and args.command not in ("loop", "ising") and not (
                args.command == "majorana" and args.g_table):
            raise UsageError(f"{args.command} has no CSV form")
        args.handler(args)
        return 0
    except UsageError as exc:
        print(f"rectcft: {exc}", file=sys.stderr)
        return 2
    except STRUCTURAL_ERRORS as exc:
        print(f"rectcft: structural check failed: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"rectcft: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
