import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rectcft import cli, freefield, ising, looplattice, slitmaps, virasoro
from rectcft.cli import build_parser, main
from rectcft.fitting import FitError
from rectcft.freefield import GMatrix, boson_vacuum
from rectcft.series import C, CONE, DivisibilityError, Series
from rectcft.virasoro import finitized_state, product_amplitude

SQRT_ONE_MINUS_SQ = freefield._sqrt_one_minus_sq


def perturbed_sqrt(order):
    """`_sqrt_one_minus_sq` with its x^2 numerator off by one."""
    co, den = SQRT_ONE_MINUS_SQ(order)
    co[2] += 1
    return co, den


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSubcommands:
    def test_boundary_state_json(self, capsys):
        code, out, _ = run(capsys, "boundary-state", "--level", "4")
        assert code == 0
        data = json.loads(out)
        terms = {tuple(t["partition"]): t["coefficient"] for t in data["terms"]}
        assert terms[()] == ["1"]
        assert terms[(2,)] == ["-1"]
        assert terms[(4,)] == ["-1/2"]
        assert terms[(2, 2)] == ["1/2"]

    def test_amplitude_symbolic(self, capsys):
        code, out, _ = run(capsys, "amplitude", "--order", "8")
        assert code == 0
        data = json.loads(out)
        assert data["eta_identity_passes"] is True
        assert data["coefficients"][2] == ["0", "1/2"]  # c/2

    def test_amplitude_at_c(self, capsys):
        code, out, _ = run(capsys, "amplitude", "--order", "4", "--at-c", "1/2")
        assert code == 0
        data = json.loads(out)
        assert data["coefficients"][2] == "1/4"

    def test_amplitude_at_c_plain(self, capsys):
        # the plain form prints the series evaluated at c = 1/2, like the JSON
        code, out, _ = run(capsys, "amplitude", "--order", "4", "--at-c", "1/2",
                           "--format", "plain")
        assert code == 0
        assert out == "1 + 1/4 qhat^2 + 13/32 qhat^4 + ...\n[eta identity: pass]\n"

    def test_pn_plain_245_over_8(self, capsys):
        code, out, _ = run(capsys, "pn", "--slits-exponent", "3", "--order", "8",
                           "--format", "plain")
        assert code == 0
        assert out.strip().endswith("245/8 q^8 + ...")

    def test_gluing_check(self, capsys):
        code, out, _ = run(capsys, "gluing-check", "--nmax", "4", "--level", "8")
        assert code == 0
        assert json.loads(out)["all_vanish"] is True

    def test_slitmap(self, capsys):
        code, out, _ = run(capsys, "slitmap")
        assert code == 0
        assert json.loads(out)["N=1"]["composition_dev"] < 1e-12

    def test_slitmap_check(self, capsys):
        code, out, _ = run(capsys, "slitmap", "--check")
        assert code == 0
        data = json.loads(out)
        for n in (1, 2, 3, 4):
            entry = data[f"N={n}"]
            assert entry["decay_slope_expected"] == 1 - 2 ** (n + 1)
            assert abs(entry["decay_slope"] / entry["decay_slope_expected"] - 1) <= 0.05

    def test_majorana_table_csv(self, capsys):
        code, out, _ = run(capsys, "majorana", "--g-table", "1", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,n,G_mn"
        assert "1,2,5/8" in lines

    def test_majorana_table_csv_out(self, capsys, tmp_path):
        # an --out ending in .csv picks the CSV form, as --format csv does
        table = tmp_path / "x.csv"
        code, out, _ = run(capsys, "majorana", "--g-table", "2", "2", "--out", str(table))
        assert (code, out) == (0, "")
        _, csv_out, _ = run(capsys, "majorana", "--g-table", "2", "2", "--format", "csv")
        assert table.read_text().splitlines() == csv_out.splitlines()
        assert csv_out.splitlines()[:3] == ["m,n,G_mn", "0,0,0", "0,1,1/2"]

    def test_majorana_compare_virasoro(self, capsys):
        code, out, _ = run(capsys, "majorana", "--compare-virasoro", "--level", "6")
        assert code == 0
        assert json.loads(out)["virasoro_product_equals_coherent"] is True

    @pytest.mark.parametrize("argv", [("amplitude", "--order", "0"),
                                      ("boson", "--amplitude-order", "0"),
                                      ("majorana", "--amplitude-order", "0")])
    def test_order_zero_amplitude(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--format", "plain")
        assert code == 0
        assert out.startswith("1 + ...\n")

    def test_fit_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        rows = ["N,y"] + [f"{n},{2*n + 1}" for n in range(4, 30, 2)]
        path.write_text("\n".join(rows))
        code, out, _ = run(capsys, "fit", "--data", str(path), "--basis", "N,1")
        assert code == 0
        data = json.loads(out)
        assert abs(data["coefficients"]["N"] - 2) < 1e-10

    def test_loop_csv_out(self, capsys, tmp_path):
        table = tmp_path / "loop.csv"
        summary = tmp_path / "loop.json"
        code, _, _ = run(capsys, "loop", "--p", "3", "--nmin", "8", "--nmax", "12",
                         "--kmax", "1", "--out", str(table),
                         "--summary-out", str(summary))
        assert code == 0
        lines = table.read_text().strip().splitlines()
        assert lines[0] == "p,N,k,energy,overlap"
        assert len(lines) == 1 + 3 * 2
        assert "3.0" in json.loads(summary.read_text())

    def test_word_table_built_once_per_n(self, capsys, monkeypatch, tmp_path):
        # one Dyck word table per N, shared by both p; no link basis is built
        enumerate_links, calls = looplattice.enumerate_links, []

        def counting(n_sites):
            calls.append(n_sites)
            return enumerate_links(n_sites)

        looplattice.link_basis.cache_clear()
        looplattice.dyck_words.cache_clear()
        monkeypatch.setattr(looplattice, "enumerate_links", counting)
        code, _, _ = run(capsys, "loop", "--p", "3,inf", "--nmin", "8", "--nmax", "18",
                         "--kmax", "1", "--out", str(tmp_path / "loop.csv"))
        assert code == 0
        assert calls == []
        tables = looplattice.dyck_words.cache_info()
        assert (tables.misses, tables.currsize) == (6, 6)

    def test_loop_without_n_ge_10(self, capsys):
        code, out, _ = run(capsys, "loop", "--nmin", "8", "--nmax", "8", "--kmax", "2")
        assert code == 0
        assert json.loads(out)["fits"]["3.0"]["overlaps"]["2"]["max_abs_for_n_ge_10"] is None

    def test_ising_selection_rule_zero(self, capsys):
        code, out, _ = run(capsys, "ising", "--nmax", "20", "--kmax", "5")
        assert code == 0
        # k = 5 is (1, 3): even fermion parity, two odd mode indices
        entry = json.loads(out)["fit"]["overlaps"]["5"]
        assert (entry["h"], entry["value"], entry["parity_forbidden"]) == ("3", 0.0, False)
        assert entry["max_det"] < 1e-12

    def test_ising_csv(self, capsys, tmp_path):
        table = tmp_path / "ising.csv"
        code, _, _ = run(capsys, "ising", "--nmin", "2", "--nmax", "40",
                         "--kmax", "3", "--out", str(table))
        assert code == 0
        lines = table.read_text().strip().splitlines()
        assert lines[0] == "N,k,h_label,overlap"

    @pytest.mark.parametrize("fmt", ["csv", "json", "plain"])
    def test_ising_summary_out_with_every_format(self, capsys, tmp_path, fmt):
        summary = tmp_path / "fits.json"
        code, out, _ = run(capsys, "ising", "--nmax", "40", "--kmax", "3",
                           "--format", fmt, "--summary-out", str(summary))
        assert code == 0
        assert out
        assert json.loads(summary.read_text())["overlaps"]["1"]["parity_forbidden"] is True


class TestDeterminism:
    def test_identical_runs_byte_identical(self, capsys):
        # the loop run covers the dense (N = 10) and eigsh (N = 12..16)
        # paths; its second run reuses the cached word tables
        for argv in (("pn", "--slits-exponent", "2", "--order", "6"),
                     ("loop", "--p", "3", "--nmin", "10", "--nmax", "16", "--kmax", "1",
                      "--format", "csv")):
            _, out1, _ = run(capsys, *argv)
            _, out2, _ = run(capsys, *argv)
            assert out1 == out2


class TestExactBytes:
    """SHA-256 of exact `--out` files: a change to the exact core (the Q[c]
    ring and the free-field mode action above all) must leave these bytes
    as they are."""

    @pytest.mark.parametrize("argv, digest", [
        (("amplitude", "--order", "24"),
         "b189eaaed788e61a84f2ea8ac918bab57686e73d279d91eed47da1ec989384da"),
        (("amplitude", "--order", "12", "--at-c", "1/2"),
         "a7b76b01c515a9404939dcaaf717a63c154b659d887f9778df833a9b4127cae4"),
        (("amplitude", "--order", "12", "--format", "plain"),
         "83ab6f5cf4aeaf05f20c6f971c3b8992b535bbb4aba7c14aeb5e2fc3900d0c17"),
        (("boundary-state", "--level", "16"),
         "0ce08991b5b5029715bb7baac1e8be2dbe044fc32be546a2b473415850100843"),
        (("pn", "--slits-exponent", "3", "--order", "12"),
         "43b8872afc20ad388e29fe4a35897c12d6a8c5f26a4eebd73500692c841ac77e"),
        (("gluing-check", "--nmax", "6", "--level", "12"),
         "c1de62434491c06137bdaf93ef063ec0ef0bcc7dfd3546831043380630bb7620"),
        (("boson", "--amplitude-order", "30"),
         "7f5d373f3811c59de6b8e60004e890572ec31987b3fc12c24935be093e449c49"),
        (("boson", "--amplitude-order", "16", "--format", "plain"),
         "42398b6d797e6c73d7b9fc7abc91e6fec9c098f2f6dc3cce0665577ce1e34f3a"),
        (("majorana", "--amplitude-order", "20"),
         "f5abe0916a1ce55e6e8a05f2fb0ae7171c2cedbeefe6b3f4ba7b377e7cc17636"),
        (("majorana", "--g-table", "8", "8", "--format", "csv"),
         "c789df4ab29bc7e674209a16a33955223b32a5cf501a1f2c7becb63d35cbd81d"),
        (("majorana", "--compare-virasoro", "--level", "12"),
         "7c6d19a5e4d7e1aa27022ab92485c0b37e85065ca66992945c43b2695925a6eb"),
        (("pn", "--slits-exponent", "3", "--order", "12", "--format", "plain"),
         "95078ffd041650fb7c2361686555f0a50666fe8d8da33d3913e0b034b31f6f86"),
        (("majorana", "--amplitude-order", "10", "--format", "plain"),
         "b8ff0453f0634b322534a74172bc0a3a84f098f6e09ce1c8a8e72ecd7fb222ab"),
        (("boson", "--amplitude-order", "60"),
         "3c653fe55c4eb5cf7029af55c31d015d27107e3c102194764fb3d13cb9f82aca"),
        # P_4 first leaves p(k) at q^16: no deviation within order 12
        (("pn", "--slits-exponent", "4", "--order", "12"),
         "d8f244908c26c679bf1a8378d03c535c7215b46bf217ddd916b735fb771a4538"),
    ])
    def test_output_digest(self, capsys, tmp_path, argv, digest):
        out = tmp_path / "out"
        code, _, _ = run(capsys, *argv, "--out", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_symbolic_workload_outputs_match_benchmark_digests(capsys, tmp_path):
    """The two files of the benchmark's `symbolic` workload, made through
    `cli.main`, against their SHA-256 in `perfbench/digests.json` (read,
    not run)."""
    digests = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                          / "digests.json").read_text())["full"]
    for name, argv in (("symbolic.amplitude", ("amplitude", "--order", "40")),
                       ("symbolic.pn", ("pn", "--slits-exponent", "3", "--order", "20"))):
        out = tmp_path / name
        code, _, _ = run(capsys, *argv, "--out", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[name], name


def test_cli_import_leaves_mpmath_unloaded():
    # only slitmaps.asymptotic_decay_slope needs mpmath, and it imports it
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, rectcft.cli; print('mpmath' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert done.stdout == "False\n"


def test_readme_examples_parse():
    """Every `rectcft ...` line of README's "Command line" block, with its
    backslash continuations joined, is accepted by the parser (nothing is
    run)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    examples = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("rectcft ")]
    assert len(examples) >= 10
    for argv in examples:
        assert build_parser().parse_args(argv[1:]).command == argv[1]


class TestErrorPaths:
    @pytest.mark.parametrize("argv", [("amplitude", "--bogus"),
                                      ("amplitude", "--selftest")])
    def test_unknown_flag_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(list(argv))
        assert exc.value.code == 2

    def test_out_of_range_level(self, capsys):
        code, _, err = run(capsys, "boundary-state", "--level", "99")
        assert code == 2
        assert "outside" in err

    def test_max_order_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("RECTCFT_MAX_ORDER", "4")
        code, _, _ = run(capsys, "amplitude", "--order", "6")
        assert code == 2
        monkeypatch.setenv("RECTCFT_MAX_ORDER", "8")
        code, _, _ = run(capsys, "amplitude", "--order", "6")
        assert code == 0

    def test_g_table_capped_at_max_order_before_any_work(self, capsys, monkeypatch):
        def not_reached(*args, **kwargs):
            raise AssertionError("the table was computed")

        monkeypatch.delenv("RECTCFT_MAX_ORDER", raising=False)
        monkeypatch.setattr(cli.freefield, "g_series", not_reached)
        code, _, err = run(capsys, "majorana", "--g-table", "0", "1000")
        assert code == 2
        assert "outside [0, 60]" in err
        monkeypatch.setenv("RECTCFT_MAX_ORDER", "4")
        code, _, err = run(capsys, "majorana", "--g-table", "5", "2")
        assert code == 2
        assert "outside [0, 4]" in err

    def test_g_table_at_the_cap(self, capsys, monkeypatch):
        monkeypatch.delenv("RECTCFT_MAX_ORDER", raising=False)
        code, out, _ = run(capsys, "majorana", "--g-table", "60", "60", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 61 * 61
        assert lines[-1] == "60,60,0"

    @pytest.mark.parametrize("argv, name, lo, cap, module, attr", [
        (("boundary-state", "--level"), "level", 0, 4, virasoro, "boundary_state"),
        (("gluing-check", "--nmax", "1", "--level"), "level", 0, 4, virasoro,
         "boundary_state"),
        (("amplitude", "--order"), "order", 0, 4, virasoro, "product_amplitude"),
        (("pn", "--order"), "order", 0, 2, virasoro, "p_series"),
        (("boson", "--amplitude-order"), "amplitude-order", 0, 4, freefield,
         "boson_amplitude"),
        (("majorana", "--amplitude-order"), "amplitude-order", 0, 4, freefield,
         "fermion_amplitude"),
        (("majorana", "--compare-virasoro", "--level"), "level", 1, 4, freefield,
         "virasoro_product_state"),
        (("majorana", "--g-table", "0"), "g-table max(M, N)", 0, 4, freefield, "g_series"),
    ], ids=["boundary-state", "gluing-check", "amplitude", "pn", "boson", "majorana",
            "majorana-compare-virasoro", "majorana-g-table"])
    def test_every_exact_size_is_capped_by_max_order(self, capsys, monkeypatch, argv, name,
                                                     lo, cap, module, attr):
        # RECTCFT_MAX_ORDER is the one size limit of the exact paths (pn's
        # order counts q = qhat^2, so half of it); one past it is refused
        # before any work
        def not_reached(*args, **kwargs):
            raise AssertionError("the result was computed")

        monkeypatch.setenv("RECTCFT_MAX_ORDER", "4")
        code, _, err = run(capsys, *argv, str(cap))
        assert (code, err) == (0, "")
        monkeypatch.setattr(module, attr, not_reached)
        code, _, err = run(capsys, *argv, str(cap + 1))
        assert code == 2
        assert err == f"rectcft: {name}={cap + 1} outside [{lo}, {cap}]\n"

    @pytest.mark.parametrize("value", ["abc", "-5", "1.5"])
    def test_max_order_env_must_be_non_negative_integer(self, capsys, monkeypatch, value):
        monkeypatch.setenv("RECTCFT_MAX_ORDER", value)
        code, _, err = run(capsys, "amplitude", "--order", "4")
        assert code == 2
        assert err.startswith("rectcft: RECTCFT_MAX_ORDER=")

    def test_fit_missing_data(self, capsys):
        code, _, err = run(capsys, "fit")
        assert code == 2

    def test_fit_blank_row_is_skipped(self, capsys, tmp_path):
        rows = ["N,y"] + [f"{n},{2*n + 1}" for n in range(4, 30, 2)]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(rows))
        _, plain, _ = run(capsys, "fit", "--data", str(path), "--basis", "N,1")
        path.write_text("\n".join(rows[:3] + [""] + rows[3:]) + "\n\n")
        code, out, _ = run(capsys, "fit", "--data", str(path), "--basis", "N,1")
        assert code == 0
        assert out == plain

    @pytest.mark.parametrize("text, row", [("N,y\n10,1.0\n12\n14,1.2\n", "'12'"),
                                           ("N\n10\n12\n", "'10'")])
    def test_fit_short_row_is_runtime_error(self, capsys, tmp_path, text, row):
        path = tmp_path / "data.csv"
        path.write_text(text)
        code, _, err = run(capsys, "fit", "--data", str(path), "--basis", "N,1")
        assert code == 1
        assert err.startswith("rectcft: ") and row in err

    @pytest.mark.parametrize("text, row", [("N,y\n10,abc\n", "'10,abc'"),
                                           ("N,y\n10,1.0\nx2,1.1\n", "'x2,1.1'")])
    def test_fit_non_numeric_field_is_runtime_error(self, capsys, tmp_path, text, row):
        path = tmp_path / "data.csv"
        path.write_text(text)
        code, _, err = run(capsys, "fit", "--data", str(path), "--basis", "N,1")
        assert code == 1
        assert err.startswith(f"rectcft: {path}: ") and row in err

    @pytest.mark.parametrize("first, bad", [
        ("8,1.0\n10,nan", "point 2 (N=10, y=nan) cannot be fitted: y not finite"),
        ("8,1.0\n10,inf", "point 2 (N=10, y=inf) cannot be fitted: y not finite"),
        ("0,1.0\n10,1.1", "point 1 (N=0, y=1) cannot be fitted: logN, 1/N, 1/N^2 not finite"),
    ])
    def test_fit_non_finite_point_is_runtime_error(self, capfd, tmp_path, first, bad):
        # fd-level capture: LAPACK writes its DLASCL complaints past sys.stderr
        path = tmp_path / "data.csv"
        path.write_text("N,y\n" + first + "".join(f"\n{n},1.{n}" for n in range(12, 22, 2)))
        code, out, err = run(capfd, "fit", "--data", str(path))
        assert code == 1
        assert out == "" and err == f"rectcft: {bad}\n"

    @pytest.mark.parametrize("argv", [("--nmin", "2", "--nmax", "2", "--kmax", "3"),
                                      ("--nmin", "1000", "--nmax", "1000"),
                                      ("--nmin", "2", "--nmax", "10", "--kmax", "0")])
    def test_ising_too_few_n_for_ground_fit(self, capsys, monkeypatch, argv):
        def not_reached(*args, **kwargs):
            raise AssertionError("the table was computed")

        monkeypatch.setattr(ising, "ising_overlap_table", not_reached)
        code, _, err = run(capsys, "ising", *argv)
        assert code == 2
        assert "ground-state fit needs at least 6 even N" in err

    @pytest.mark.parametrize("argv", [("--nmin", "2", "--nmax", "12", "--kmax", "3"),
                                      ("--nmin", "20", "--nmax", "32", "--kmax", "3")])
    def test_ising_too_few_n_for_ratio_fit(self, capsys, monkeypatch, argv):
        # k = 3 is (1, 2), an allowed state: its ratio fit drops 3 of the N
        # and needs 5 more for its 4 terms
        def not_reached(*args, **kwargs):
            raise AssertionError("the table was computed")

        monkeypatch.setattr(ising, "ising_overlap_table", not_reached)
        code, _, err = run(capsys, "ising", *argv)
        assert code == 2
        assert "the <B|3> ratio fit needs at least 8 even N >= 2" in err

    def test_loop_dense_shortfall_is_runtime_error(self, capsys):
        # p = 2 (beta = 1) has one physical state at every N: k = 1 cannot
        # be had on the dense route (N = 8, 10) either
        code, _, err = run(capsys, "loop", "--p", "2", "--nmin", "8", "--nmax", "10",
                           "--kmax", "1")
        assert code == 1
        assert "only 1 of the 2 requested physical states exist at N=8" in err
        code, out, _ = run(capsys, "loop", "--p", "2", "--nmin", "8", "--nmax", "10",
                           "--kmax", "0", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 2

    @pytest.mark.parametrize("argv, rows", [(("--nmin", "12", "--nmax", "16", "--kmax", "20"), 63),
                                            (("--nmin", "14", "--nmax", "16", "--kmax", "40"), 82)])
    def test_loop_large_kmax_below_n_18(self, capsys, argv, rows):
        # at kmax 20 and 40, eigsh's Lanczos space of 110 and 210 vectors
        # fits no p = 3 sector up to N = 16 (72 states), so dense eigh answers
        code, out, _ = run(capsys, "loop", "--p", "3", *argv, "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + rows

    @pytest.mark.parametrize("n", ["0", "7"])
    def test_slits_exponent_out_of_range(self, capsys, n):
        code, _, err = run(capsys, "pn", "--slits-exponent", n)
        assert code == 2
        assert err == "rectcft: slits-exponent must be in 1..6\n"

    def test_loop_empty_n_range(self, capsys):
        code, _, err = run(capsys, "loop", "--nmin", "20", "--nmax", "10")
        assert code == 2
        assert "no even N" in err

    @pytest.mark.parametrize("argv", [
        ("loop", "--p", "abc"),
        ("loop", "--p", "0"),
        ("loop", "--p", "1.5"),
        ("loop", "--p", "3.5"),
        ("amplitude", "--order", "4", "--at-c", "x"),
        ("amplitude", "--order", "4", "--at-c", "1/0"),
        ("ising", "--nmin", "0", "--nmax", "0"),
        ("ising", "--nmin", "6", "--nmax", "4"),
        ("majorana", "--g-table", "0", "0"),
        ("majorana", "--compare-virasoro", "--level", "0"),
        ("loop", "--kmax", "-1"),
        ("loop", "--nmin", "0", "--nmax", "4", "--kmax", "0"),
        ("fit", "--data", os.devnull, "--drop-first", "-1"),
        ("fit", "--data", os.devnull, "--basis", "N,foo"),
        ("fit", "--data", os.devnull, "--basis", "N"),
        ("majorana", "--g-table", "61", "0"),
        ("fit", "--data", os.devnull, "--basis", "1,1"),
    ])
    def test_bad_option_value_is_usage_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("rectcft: ")
        if argv == ("loop", "--p", "1.5"):
            assert err == "rectcft: --p '1.5': expected an integer >= 2 or inf\n"

    def test_arpack_failure_is_runtime_error(self, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise looplattice.spl.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(looplattice.spl, "eigsh", no_convergence)
        code, _, err = run(capsys, "loop", "--nmin", "18", "--nmax", "18", "--kmax", "1")
        assert code == 1
        assert err.startswith("rectcft: ")

    @pytest.mark.parametrize("exc, code", [
        pytest.param(exc, code, id=type(exc).__name__) for exc, code in (
            (cli.UsageError("bad value"), 2),
            (DivisibilityError("not divisible by c"), 3),
            (AssertionError("identity failed"), 3),
            (looplattice.DegenerateNormError("eigen-residual 1e-3"), 3),
            (looplattice.ShortfallError("only 1 of the 2"), 1),
            (looplattice.spl.ArpackNoConvergence("no convergence", [], []), 1),
            (ArithmeticError("minor -1.0"), 1),
            (FitError("too few points"), 1),
            (OSError("no such file"), 1))])
    def test_exit_code_by_error_class(self, capsys, monkeypatch, exc, code):
        def failing(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_boundary_state", failing)
        got, _, err = run(capsys, "boundary-state")
        assert got == code
        prefix = "rectcft: structural check failed: " if code == 3 else "rectcft: "
        assert err == f"{prefix}{exc}\n"

    @pytest.mark.parametrize("argv, module, attr, wrong, message", [
        pytest.param(("amplitude", "--order", "6"), virasoro, "product_amplitude",
                     lambda _, order: product_amplitude(1, order),
                     "amplitude does not match the eta power series", id="amplitude"),
        pytest.param(("gluing-check", "--nmax", "4", "--level", "8"), virasoro,
                     "boundary_state", lambda level: finitized_state(1, level),
                     "gluing residual failed to vanish", id="gluing-check"),
        pytest.param(("boson", "--amplitude-order", "4"), freefield, "boson_boundary_state",
                     boson_vacuum, "boson amplitude does not match eta^{-1/2}", id="boson"),
        pytest.param(("majorana", "--amplitude-order", "4"), freefield, "g_series",
                     lambda cutoff: GMatrix({}, cutoff),
                     "fermion amplitude does not match eta^{-1/4}", id="majorana"),
        pytest.param(("majorana", "--compare-virasoro", "--level", "4"), freefield, "g_series",
                     lambda cutoff: GMatrix({}, cutoff),
                     "fermion Virasoro product disagrees with coherent state",
                     id="majorana-compare-virasoro"),
        pytest.param(("majorana", "--g-table", "2", "2"), freefield, "_sqrt_one_minus_sq",
                     perturbed_sqrt,
                     "bivariate division by (u - v) left a remainder", id="majorana-g-table"),
        pytest.param(("slitmap", "--check"), slitmaps, "asymptotic_decay_slope",
                     lambda n: 0.0, "decay slope off at N=1: 0.0 vs -3", id="slitmap"),
        pytest.param(("pn", "--slits-exponent", "2", "--order", "4"), virasoro,
                     "product_amplitude", lambda n, order: Series("qhat", (1, 1), order=order),
                     "odd level 1 does not vanish", id="pn-odd-level"),
        pytest.param(("pn", "--slits-exponent", "2", "--order", "4"), virasoro,
                     "series_pow_c_ratio", lambda a: Series("q", (CONE, C), order=a.order),
                     "P_N coefficient of q^1 depends on c: c", id="pn-c-dependent")])
    def test_failed_identity_is_structural(self, capsys, monkeypatch, argv, module, attr,
                                           wrong, message):
        # each replacement breaks the identity its subcommand checks: the
        # N = 1 slit state for the boundary state, the vacuum for the boson
        # coherent state, a zero G table, a sqrt(1 - x^2) whose x^2
        # coefficient is off by one, a flat decay slope, an amplitude with an
        # odd level, a P_N coefficient linear in c
        monkeypatch.setattr(module, attr, wrong)
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert err == f"rectcft: structural check failed: {message}\n"

    def test_ising_minor_not_positive_is_runtime_error(self, capsys, monkeypatch):
        # a zero kernel gives the allowed state (1, 2) a zero minor
        kernel = ising._overlap_kernel
        monkeypatch.setattr(ising, "_overlap_kernel",
                            lambda n, m: (kernel(n, m)[0], np.zeros((m, m))))
        code, out, err = run(capsys, "ising", "--nmin", "2", "--nmax", "20", "--kmax", "3")
        assert (code, out) == (1, "")
        assert err == "rectcft: minor 0.0 of <B|(1, 2)> at N=20\n"

    def test_loop_arpack_shortfall_is_runtime_error(self, capsys):
        # p = 2 (beta = 1) has one physical state: its height basis holds
        # one path
        code, _, err = run(capsys, "loop", "--p", "2", "--nmin", "18", "--nmax", "18",
                           "--kmax", "1")
        assert code == 1
        assert "only 1 of the 2" in err and "structural" not in err

    def test_loop_large_kmax_from_n_18(self, capsys):
        # 256 physical states at N = 18, in sectors of 136 and 120: dense
        # eigh finds all 41
        code, out, _ = run(capsys, "loop", "--p", "3", "--nmin", "18", "--nmax", "18",
                           "--kmax", "40", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 41

    @pytest.mark.parametrize("argv", [("amplitude", "--order", "36"),
                                      ("majorana", "--amplitude-order", "10"),
                                      ("boundary-state",)])
    def test_csv_without_csv_form_is_usage_error(self, capsys, monkeypatch, argv):
        def not_reached(*args, **kwargs):
            raise AssertionError("the result was computed")

        monkeypatch.setattr(cli.virasoro, "product_amplitude", not_reached)
        monkeypatch.setattr(cli.virasoro, "boundary_state", not_reached)
        monkeypatch.setattr(cli.freefield, "fermion_amplitude", not_reached)
        code, _, err = run(capsys, *argv, "--format", "csv")
        assert code == 2
        assert f"rectcft: {argv[0]} has no CSV form" in err

