import json
import os

import pytest

from rectcft import looplattice
from rectcft.cli import build_parser, main


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

    def test_majorana_table_csv(self, capsys):
        code, out, _ = run(capsys, "majorana", "--g-table", "1", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,n,G_mn"
        assert "1,2,5/8" in lines

    def test_majorana_compare_virasoro(self, capsys):
        code, out, _ = run(capsys, "majorana", "--compare-virasoro", "--level", "6")
        assert code == 0
        assert json.loads(out)["virasoro_product_equals_coherent"] is True

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

    def test_link_basis_built_once_per_n(self, capsys, monkeypatch, tmp_path):
        enumerate_links, calls = looplattice.enumerate_links, []

        def counting(n_sites):
            calls.append(n_sites)
            return enumerate_links(n_sites)

        looplattice.link_basis.cache_clear()
        monkeypatch.setattr(looplattice, "enumerate_links", counting)
        code, _, _ = run(capsys, "loop", "--p", "3,inf", "--nmin", "8", "--nmax", "18",
                         "--kmax", "1", "--out", str(tmp_path / "loop.csv"))
        assert code == 0
        assert calls == [8, 10, 12, 14, 16, 18]

    def test_ising_csv(self, capsys, tmp_path):
        table = tmp_path / "ising.csv"
        code, _, _ = run(capsys, "ising", "--nmin", "2", "--nmax", "40",
                         "--kmax", "3", "--out", str(table))
        assert code == 0
        lines = table.read_text().strip().splitlines()
        assert lines[0] == "N,k,h_label,overlap"


class TestDeterminism:
    def test_identical_runs_byte_identical(self, capsys):
        # the loop run covers the dense (N <= 16) and ARPACK paths; its
        # second run reuses the cached link bases
        for argv in (("pn", "--slits-exponent", "2", "--order", "6"),
                     ("loop", "--p", "3", "--nmin", "14", "--nmax", "18", "--kmax", "1",
                      "--format", "csv")):
            _, out1, _ = run(capsys, *argv)
            _, out2, _ = run(capsys, *argv)
            assert out1 == out2


class TestErrorPaths:
    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["amplitude", "--bogus"])
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

    def test_fit_missing_data(self, capsys):
        code, _, err = run(capsys, "fit")
        assert code == 2

    def test_loop_empty_n_range(self, capsys):
        code, _, err = run(capsys, "loop", "--nmin", "20", "--nmax", "10")
        assert code == 2
        assert "no even N" in err

    def test_arpack_failure_is_runtime_error(self, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise looplattice.spl.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(looplattice.spl, "eigs", no_convergence)
        code, _, err = run(capsys, "loop", "--nmin", "18", "--nmax", "18", "--kmax", "1")
        assert code == 1
        assert err.startswith("rectcft: ")

    def test_loop_arpack_shortfall_is_runtime_error(self, capsys):
        code, _, err = run(capsys, "loop", "--p", "3", "--nmin", "18", "--nmax", "18",
                           "--kmax", "40")
        assert code == 1
        assert "ARPACK" in err and "structural" not in err


class TestSelftests:
    @pytest.mark.parametrize("name", ["boundary-state", "amplitude", "slitmap",
                                      "boson", "majorana", "loop", "fit", "ising"])
    def test_selftest_passes(self, capsys, name):
        code, out, _ = run(capsys, name, "--selftest")
        assert code == 0
        assert "FAIL" not in out
