import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from simplex_decomp.cli import main, parse_n_list
from simplex_decomp.errors import ParameterRangeError
from simplex_decomp.states import harmonic_number


MALFORMED_CACHES = ['{bad', '{"N": 4, "seed": 0, "residual": 0.0}']


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSic:
    def test_find_qubit(self, capsys, tmp_path):
        cache = tmp_path / "fid2.json"
        code, out, _ = run_cli(capsys, "sic", "2", "--find", "--seed", "1",
                               "--cache", str(cache))
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] <= 1e-10
        assert payload["success"] is True
        assert cache.exists()
        cached = json.loads(cache.read_text())
        assert cached["N"] == 2 and len(cached["vector"]) == 2

    def test_verify_registry_qutrit(self, capsys):
        code, out, _ = run_cli(capsys, "sic", "3", "--verify")
        assert code == 0
        payload = json.loads(out)
        assert payload["max_overlap_deviation"] <= 1e-12
        assert payload["provenance"] == "exact-registry"

    def test_find_failure_with_single_iteration(self, capsys):
        code, out, _ = run_cli(capsys, "sic", "2", "--find", "--max-iters", "1")
        assert code == 2
        payload = json.loads(out)
        assert payload["success"] is False
        assert payload["residual"] > 0

    def test_unwritable_cache_is_io_error(self, capsys):
        code, _, err = run_cli(capsys, "sic", "2", "--find",
                               "--cache", "/nonexistent-dir/fid.json")
        assert code == 3
        assert "cache" in err

    def test_verify_corrupt_cache_fails(self, capsys, tmp_path):
        cache = tmp_path / "fid5.json"
        v = np.zeros(5, dtype=complex)
        v[0] = 1.0
        cache.write_text(json.dumps({
            "N": 5, "vector": [[z.real, z.imag] for z in v],
            "residual": 0.0, "seed": 0}))
        code, out, _ = run_cli(capsys, "sic", "5", "--verify",
                               "--cache", str(cache))
        assert code == 2
        assert json.loads(out)["ok"] is False

    @pytest.mark.parametrize("text", MALFORMED_CACHES, ids=["invalid-json", "missing-key"])
    def test_verify_malformed_cache_exits_2(self, capsys, tmp_path, text):
        cache = tmp_path / "bad.json"
        cache.write_text(text)
        code, out, err = run_cli(capsys, "sic", "4", "--verify", "--cache", str(cache))
        assert code == 2
        assert out == ""
        assert "malformed" in err

    def test_env_var_overrides_cache_flag(self, capsys, tmp_path, monkeypatch):
        env_cache = tmp_path / "env.json"
        monkeypatch.setenv("SIMPLEX_DECOMP_CACHE", str(env_cache))
        code, _, _ = run_cli(capsys, "sic", "2", "--find",
                             "--cache", str(tmp_path / "flag.json"))
        assert code == 0
        assert env_cache.exists()
        assert not (tmp_path / "flag.json").exists()


class TestDecompose:
    def test_qubit_corner_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "werner", "2",
                               "--tau", "1", "--r", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "werner"
        assert payload["N"] == 2
        assert payload["report"]["separable_certificate"] is True
        assert len(payload["factors"]) == 4
        assert payload["simplex"]["ambient_dim"] == 3

    def test_non_separable_exits_4(self, capsys):
        code, out, err = run_cli(capsys, "decompose", "werner", "2", "--tau", "-2")
        assert code == 4
        assert json.loads(out)["class"] == "Steerable"

    def test_invalid_radius_exits_5_with_intervals(self, capsys):
        code, out, err = run_cli(capsys, "decompose", "werner", "2",
                                 "--tau", "1", "--r", "0.5")
        assert code == 5
        payload = json.loads(out)
        assert payload["admissible_r_intervals"] == [[-1, -1], [1, 1]]
        assert "nearest" in payload

    def test_multi_sample_isotropic(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "iso", "3",
                               "--eta", "0.2", "--count", "4")
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload, list) and len(payload) == 4
        assert all(d["report"]["separable_certificate"] for d in payload)
        assert all(d["kind"] == "isotropic" for d in payload)

    def test_eta_on_werner_rejected(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "werner", "2", "--eta", "0.2")
        assert code == 5

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "d.json"
        code, out, _ = run_cli(capsys, "decompose", "werner", "2",
                               "--phi", "0.8", "--out", str(out_path))
        assert code == 0
        assert out == ""
        payload = json.loads(out_path.read_text())
        assert payload["report"]["separable_certificate"] is True

    def test_fiducial_cache_flag_feeds_the_decomposition(self, capsys, tmp_path):
        cache = tmp_path / "fid4.json"
        code, _, _ = run_cli(capsys, "sic", "4", "--find", "--seed", "0",
                             "--cache", str(cache))
        assert code == 0
        code, out, _ = run_cli(capsys, "decompose", "iso", "4", "--eta", "0.1",
                               "--fiducial-cache", str(cache))
        assert code == 0
        assert json.loads(out)["report"]["separable_certificate"] is True

    def test_nan_radius_exits_5_without_traceback(self, capsys):
        code, out, err = run_cli(capsys, "decompose", "werner", "3",
                                 "--tau", "0.5", "--r", "nan")
        assert code == 5
        assert out == ""
        assert "not a number" in err

    def test_infinite_radius_reports_the_upper_endpoint(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "werner", "3",
                               "--tau", "-0.3", "--r", "inf")
        assert code == 5
        assert json.loads(out)["nearest"] == pytest.approx(2.0 / np.sqrt(3.0), abs=1e-15)

    def test_failed_certificate_exits_1(self, capsys, monkeypatch):
        module = importlib.import_module("simplex_decomp.decompose")
        real = module.verify_decomposition
        monkeypatch.setattr(module, "verify_decomposition",
                            lambda d, target_tol: real(d, target_tol=-1.0))
        code, out, err = run_cli(capsys, "decompose", "werner", "3",
                                 "--tau", "0.5", "--count", "2")
        assert code == 1
        assert out == ""
        assert "certificate failed" in err

    def test_failed_certificate_exits_1_under_python_O(self):
        script = (
            "import importlib, sys\n"
            "from simplex_decomp.cli import main\n"
            "if not sys.flags.optimize:\n"
            "    sys.exit(99)\n"
            "module = importlib.import_module('simplex_decomp.decompose')\n"
            "real = module.verify_decomposition\n"
            "module.verify_decomposition = lambda d, target_tol: real(d, target_tol=-1.0)\n"
            "sys.exit(main(['decompose', 'werner', '3', '--tau', '0.5', '--count', '2']))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert "certificate failed" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("text", MALFORMED_CACHES, ids=["invalid-json", "missing-key"])
    def test_malformed_fiducial_cache_exits_2(self, capsys, tmp_path, text):
        cache = tmp_path / "bad.json"
        cache.write_text(text)
        code, out, err = run_cli(capsys, "decompose", "werner", "4", "--tau", "0.3",
                                 "--fiducial-cache", str(cache))
        assert code == 2
        assert out == ""
        assert "malformed" in err

    def test_search_failure_exits_2(self, capsys, monkeypatch):
        module = importlib.import_module("simplex_decomp.sicpovm")
        monkeypatch.setattr(module, "find_fiducial",
                            lambda dim, seed=0: module.FiducialSearchFailure(
                                dim=dim, seed=seed, iterations=1, best_residual=1.0))
        code, out, err = run_cli(capsys, "decompose", "werner", "7", "--tau", "0.1")
        assert code == 2
        assert out == ""
        assert "fiducial search failed for N = 7 over seeds 0..19" in err

    def test_endpoint_ulps_outside_is_still_separable(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "werner", "3",
                               "--tau", "-0.66666666666666685", "--count", "2")
        assert code == 0
        assert all(d["report"]["separable_certificate"] for d in json.loads(out))

    @pytest.mark.parametrize("argv, expected", [
        (("--count", "4"), 4),
        (("--r", "1"), 1),
    ])
    def test_each_decomposition_is_verified_once(self, capsys, monkeypatch,
                                                 argv, expected):
        real = importlib.import_module("simplex_decomp.decompose").verify_decomposition
        calls = []

        def counting(d, target_tol):
            calls.append(d.r)
            return real(d, target_tol=target_tol)
        # Counted wherever the package binds the name, the CLI included.
        for name in ("decompose", "cli"):
            monkeypatch.setattr(importlib.import_module(f"simplex_decomp.{name}"),
                                "verify_decomposition", counting, raising=False)
        code, out, _ = run_cli(capsys, "decompose", "werner", "3", "--tau", "0.5",
                               *argv)
        assert code == 0
        assert len(calls) == expected

    def test_failed_certificate_at_given_radius_writes_nothing(self, capsys):
        code, out, err = run_cli(capsys, "decompose", "werner", "2", "--tau", "1",
                                 "--r", "1", "--tol", "1e-30")
        assert code == 1
        assert out == ""
        assert "certificate failed" in err

    def test_byte_identical_across_runs(self, capsys):
        _, out1, _ = run_cli(capsys, "decompose", "werner", "3",
                             "--tau", "0.5", "--count", "3")
        _, out2, _ = run_cli(capsys, "decompose", "werner", "3",
                             "--tau", "0.5", "--count", "3")
        assert out1 == out2


class TestClassify:
    def test_isotropic_example(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "iso", "2", "--eta", "0.4")
        assert code == 0
        payload = json.loads(out)
        assert payload["class"] == "EntangledUnsteerable"
        assert abs(payload["boundaries"]["harmonic_number"] - 1.5) < 1e-15
        assert payload["params"]["eta"] == 0.4

    def test_werner_phi_positive_is_separable(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "werner", "5", "--phi", "0.5")
        assert code == 0
        assert json.loads(out)["class"] == "Separable"

    def test_out_of_range_exits_5(self, capsys):
        code, _, err = run_cli(capsys, "classify", "werner", "2", "--tau", "99")
        assert code == 5

    def test_boundaries_include_thresholds(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "werner", "2", "--tau", "-1.2")
        payload = json.loads(out)
        assert payload["class"] == "EntangledUnsteerable"
        assert payload["boundaries"]["tau_steer"] == -1.5
        assert payload["boundaries"]["tau_sep_lo"] == -1


class TestRegions:
    def test_ellipsis_n_list(self):
        assert parse_n_list("2,3,...,10") == list(range(2, 11))
        assert parse_n_list("2-6") == [2, 3, 4, 5, 6]
        assert parse_n_list("2,4,...,12") == [2, 4, 6, 8, 10, 12]
        assert parse_n_list("3") == [3]
        with pytest.raises(ParameterRangeError):
            parse_n_list("1,2")
        with pytest.raises(ParameterRangeError):
            parse_n_list("...,5")

    def test_both_families_dim2(self, capsys):
        code, out, _ = run_cli(capsys, "regions", "--n-list", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("family,N,")
        assert len(lines) == 3

    def test_dim100_isotropic_steerable_fraction(self, capsys):
        code, out, _ = run_cli(capsys, "regions", "--family", "iso",
                               "--n-list", "100")
        lines = out.strip().split("\n")
        frac_steer = float(lines[1].split(",")[-1])
        expected = 101.0 * (100.0 - harmonic_number(100)) / 10000.0
        assert abs(frac_steer - expected) <= 1e-15
        assert abs(frac_steer - 0.9576) < 1e-3

    def test_werner_separable_fraction_always_half(self, capsys):
        code, out, _ = run_cli(capsys, "regions", "--family", "werner",
                               "--n-list", "2,3,...,40")
        for line in out.strip().split("\n")[1:]:
            assert float(line.split(",")[6]) == 0.5

    def test_csv_out_file(self, capsys, tmp_path):
        path = tmp_path / "regions.csv"
        code, out, _ = run_cli(capsys, "regions", "--n-list", "2,3",
                               "--out", str(path))
        assert code == 0
        assert path.read_text().startswith("family,N,")


class TestSelftest:
    def test_passes_at_n_max_3_under_a_minute(self, capsys):
        import time
        start = time.monotonic()
        code, out, _ = run_cli(capsys, "selftest", "--n-max", "3")
        assert time.monotonic() - start < 60.0
        assert code == 0
        assert "[PASS] sic-overlap" in out
        assert "selftest passed" in out
        assert "[FAIL]" not in out

    def test_passes_at_n_max_4_with_searched_fiducial(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--n-max", "4")
        assert code == 0
        assert "N=4" in out

    def test_passes_at_n_max_6(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--n-max", "6")
        assert code == 0, out
        assert "[PASS] ppt-classification-agreement" in out

    def test_corrupted_cache_names_overlap_check(self, capsys, tmp_path):
        cache = tmp_path / "bad.json"
        v = np.ones(3, dtype=complex) / np.sqrt(3.0)
        cache.write_text(json.dumps({
            "N": 3, "vector": [[z.real, z.imag] for z in v],
            "residual": 0.0, "seed": 0}))
        code, out, _ = run_cli(capsys, "selftest", "--n-max", "2",
                               "--fiducial-cache", str(cache))
        assert code == 1
        assert "[FAIL] sic-overlap" in out
        assert "first failing invariant: sic-overlap" in out


class TestInstalledEntryPoint:
    def test_subprocess_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "simplex_decomp", "classify", "werner", "2",
             "--tau", "1"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": "0"})
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["class"] == "Separable"
