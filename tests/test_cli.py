import ast
import contextlib
import copy
import dataclasses
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplex_decomp import serialize
from simplex_decomp.cli import main, parse_n_list
from simplex_decomp.errors import DimensionMismatchError, ParameterRangeError
from simplex_decomp.params import (NonlocalityClass, ParamSet, RegionRow,
                                   StateClass, convert_params, harmonic_number)
from simplex_decomp.sicpovm import OPTIMIZED, TOLERANCES
from simplex_decomp.simplex import RegularSimplex


DATA = Path(__file__).parent / "data"


def fid4_with(**fields):
    """tests/data/fid4.json with some fields replaced."""
    return json.dumps({**json.loads((DATA / "fid4.json").read_text()), **fields})


MALFORMED_CACHES = {
    "invalid-json": '{bad',
    "missing-key": '{"N": 4, "seed": 0, "residual": 0.0}',
    # N and seed must be JSON integers, the seed at least 0.
    "float-N": fid4_with(N=4.7),
    "string-N": fid4_with(N="4"),
    "negative-seed": fid4_with(seed=-3),
    "float-seed": fid4_with(seed=2.9),
    "bool-seed": fid4_with(seed=True),
    # The residual must be a finite number, at least 0.
    "negative-residual": fid4_with(residual=-1e-30),
    "nan-residual": fid4_with(residual=float("nan")),
    "infinite-residual": fid4_with(residual=float("inf")),
    "string-residual": fid4_with(residual="0"),
}


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
        # Not N = 2: its Zauner subspace is the fiducial's own ray, so any
        # start succeeds at once.
        code, out, err = run_cli(capsys, "sic", "3", "--find", "--max-iters", "1")
        assert code == 2
        payload = json.loads(out)
        assert payload["success"] is False
        assert payload["residual"] > 0
        assert "fiducial search failed for N = 3 at seed 0" in err

    def test_truncated_search_exits_2_and_writes_no_cache(self, capsys, tmp_path):
        """Seed 0 at N = 4 stopped after 17 evaluations has a frame-potential
        excess under 1e-10, but a squared overlap still misses 1e-8."""
        cache = tmp_path / "f.json"
        code, out, err = run_cli(capsys, "sic", "4", "--find", "--seed", "0",
                                 "--max-iters", "17", "--cache", str(cache))
        assert code == 2
        assert json.loads(out)["success"] is False
        assert "fiducial search failed for N = 4 at seed 0" in err
        assert not cache.exists()

    def test_unwritable_cache_is_io_error(self, capsys):
        code, _, err = run_cli(capsys, "sic", "2", "--find",
                               "--cache", "/nonexistent-dir/fid.json")
        assert code == 3
        assert "cache" in err

    def test_verify_below_dimension_2_is_refused_by_dimension(self, capsys):
        code, out, err = run_cli(capsys, "sic", "1", "--verify")
        assert code == 5
        assert out == ""
        assert err == "dimension must be >= 2, got 1\n"

    def test_verify_corrupt_cache_fails(self, capsys, tmp_path):
        cache = tmp_path / "fid5.json"
        v = np.zeros(5, dtype=complex)
        v[0] = 1.0
        cache.write_text(json.dumps({
            "N": 5, "vector": [[z.real, z.imag] for z in v],
            "residual": 0.0, "seed": 0}))
        code, out, err = run_cli(capsys, "sic", "5", "--verify",
                                 "--cache", str(cache))
        assert code == 2
        assert json.loads(out)["ok"] is False
        assert "not equiangular" in err

    @pytest.mark.parametrize("text", MALFORMED_CACHES.values(), ids=MALFORMED_CACHES.keys())
    def test_verify_malformed_cache_exits_2(self, capsys, tmp_path, text):
        cache = tmp_path / "bad.json"
        cache.write_text(text)
        code, out, err = run_cli(capsys, "sic", "4", "--verify", "--cache", str(cache))
        assert code == 2
        assert out == ""
        assert "malformed" in err

    def test_cache_variable_is_not_read(self, capsys, tmp_path, monkeypatch):
        """A cache path comes only from the command's own flag."""
        argv = ("decompose", "werner", "4", "--tau", "0.1", "--r", "0.5",
                "--fiducial-cache", str(DATA / "fid4.json"))
        _, expected, _ = run_cli(capsys, *argv)
        bad = tmp_path / "bad.json"
        bad.write_text(MALFORMED_CACHES["invalid-json"])
        monkeypatch.setenv("SIMPLEX_DECOMP_CACHE", str(bad))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (0, expected, "")
        unset = tmp_path / "env.json"
        monkeypatch.setenv("SIMPLEX_DECOMP_CACHE", str(unset))
        code, out, _ = run_cli(capsys, "sic", "2", "--find")
        assert code == 0 and json.loads(out)["cache"] is None
        assert not unset.exists()


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

    def test_empty_admissible_set_exits_4(self, capsys, monkeypatch):
        """Under python -O too: no empty list on stdout with exit code 0."""
        monkeypatch.setattr(importlib.import_module("simplex_decomp.decompose"),
                            "admissible_r_interval", lambda dim, tau: [])
        code, out, err = run_cli(capsys, "decompose", "werner", "3", "--tau", "0.5")
        assert code == 4
        assert out == "" and "no admissible radius" in err

    def test_invalid_radius_exits_5_with_intervals(self, capsys):
        code, out, err = run_cli(capsys, "decompose", "werner", "2",
                                 "--tau", "1", "--r", "0.5")
        assert code == 5
        payload = json.loads(out)
        assert payload["admissible_r_intervals"] == [[-1, -1], [1, 1]]
        assert "nearest" in payload

    @pytest.mark.parametrize("r, out, message", [
        ("5", '{"admissible_r_intervals": [[0.076376261582597346, '
              '1.3093073414159542]], "nearest": 1.3093073414159542}\n',
         "nearest admissible value is 1.3093073414159542"),
        ("nan", "", "r = nan is not a number"),
    ], ids=["outside", "nan"])
    def test_radius_is_refused_before_any_sic(self, capsys, monkeypatch, r, out,
                                              message):
        def no_sic(*args, **kwargs):
            raise AssertionError("obtain_sic called for a refused radius")
        # Replaced wherever the package binds the name, the CLI included.
        for name in ("sicpovm", "cli"):
            monkeypatch.setattr(importlib.import_module(f"simplex_decomp.{name}"),
                                "obtain_sic", no_sic, raising=False)
        code, stdout, err = run_cli(capsys, "decompose", "werner", "7",
                                    "--tau", "0.1", "--r", r)
        assert code == 5
        assert stdout == out
        assert message in err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_is_refused_before_any_sic(self, capsys, monkeypatch, count):
        def no_sic(*args, **kwargs):
            raise AssertionError("obtain_sic called for a refused count")
        for name in ("sicpovm", "cli"):
            monkeypatch.setattr(importlib.import_module(f"simplex_decomp.{name}"),
                                "obtain_sic", no_sic, raising=False)
        code, stdout, err = run_cli(capsys, "decompose", "werner", "13",
                                    "--tau", "0.1", "--count", count)
        assert code == 5
        assert stdout == ""
        assert err == f"sample count must be >= 1, got {count}\n"

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

    @pytest.mark.parametrize("argv", [
        ("decompose", "werner", "5", "--tau", "0.1", "--fiducial-cache"),
        ("decompose", "werner", "12", "--tau", "0.1", "--count", "1", "--fiducial-cache"),
        ("sic", "12", "--verify", "--cache"),
    ], ids=["decompose-5", "decompose-12", "sic-verify-12"])
    def test_cache_for_another_dimension_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, str(DATA / "fid4.json"))
        assert code == 2
        assert out == ""
        assert "holds N = 4, not N = " in err
        assert "Traceback" not in err

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
        real = module._verify_contour
        monkeypatch.setattr(module, "_verify_contour",
                            lambda ds, target_tol: real(ds, target_tol=-1.0))
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
            "real = module._verify_contour\n"
            "module._verify_contour = lambda ds, target_tol: real(ds, target_tol=-1.0)\n"
            "sys.exit(main(['decompose', 'werner', '3', '--tau', '0.5', '--count', '2']))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert "certificate failed" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("text", MALFORMED_CACHES.values(), ids=MALFORMED_CACHES.keys())
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
        """All the radii are verified in one shared pass, each once."""
        module = importlib.import_module("simplex_decomp.decompose")
        real, calls = module._verify_contour, []

        def counting(ds, target_tol):
            calls.append([d.r for d in ds])
            return real(ds, target_tol=target_tol)
        monkeypatch.setattr(module, "_verify_contour", counting)
        code, out, _ = run_cli(capsys, "decompose", "werner", "3", "--tau", "0.5",
                               *argv)
        assert code == 0
        assert len(calls) == 1 and len(set(calls[0])) == len(calls[0]) == expected

    def test_failed_certificate_at_given_radius_writes_nothing(self, capsys,
                                                               monkeypatch):
        module = importlib.import_module("simplex_decomp.decompose")
        real = module._verify_contour
        monkeypatch.setattr(module, "_verify_contour",
                            lambda ds, target_tol: real(ds, target_tol=-1.0))
        code, out, err = run_cli(capsys, "decompose", "werner", "2", "--tau", "1",
                                 "--r", "1")
        assert code == 1
        assert out == ""
        assert "certificate failed" in err

    def test_given_tau_is_echoed_unchanged(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "werner", "3", "--tau", "0.1",
                               "--r", "1")
        assert code == 0
        assert json.loads(out)["tau"] == 0.1

    def test_unallocatable_request_exits_5(self, capsys, monkeypatch):
        def too_large(dim, tau, k):
            raise MemoryError("Unable to allocate 72.8 TiB for an array with shape "
                              "(10000000000000,) and data type float64")
        monkeypatch.setattr(importlib.import_module("simplex_decomp.decompose"),
                            "contour_radii", too_large)
        code, out, err = run_cli(capsys, "decompose", "werner", "3", "--tau", "0.1",
                                 "--count", "10000000000000")
        assert code == 5
        assert out == ""
        assert "Unable to allocate 72.8 TiB" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("decompose", "werner", "2", "--tau", "1", "--r", "1"),
        ("regions", "--n-list", "2"),
    ], ids=["decompose", "regions"])
    def test_unwritable_out_is_io_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--out", "/nonexistent-dir/out")
        assert code == 3
        assert out == ""
        assert "/nonexistent-dir/out" in err

    def test_byte_identical_across_runs(self, capsys):
        _, out1, _ = run_cli(capsys, "decompose", "werner", "3",
                             "--tau", "0.5", "--count", "3")
        _, out2, _ = run_cli(capsys, "decompose", "werner", "3",
                             "--tau", "0.5", "--count", "3")
        assert out1 == out2


def _records_in(obj):
    if isinstance(obj, (NonlocalityClass, ParamSet, RegionRow)):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [r for v in obj for r in _records_in(v)]
    return []


# A record is a named tuple, which ``dumps`` would write as a JSON list, so
# every payload holds a record's fields as a dict instead.
@pytest.mark.parametrize("argv, code", [
    ("classify werner 5 --tau 0.3", 0),
    ("classify werner 3 --tau -0.6666666666666666", 0),
    ("classify iso 7 --eta 0.3", 0),
    ("decompose werner 4 --tau -0.9", 4),
    ("decompose werner 3 --tau 0.5 --r 2", 5),
    ("decompose werner 2 --tau 1 --r 1", 0),
])
def test_no_record_reaches_dumps(capsys, monkeypatch, argv, code):
    payloads = []
    dumps = serialize.dumps
    monkeypatch.setattr(serialize, "dumps",
                        lambda obj: payloads.append(obj) or dumps(obj))
    assert run_cli(capsys, *argv.split())[0] == code
    assert payloads
    assert [r for p in payloads for r in _records_in(p)] == []


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
        with pytest.raises(DimensionMismatchError, match="dimension must be >= 2, got 1"):
            parse_n_list("1,2")
        with pytest.raises(ParameterRangeError):
            parse_n_list("...,5")
        with pytest.raises(ParameterRangeError, match="bad range '10,...,2'"):
            parse_n_list("10,...,2")
        with pytest.raises(ParameterRangeError, match="bad range '5,3,...,8'"):
            parse_n_list("5,3,...,8")

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

    @staticmethod
    def with_minima(rep, **minima):
        """A copy of ``rep`` whose ``min_eig_r`` / ``min_eig_s`` read the
        given values: the report's cached minima, set ahead of the read."""
        fake = copy.copy(rep)
        fake.__dict__.update(minima)
        return fake

    def test_exact_sic_factor_floor_is_gated_at_1e_9(self, capsys, monkeypatch):
        module = importlib.import_module("simplex_decomp.selftest")
        real = module.verify_decomposition
        monkeypatch.setattr(module, "verify_decomposition",
                            lambda d: self.with_minima(real(d), min_eig_r=-1e-8))
        code, out, _ = run_cli(capsys, "selftest", "--n-max", "2")
        assert code == 1
        assert "[FAIL] factor-positivity" in out
        assert "min factor eigenvalue -1.000e-08" in out

    def test_optimized_sic_factor_floor_is_gated_at_1e_9(self, capsys, monkeypatch):
        """The certificate's PSD_TOL holds for searched SICs too (N = 4)."""
        module = importlib.import_module("simplex_decomp.selftest")
        real = module.verify_decomposition

        def low_floor(d):
            rep = real(d)
            if d.simplex.tol == TOLERANCES[OPTIMIZED].certificate:
                rep = self.with_minima(rep, min_eig_r=-1e-7)
            return rep
        monkeypatch.setattr(module, "verify_decomposition", low_floor)
        code, out, _ = run_cli(capsys, "selftest", "--n-max", "4")
        assert code == 1
        assert "[FAIL] factor-positivity" in out
        assert "min factor eigenvalue -1.000e-07" in out

    def test_nan_report_fails_both_checks(self, capsys, monkeypatch):
        module = importlib.import_module("simplex_decomp.selftest")
        real, nan = module.verify_decomposition, float("nan")
        monkeypatch.setattr(module, "verify_decomposition", lambda d: self.with_minima(
            dataclasses.replace(real(d), reconstruction_error=nan), min_eig_r=nan, min_eig_s=nan))
        code, out, _ = run_cli(capsys, "selftest", "--n-max", "2")
        assert code == 1
        # Each fails on the NaN it reads, not on a crash of the fake.
        assert "raised" not in out
        assert re.search(r"\[FAIL\] reconstruction-fidelity +max reconstruction error nan ", out)
        assert re.search(r"\[FAIL\] factor-positivity +min factor eigenvalue nan\n", out)
        assert "selftest passed" not in out


class TestSelftestChecks:
    """The shared checks keep their bounds in one table, and the checks that
    print no number fail when the library value they read is wrong."""

    def test_no_float_literal_bound_outside_the_table(self):
        # The table holds no comparison, so every ordering comparison in the
        # module is outside it; 0 is a sign test, not a bound.
        path = Path(importlib.import_module("simplex_decomp.selftest").__file__)
        literals, compares = [], 0
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)):
                continue
            compares += 1
            for operand in (node.left, *node.comparators):
                if isinstance(operand, ast.UnaryOp):
                    operand = operand.operand
                if (isinstance(operand, ast.Constant) and isinstance(operand.value, float)
                        and operand.value != 0):
                    literals.append((node.lineno, operand.value))
        assert compares > 10
        assert literals == []

    def test_psd_window_fails_on_a_widened_interval(self, monkeypatch):
        module = importlib.import_module("simplex_decomp.selftest")
        real = module.psd_radius_bounds
        monkeypatch.setattr(module, "psd_radius_bounds",
                            lambda n: (real(n)[0] - 1e-2, real(n)[1] + 1e-2))
        assert module.check_pure_direction_psd_window(14, range(2, 4), 1)[0] is False

    def test_ppt_agreement_fails_on_one_flipped_verdict(self, monkeypatch):
        module = importlib.import_module("simplex_decomp.selftest")
        real, calls = module.classify_isotropic, []

        def flip_the_fifth(n, tau):
            verdict = real(n, tau)
            calls.append(tau)
            if len(calls) != 5:
                return verdict
            return verdict._replace(label=StateClass.STEERABLE
                                    if verdict.label is StateClass.SEPARABLE
                                    else StateClass.SEPARABLE)
        monkeypatch.setattr(module, "classify_isotropic", flip_the_fifth)
        ok, detail = module.check_ppt_classification_agreement(range(2, 3), 41)
        assert ok is False
        assert "isotropic" in detail

    @pytest.mark.parametrize("family, field, shift, reason", [
        ("isotropic", "frac_ent", 1e-9, "fractions sum to"),
        ("werner", "frac_sep", 2.0 ** -40, "separable fraction"),
    ])
    def test_region_fractions_fail_on_a_wrong_row(self, monkeypatch, family, field,
                                                  shift, reason):
        module = importlib.import_module("simplex_decomp.selftest")
        real = module.region_table

        def shifted(n):
            return [row._replace(**{field: getattr(row, field) + shift})
                    if row.family == family and n == 3 else row for row in real(n)]
        monkeypatch.setattr(module, "region_table", shifted)
        ok, detail = module.check_region_fractions(range(2, 5))
        assert ok is False
        assert f"{family} N = 3" in detail and reason in detail

    def test_sic_bloch_simplex_fails_on_a_tilted_vertex(self, registry_sics):
        # Inside the 1e-6 simplex tolerance, outside the check's 1e-8 bound.
        module = importlib.import_module("simplex_decomp.selftest")
        sic = registry_sics[2]
        vertices = sic.bloch.vertices.copy()
        vertices[0] += 1e-7 * vertices[1]
        vertices[0] /= np.linalg.norm(vertices[0])
        tilted = dataclasses.replace(sic, bloch=RegularSimplex(
            ambient_dim=3, vertices=vertices, tol=1e-6))
        assert module.check_sic_bloch_simplex([sic])[0] is True
        assert module.check_sic_bloch_simplex([tilted])[0] is False


class TestBadInput:
    """Malformed values of well-typed flags exit 5 without a traceback."""

    @pytest.mark.parametrize("argv", [
        ("regions", "--n-list", "abc"),
        ("regions", "--n-list", "3-x"),
        ("sic", "3", "--find", "--max-iters", "0"),
        ("sic", "2", "--find", "--seed", "-1"),
        ("sic", "3", "--verify", "--tol", "nan"),
        ("sic", "5", "--find", "--seed", "0", "--max-iters", "1", "--tol", "nan"),
        ("sic", "5", "--find", "--seed", "0", "--max-iters", "1", "--tol", "inf"),
        ("sic", "2", "--find", "--tol", "0"),
        ("decompose", "werner", "3", "--tau", "0.1", "--tol", "nan"),
        ("decompose", "werner", "3", "--tau", "0.1", "--tol=-1e-9"),
        # Neither command has a --tol: TOLERANCES alone gates them.
        ("sic", "3", "--verify", "--tol", "1e-12"),
        ("decompose", "werner", "3", "--tau", "0.1", "--tol", "1e-7"),
        ("selftest", "--n-max", "1"),
        ("selftest", "--n-max", "-5"),
        # Usage errors: argparse's reason, not its SystemExit(2).
        (),
        ("classify", "werner"),
        ("decompose", "foo", "3", "--tau", "0"),
        ("decompose", "werner", "3", "--tau", "abc"),
        ("decompose", "werner", "3", "--tau", "0.1", "--phi", "0.2"),
        ("sic", "3"),
        ("sic", "3", "--verify", "--bogus"),
        ("selftest", "--tol", "1e-9"),  # the selftest gates by the library's tolerances
        # Only sic and decompose read a fiducial cache.
        ("selftest", "--n-max", "2", "--fiducial-cache", "x"),
        # One radius or a sample count, never both.
        ("decompose", "werner", "3", "--tau", "0.5", "--r", "0.9", "--count", "0"),
        ("decompose", "werner", "3", "--tau", "0.5", "--count", "1", "--r", "0.9"),
        # A negative number in scientific notation reads as a flag.
        ("decompose", "werner", "3", "--tau", "-1e-17"),
    ], ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_exits_5_without_traceback(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 5
        assert out == ""
        assert "Traceback" not in err and err.strip()

    @pytest.mark.parametrize("argv, kind, name", [
        (("classify", "werner", "3", "--eta", "0.1"), "werner", "eta"),
        (("decompose", "iso", "3", "--phi", "0.1"), "iso", "phi"),
    ], ids=["werner-eta", "iso-phi"])
    def test_wrong_family_parameter_exits_5(self, capsys, argv, kind, name):
        """convert_params alone decides which family takes which parameter."""
        with pytest.raises(ParameterRangeError) as exc:
            convert_params(kind, 3, name, 0.1)
        code, out, err = run_cli(capsys, *argv)
        assert code == 5
        assert out == ""
        assert err == f"{exc.value}\n"

    @pytest.mark.parametrize("argv", [("--help",), ("sic", "--help")],
                             ids=" ".join)
    def test_help_still_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_usage_error_writes_no_cache(self, capsys, tmp_path):
        """A usage error (here ``--tol``, which no command takes) exits 5
        before the search runs, so ``sic --find`` writes no cache."""
        cache = tmp_path / "fid5.json"
        code, _, _ = run_cli(capsys, "sic", "5", "--find", "--max-iters", "1",
                             "--tol", "nan", "--cache", str(cache))
        assert code == 5
        assert not cache.exists()


class TestNanCache:
    """A cached vector holding NaN is refused, never certified."""

    @pytest.mark.parametrize("argv", [
        ("sic", "4", "--verify", "--cache"),
        ("decompose", "werner", "4", "--tau", "0.1", "--r", "0.5",
         "--fiducial-cache"),
    ], ids=["sic", "decompose"])
    def test_exits_with_its_code(self, capsys, tmp_path, argv):
        cache = tmp_path / "nan.json"
        cache.write_text('{"N": 4, "vector": [[NaN, 0], [0.5, 0], [0.5, 0], [0.5, 0]],'
                         ' "residual": 0, "seed": 0}')
        code, out, err = run_cli(capsys, *argv, str(cache))
        assert code == 2
        assert "Traceback" not in err
        assert out == "" and "malformed" in err


FID4 = str(DATA / "fid4.json")
PARAMS = ("tau", "phi", "alpha", "beta", "eta")


def _flag(draw, name, value):
    """``--name=value`` or, in some draws, ``--name value`` as two tokens."""
    text = repr(value) if isinstance(value, float) else str(value)
    return draw(st.sampled_from([[f"--{name}={text}"], [f"--{name}", text]]))


@st.composite
def cli_argv(draw):
    """argv for classify, decompose, sic and regions, mostly well-typed.

    Values are passed as ``--name=value`` or space-separated, so "-inf" or
    "-1e-05" may read as a flag, and some draws add an unknown flag.  Costs
    stay small: N <= 4 (N = 4 reads fid4.json), at most 4 samples, 50 search
    iterations and dimensions up to 60 in --n-list.
    """
    floats = st.floats()  # NaN, +-inf, subnormals and +-max included
    command = draw(st.sampled_from(["classify", "decompose", "sic", "regions"]))
    if command == "regions":
        token = st.one_of(
            st.integers(-3, 60).map(str),
            st.tuples(st.integers(-3, 60), st.integers(-3, 60)).map("%d-%d".__mod__),
            st.sampled_from(["...", "..", "abc", "3-x", "", "2.5"]))
        n_list = ",".join(draw(st.lists(token, max_size=6)))
        family = draw(st.sampled_from(["both", "werner", "iso", "isotropic"]))
        argv = ["regions", *_flag(draw, "family", family),
                *_flag(draw, "n-list", n_list)]
    else:
        n = str(draw(st.integers(-1, 4)))
        if command == "sic":
            if draw(st.booleans()):
                argv = ["sic", n, "--verify", f"--cache={FID4}"]
            else:
                argv = ["sic", n, "--find",
                        *_flag(draw, "seed", draw(st.integers(-2, 2**40))),
                        *_flag(draw, "max-iters", draw(st.integers(-1, 50)))]
        else:
            kind = draw(st.sampled_from(["werner", "iso", "isotropic"]))
            argv = [command, kind, n,
                    *_flag(draw, draw(st.sampled_from(PARAMS)), draw(floats))]
            if command == "decompose":
                if draw(st.booleans()):
                    argv += _flag(draw, "r", draw(floats))
                else:
                    argv += _flag(draw, "count", draw(st.integers(-1, 4)))
                argv.append(f"--fiducial-cache={FID4}")
    if draw(st.integers(0, 7)) == 0:
        argv.append("--bogus")
    return argv


@settings(max_examples=60, deadline=None)
@given(argv=cli_argv())
# s = tau/r far outside the PSD interval once crashed with a HermiticityError.
@example(argv=["decompose", "werner", "2", "--tau=1e-10",
               "--r=2.00088116740105e-262", f"--fiducial-cache={FID4}"])
@example(argv=["decompose", "werner", "3", "--tau", "-1e-05"])
@example(argv=["classify", "iso", "2", "--eta", "0.1", "--bogus"])
def test_every_invocation_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(6), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


class TestInstalledEntryPoint:
    def test_subprocess_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "simplex_decomp", "classify", "werner", "2",
             "--tau", "1"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": "0"})
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["class"] == "Separable"


class TestImportHygiene:
    """scipy's optimizer and statistics load only where they are used, numpy
    only where an array is, and the scalar commands load none of the stdlib
    modules that dataclasses and json bring in."""

    SLOW = ("scipy.optimize", "scipy.stats")
    # The numpy float-text kernel behind serialize.dumps.
    KERNEL = "simplex_decomp._floattext"
    # Not loaded by the scalar path beyond what the interpreter's start-up
    # (``site`` and any ``.pth`` file it runs) has loaded already.
    STDLIB = ("dataclasses", "inspect", "json")

    def _modules_after(self, code, watched=SLOW):
        """Modules under ``watched`` loaded once ``code`` has run in a fresh
        interpreter; they make the last line of its stderr."""
        script = code + (
            "\nimport sys\n"
            "print(*sorted(m for m in sys.modules\n"
            "              if '.'.join(m.split('.')[:2]) in %r), file=sys.stderr)\n"
            % (watched,))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout, proc.stderr.splitlines()[-1].split()

    @staticmethod
    def _cli(argv, code):
        """Script that runs the CLI as ``python -m simplex_decomp`` does."""
        return ("import runpy, sys\n"
                f"sys.argv = ['simplex_decomp', *{argv.split()!r}]\n"
                "try:\n"
                "    runpy.run_module('simplex_decomp', run_name='__main__', alter_sys=True)\n"
                "except SystemExit as exc:\n"
                f"    assert exc.code == {code}, exc.code\n")

    def _loaded_beyond_start_up(self, code, watched):
        """Modules under ``watched`` that ``code`` loads, less those of
        ``STDLIB`` that a bare interpreter has loaded before running
        anything."""
        _, bare = self._modules_after("pass", self.STDLIB)
        out, loaded = self._modules_after(code, watched)
        return out, [m for m in loaded if m not in bare]

    def test_cli_import_loads_neither(self):
        _, loaded = self._modules_after("import simplex_decomp.cli")
        assert loaded == []

    def test_cli_import_loads_no_dataclasses_inspect_or_json(self):
        _, loaded = self._loaded_beyond_start_up("import simplex_decomp.cli",
                                                 self.STDLIB)
        assert loaded == []

    def test_classify_command_loads_neither(self):
        out, loaded = self._modules_after(
            self._cli("classify werner 5 --tau 0.3", 0))
        assert json.loads(out)["class"] == "Separable"
        assert loaded == []

    def test_search_imports_the_optimizer_when_called(self):
        out, loaded = self._modules_after(
            "from simplex_decomp.sicpovm import Fiducial, find_fiducial\n"
            "print(isinstance(find_fiducial(4, seed=0), Fiducial))\n")
        assert out.strip() == "True"
        assert "scipy.optimize" in loaded

    def test_package_import_loads_no_numpy(self):
        _, loaded = self._modules_after("import simplex_decomp", ("numpy",))
        assert loaded == []

    @pytest.mark.parametrize("argv, code", [
        ("classify werner 5 --tau 0.3", 0),
        ("classify iso 7 --eta 0.3", 0),
        ("regions --n-list 2,3,...,40", 0),
        ("decompose werner 3 --tau abc", 5),
        ("decompose werner 4 --tau -0.9", 4),
        ("decompose werner 3 --tau 0.5 --r 2", 5),
        ("decompose werner 3 --tau 0.5 --r nan", 5),
        ("decompose werner 13 --tau 0.1 --count 0", 5),
    ])
    def test_scalar_command_loads_no_numpy(self, argv, code):
        _, loaded = self._loaded_beyond_start_up(
            self._cli(argv, code), ("numpy", self.KERNEL, *self.STDLIB))
        assert loaded == []

    def test_decompose_loads_numpy(self):
        _, loaded = self._modules_after(
            self._cli("decompose werner 2 --tau 1 --r 1", 0), ("numpy", self.KERNEL))
        assert loaded == ["numpy", self.KERNEL]

    def test_every_export_resolves(self):
        out, _ = self._modules_after(
            "import importlib, simplex_decomp\n"
            "homes = [importlib.import_module(f'simplex_decomp.{m}') for m in\n"
            "         ('blochspace', 'simplex', 'sicpovm', 'params', 'states',\n"
            "          'decompose')]\n"
            "for name in simplex_decomp.__all__:\n"
            "    value = getattr(simplex_decomp, name)\n"
            "    assert any(getattr(m, name, None) is value for m in homes), name\n"
            "assert simplex_decomp.decompose is homes[-1].decompose\n"
            "namespace = {}\n"
            "exec('from simplex_decomp import *', namespace)\n"
            "assert set(simplex_decomp.__all__) <= set(namespace)\n"
            "print('ok')\n")
        assert out.strip() == "ok"

    def test_all_is_the_exports_at_their_homes(self):
        import simplex_decomp
        exports = simplex_decomp._EXPORTS
        assert sorted(simplex_decomp.__all__) == sorted(
            name for names in exports.values() for name in names)
        for module, names in exports.items():
            for name in names:
                value = getattr(simplex_decomp, name)
                if callable(value):  # every class and function
                    assert value.__module__ == f"simplex_decomp.{module}", name
