"""Golden CLI output: exit code and stdout of fixed commands, hashed.

Every number the CLI writes is a 17-significant-digit decimal, so the
output of these commands is fixed on one platform (Python, numpy and BLAS
build).  Each hash is the sha256 of ``b"<exit code>\\n" + stdout``.  A
change that alters any of these outputs is a change to the CLI contract
and updates the hash on purpose; a refactor or speed-up must leave all of
them alone.  The N = 4 and N = 8 commands read fiducial caches committed
under ``tests/data`` so no search runs.
"""

import hashlib
from pathlib import Path

import pytest

from simplex_decomp.cli import ENV_CACHE, main

DATA = Path(__file__).parent / "data"

GOLDEN = {
    ("decompose", "werner", "2", "--tau", "1", "--r", "1"):
        "d2813555ea23f5d9edaf108de934cd7abf05a37eab3673b5bc5c8c0ce0405eaf",
    ("decompose", "iso", "3", "--tau", "0.7", "--count", "4"):
        "9d697c22d87b6862c6b0418a0ee1c70d8767afeadc689e04d44c6947a029d577",
    ("decompose", "werner", "3", "--tau", "-0.5", "--count", "3"):
        "ac7dd2a773c98863fffe35ed8aba66997b29d8610d0d088b6233daa86bc774d8",
    ("sic", "3", "--verify"):
        "e71678ffac855266f83262f19644dec746b719b237e30a3d6539fb7d6faefaab",
    ("decompose", "werner", "4", "--tau", "0.5", "--count", "2",
     "--fiducial-cache", "fid4.json"):
        "8459138a132fefc70ef0acbcb5e4f02cdf69d15bb24d5074f7465a2edcdf036c",
    ("decompose", "iso", "8", "--tau", "0.25", "--count", "2",
     "--fiducial-cache", "fid8.json"):
        "345fa5027b2982b628039f74d34f2a24edb6a0bb3e270288512ce330597d0cf2",
}


def _argv(command):
    return [str(DATA / a) if a.endswith(".json") else a for a in command]


@pytest.mark.parametrize("command", list(GOLDEN), ids=" ".join)
def test_cli_output_is_byte_identical(command, capsys, monkeypatch):
    monkeypatch.delenv(ENV_CACHE, raising=False)
    code = main(_argv(command))
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(b"%d\n" % code + out).hexdigest() == GOLDEN[command]
