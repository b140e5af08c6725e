"""Golden CLI output: exit code and stdout of fixed commands, hashed.

Every number the CLI writes is a 17-significant-digit decimal, so the
output of these commands is fixed on one platform (Python, numpy and BLAS
build).  Each hash is the sha256 of ``b"<exit code>\\n" + stdout``.  A
change that alters any of these outputs is a change to the CLI contract
and updates the hash on purpose; a refactor or speed-up must leave all of
them alone.  The N = 4, 8 and 12 commands read fiducial caches committed
under ``tests/data`` so no search runs; the selftest uses registry SICs only.
"""

import hashlib
from pathlib import Path

import pytest

from simplex_decomp.cli import main
from simplex_decomp.sicpovm import load_fiducial_cache, save_fiducial_cache

DATA = Path(__file__).parent / "data"

GOLDEN = {
    ("decompose", "werner", "2", "--tau", "1", "--r", "1"):
        "d2813555ea23f5d9edaf108de934cd7abf05a37eab3673b5bc5c8c0ce0405eaf",
    ("decompose", "iso", "3", "--tau", "0.7", "--count", "4"):
        "4ff0cb16c15e407fb3b8b190312fbb72caec3774ce0c1a8b82aa01eb4771a21e",
    ("decompose", "werner", "3", "--tau", "-0.5", "--count", "3"):
        "ac7dd2a773c98863fffe35ed8aba66997b29d8610d0d088b6233daa86bc774d8",
    ("sic", "3", "--verify"):
        "e71678ffac855266f83262f19644dec746b719b237e30a3d6539fb7d6faefaab",
    ("sic", "4", "--find", "--seed", "0"):
        "4df124d366defb24c1c8cda5ac6231b08fde81098c3c1bf9c9939459c28a20d3",
    ("decompose", "werner", "4", "--tau", "0.5", "--count", "2",
     "--fiducial-cache", "fid4.json"):
        "8459138a132fefc70ef0acbcb5e4f02cdf69d15bb24d5074f7465a2edcdf036c",
    ("decompose", "iso", "8", "--tau", "0.25", "--count", "2",
     "--fiducial-cache", "fid8.json"):
        "345fa5027b2982b628039f74d34f2a24edb6a0bb3e270288512ce330597d0cf2",
    ("decompose", "werner", "12", "--tau", "0.1", "--count", "4",
     "--fiducial-cache", "fid12.json"):
        "5ad741abdd6f8abfddec23a789cdc5962d2f6ee59e55be4742b3ed7cade65dce",
    ("classify", "werner", "5", "--tau", "0.3"):
        "55198593f6935e58075ce827d8ad1244fbe89a559897144404b2c47575d39393",
    ("regions", "--family", "both", "--n-list", "2,3,...,40"):
        "eaea1cee4826c022bcb700812ee7c104fef2110c4eda152be3281a6239107d23",
    ("selftest", "--n-max", "3"):
        "30260c069d902dad5375491937da93e77f009a831abd71e2e698f4440794830b",
}


def _argv(command):
    return [str(DATA / a) if a.endswith(".json") else a for a in command]


@pytest.mark.parametrize("command", list(GOLDEN), ids=" ".join)
def test_cli_output_is_byte_identical(command, capsys):
    code = main(_argv(command))
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(b"%d\n" % code + out).hexdigest() == GOLDEN[command]


@pytest.mark.parametrize("name", ["fid4.json", "fid8.json", "fid12.json"])
def test_fiducial_cache_rewrites_byte_identical(name, tmp_path):
    copy = tmp_path / name
    save_fiducial_cache(copy, load_fiducial_cache(DATA / name))
    assert copy.read_bytes() == (DATA / name).read_bytes()
