"""The scalar math of ``params`` against the numpy forms it replaced, bit for
bit, and its records."""

import ast
from pathlib import Path

import numpy as np
import pytest

from simplex_decomp import blochspace, params, sicpovm, states
from simplex_decomp.cli import parse_n_list
from simplex_decomp.errors import DimensionMismatchError
from simplex_decomp.params import (REGION_CSV_HEADER, NonlocalityClass,
                                   ParamSet, RegionRow, StateClass, StateKind,
                                   harmonic_number, psd_radius_bounds,
                                   region_table)

# Every n up to 20000: four levels of pairwise halving and more, and every n
# around numpy's 8192-element buffer.  In increasing order consecutive n
# share their blocks, so the sweep takes about 2 s.
HARMONIC_NS = range(1, 20001)


def test_harmonic_number_matches_numpy_sum():
    got = [harmonic_number(n).hex() for n in HARMONIC_NS]
    want = [float(np.sum(1.0 / np.arange(1, n + 1))).hex() for n in HARMONIC_NS]
    assert got == want


def test_region_table_shares_harmonic_blocks(monkeypatch):
    # Reciprocals computed for the region tables of N = 2..4000: summed
    # afresh for each N they would be 2..4000, about 8e6 in all; shared,
    # they stay within two blocks of 128 per N.
    blocks = []
    block_sum = params._block_sum

    def counted(lo, n):
        blocks.append(n)
        return block_sum(lo, n)

    monkeypatch.setattr(params, "_block_sum", counted)
    params._reciprocal_sum.cache_clear()
    for n in range(2, 4001):
        region_table(n)
    assert sum(blocks) <= 2 * 128 * len(range(2, 4001))


def test_psd_radius_bounds_match_numpy_sqrt():
    for n in range(2, 10001):
        want = (-float(np.sqrt(2.0 / (n * (n - 1)))), float(np.sqrt(2.0 * (n - 1) / n)))
        assert [x.hex() for x in psd_radius_bounds(n)] == [x.hex() for x in want], n


def test_modules_import_from_params_only_what_they_use():
    # params is the one home of its names: no module re-exports one.
    for path in sorted(Path(params.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module == "params" for alias in node.names}
        assert imported <= used, (path.name, sorted(imported - used))


class TestRecords:
    def test_param_set_keywords_and_defaults(self):
        p = ParamSet(kind=StateKind.ISOTROPIC, dim=4, tau=0.5, eta=0.25)
        assert (p.kind, p.dim, p.tau, p.eta) == (StateKind.ISOTROPIC, 4, 0.5, 0.25)
        assert p.phi is p.alpha is p.beta is None
        assert p.as_dict() == {"family": "isotropic", "N": 4, "tau": 0.5, "eta": 0.25}

    def test_werner_param_set_as_dict(self):
        p = params.convert_params("werner", 3, "tau", 0.1)
        assert list(p.as_dict()) == ["family", "N", "tau", "phi", "alpha", "beta"]
        assert p.as_dict()["tau"] == 0.1 and p.eta is None

    def test_nonlocality_class_note_defaults_to_none(self):
        c = NonlocalityClass(label=StateClass.STEERABLE, boundaries={"tau_min": -3.0})
        assert c.note is None
        assert c.name == "Steerable"
        assert c.boundaries == {"tau_min": -3.0}

    @pytest.mark.parametrize("record, field", [
        (ParamSet(kind=StateKind.WERNER, dim=3, tau=0.1), "tau"),
        (NonlocalityClass(label=StateClass.SEPARABLE, boundaries={}), "note"),
        (region_table(3)[0], "frac_sep"),
    ])
    def test_fields_are_read_only(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)
        with pytest.raises(AttributeError):
            record.extra = 1.0

    def test_region_row_fields_follow_the_csv_header(self):
        header = REGION_CSV_HEADER.split(",")
        assert ["N" if f == "dim" else f for f in RegionRow._fields] == header
        row = region_table(5)[1]
        assert params.region_csv([row]).splitlines()[1].split(",")[:2] == ["isotropic", "5"]


@pytest.mark.parametrize("call", [
    lambda: params.check_dimension(1),
    lambda: params.psd_radius_bounds(1),
    lambda: params.convert_params("werner", 1, "tau", 0.0),
    lambda: params.separable_interval(1),
    lambda: sicpovm.wh_displacements(1),
    lambda: sicpovm.zauner_unitary(1),
    lambda: sicpovm.find_fiducial(1),
    lambda: sicpovm.known_fiducial(1),
    lambda: states.swap_operator(1),
    lambda: states.max_entangled_projector(1),
    lambda: blochspace.su_generators(1),
    lambda: parse_n_list("1"),
], ids=["check_dimension", "psd_radius_bounds", "convert_params",
        "separable_interval", "wh_displacements", "zauner_unitary",
        "find_fiducial", "known_fiducial", "swap_operator",
        "max_entangled_projector", "su_generators", "parse_n_list"])
def test_every_dimension_floor_is_check_dimension(call):
    with pytest.raises(DimensionMismatchError) as err:
        call()
    assert str(err.value) == "dimension must be >= 2, got 1"


@pytest.mark.parametrize("call", [
    lambda: params.check_dimension(2.0),
    lambda: params.check_dimension(2.5),
    lambda: params.classify("werner", 2.5, 0.1),
    lambda: params.separable_interval(2.5),
    lambda: params.psd_radius_bounds(3.0),
    lambda: states.werner_density(2.5, phi=0.1),
    lambda: params.region_table(2.5),
    # A cached function is first called with an equal numpy integer, whose
    # cache key an untyped cache would share with the float.
    lambda: sicpovm.wh_displacements(np.int64(3)) is sicpovm.wh_displacements(3.0),
    lambda: sicpovm.zauner_unitary(np.int64(3)) is sicpovm.zauner_unitary(3.0),
    lambda: blochspace.su_generators(np.int64(3)) is blochspace.su_generators(3.0),
], ids=["check_dimension-2.0", "check_dimension-2.5", "classify", "separable_interval",
        "psd_radius_bounds", "werner_density", "region_table", "wh_displacements",
        "zauner_unitary", "su_generators"])
def test_a_float_dimension_is_refused(call):
    with pytest.raises(DimensionMismatchError, match="dimension must be an integer, got"):
        call()


@pytest.mark.parametrize("n", [np.int64(3), np.int32(3), np.intp(3)])
def test_numpy_integer_dimensions_pass(n):
    params.check_dimension(n)
    assert params.separable_interval(n) == params.separable_interval(3)
