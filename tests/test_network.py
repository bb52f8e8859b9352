"""Grid document parsing, validation diagnostics, and Laplacian assembly."""

import json

import numpy as np
import pytest

from dcgrid import SpecError, build_admittance, check_connected, load_network, parse_network
from conftest import TABLE1


def test_reference_grid_parses(table1_spec):
    spec = table1_spec
    assert spec.n == 4 and spec.m == 6
    assert [s.id for s in spec.sources] == ["1", "2", "3", "4"]
    assert [l.id for l in spec.loads] == ["5", "6", "7", "8", "9", "10"]
    assert spec.control.u_ref == 89.64
    assert spec.control.b == 1e-3
    np.testing.assert_allclose(spec.k_diag(), np.ones(4))
    np.testing.assert_allclose(spec.c_diag(), [2e-3, 2e-3, 2e-3, 2.5e-3])
    np.testing.assert_allclose(spec.p_vector(), [1000, 1000, 1000, 500, 500, 500])


def test_load_network_reads_file():
    spec = load_network(TABLE1)
    assert spec.n == 4 and spec.m == 6


def test_load_network_rejects_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecError):
        load_network(bad)


def _mutate(doc, fn):
    copy = json.loads(json.dumps(doc))
    fn(copy)
    return copy


@pytest.mark.parametrize("mutate, needle", [
    (lambda d: d.pop("sources"), "sources"),
    (lambda d: d.pop("control"), "control"),
    (lambda d: d["sources"][0].pop("V"), "sources[0].V"),
    (lambda d: d["sources"][1].update(L=-1), "sources[1].L"),
    (lambda d: d["sources"][2].update(C=0), "sources[2].C"),
    (lambda d: d["sources"][3].update(k=0), "sources[3].k"),
    (lambda d: d["loads"][0].update(P=-5), "loads[0].P"),
    (lambda d: d["loads"][1].update(id=d["loads"][0]["id"]), "id"),
    (lambda d: d["lines"][0].update(r=-1), "lines[0].r"),
    (lambda d: d["lines"][0].update(b=d["lines"][0]["a"]), "lines[0]"),
    (lambda d: d["lines"][2].update(a="ghost"), "lines[2]"),
    (lambda d: d["control"].update(u_ref=0), "control.u_ref"),
    (lambda d: d["control"].update(b=-1e-3), "control.b"),
    (lambda d: d["sources"][0].update(id=[1]), "sources[0].id"),
    (lambda d: d["loads"][2].update(id={"n": 7}), "loads[2].id"),
    (lambda d: d["loads"][0].update(id=True), "loads[0].id"),
    (lambda d: d["sources"][1].update(id=2.0), "sources[1].id"),
    (lambda d: d["lines"][1].update(a=[1]), "lines[1].a"),
    (lambda d: d["lines"][3].update(b={"n": 7}), "lines[3].b"),
])
def test_validation_diagnostics_carry_field_paths(table1_doc, mutate, needle):
    with pytest.raises(SpecError) as err:
        parse_network(_mutate(table1_doc, mutate))
    assert needle in str(err.value)


@pytest.mark.parametrize("value", [True, "1", float("nan"), float("inf"), float("-inf"),
                                   pytest.param(10**400, id="int-1e400")])
@pytest.mark.parametrize("part, key", [("sources", "V"), ("sources", "L"), ("sources", "C"),
                                       ("sources", "k"), ("loads", "P"), ("lines", "r"),
                                       ("control", "u_ref"), ("control", "b")])
def test_malformed_numbers_rejected_with_field_path(table1_doc, part, key, value):
    def mutate(d):
        (d[part] if part == "control" else d[part][1])[key] = value

    field = f"control.{key}" if part == "control" else f"{part}[1].{key}"
    with pytest.raises(SpecError) as err:
        parse_network(_mutate(table1_doc, mutate))
    assert field in str(err.value)


def test_parallel_lines_rejected(table1_doc):
    doc = _mutate(table1_doc, lambda d: d["lines"].append({"a": "1", "b": "5", "r": 0.3}))
    with pytest.raises(SpecError):
        parse_network(doc)


def test_load_only_grid_rejected(table1_doc):
    with pytest.raises(SpecError):
        parse_network(_mutate(table1_doc, lambda d: d.update(sources=[])))


def test_reference_grid_is_a_spanning_tree(table1_doc, table1_spec):
    # 10 nodes, 9 lines: removing any one line must disconnect the graph
    assert check_connected(table1_spec)
    for drop in range(len(table1_doc["lines"])):
        doc = _mutate(table1_doc, lambda d: d["lines"].pop(drop))
        with pytest.raises(SpecError):  # parse re-checks connectivity
            parse_network(doc)


def test_disconnected_components_detected(table1_doc, table1_spec):
    # rewiring line 6-7 onto 1-6 strands the component {2, 3, 7, 8}
    doc = _mutate(table1_doc, lambda d: d["lines"].__setitem__(
        3, {"a": "1", "b": "6", "r": 0.2}))
    with pytest.raises(SpecError) as err:
        parse_network(doc)
    assert "connected" in str(err.value)
    # check_connected itself, on a spec assembled without validation
    import dataclasses
    cut = dataclasses.replace(table1_spec, lines=table1_spec.lines[1:])
    assert not check_connected(cut)


def test_admittance_is_a_laplacian(table1_partition):
    Y = table1_partition.Y
    np.testing.assert_allclose(Y, Y.T)
    np.testing.assert_allclose(Y @ np.ones(10), 0.0, atol=1e-12)
    off = Y - np.diag(np.diag(Y))
    assert np.all(off <= 0)


def test_partition_blocks_match_ordering(table1_spec, table1_partition):
    # node order: the sources in document order, then the loads
    p = table1_partition
    assert [s.id for s in table1_spec.sources] == ["1", "2", "3", "4"]
    assert [l.id for l in table1_spec.loads] == ["5", "6", "7", "8", "9", "10"]
    src, lod = range(4), range(4, 10)
    np.testing.assert_allclose(p.Y[np.ix_(src, src)], p.Y_SS)
    np.testing.assert_allclose(p.Y[np.ix_(src, lod)], p.Y_SL)
    np.testing.assert_allclose(p.Y_SL, p.Y_LS.T)
    np.testing.assert_allclose(p.Y[np.ix_(lod, lod)], p.Y_LL)


def test_line_conductances_stamped(table1_partition):
    Y = table1_partition.Y
    # node order: sources 1..4 then loads 5..10
    assert Y[0, 4] == pytest.approx(-1.0)     # r_15 = 1
    assert Y[4, 5] == pytest.approx(-1.0)     # r_56 = 1
    assert Y[5, 6] == pytest.approx(-5.0)     # r_67 = 0.2
    assert Y[1, 7] == pytest.approx(-5.0)     # r_28 = 0.2
    assert Y[6, 7] == pytest.approx(-2.0)     # r_78 = 0.5
    assert Y[3, 9] == pytest.approx(-2.0)     # r_4,10 = 0.5
    assert Y[0, 0] == pytest.approx(1.0)
    assert Y[5, 5] == pytest.approx(1.0 + 5.0 + 5.0)


def test_build_admittance_arrays_are_frozen(table1_partition):
    with pytest.raises(ValueError):
        table1_partition.Y[0, 0] = 99.0
