"""Graph, building-set and enumeration layer."""

import json

import pytest

from nestotope.errors import ValidationError
from nestotope.graphs import (
    BuildingSet,
    Graph,
    bits_of,
    complete_graph,
    components_minus_vertex,
    connected_graph_representatives,
    cycle_graph,
    graph_building_set,
    graph_from_json_dict,
    graph_from_spec,
    is_connected_induced,
    mask_of,
    members,
    path_graph,
    path_order,
    star_graph,
    tube_sort_key,
    validate_building_set,
)


def test_bitmask_helpers():
    assert list(bits_of(0b10110)) == [1, 2, 4]
    assert mask_of([0, 3]) == 0b1001
    assert members(0b101) == (0, 2)
    assert mask_of(members(0b11010)) == 0b11010


def test_graph_basics():
    g = Graph(4, [(0, 1), (2, 1), (3, 2)])
    assert g.degree(1) == 2
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert g.neighbours(2) == mask_of([1, 3])
    assert g.is_connected()
    assert not Graph(3, [(0, 1)]).is_connected()


def test_graph_rejects_bad_edges():
    with pytest.raises(ValidationError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValidationError):
        Graph(2, [(1, 1)])
    with pytest.raises(ValidationError):
        Graph(0, [])


def test_connected_induced_exhaustive():
    # independent oracle: a subset is connected iff some spanning sequence
    # of its vertices can be built by repeatedly attaching a neighbour
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])

    def oracle(subset):
        verts = list(bits_of(subset))
        if not verts:
            return False
        reached = {verts[0]}
        grew = True
        while grew:
            grew = False
            for v in verts:
                if v not in reached and any(g.has_edge(v, u) for u in reached):
                    reached.add(v)
                    grew = True
        return len(reached) == len(verts)

    for s in range(1 << 5):
        assert is_connected_induced(g, s) == oracle(s), s


def test_tube_sort_order():
    masks = [0b110, 0b1, 0b111, 0b10, 0b11]
    assert sorted(masks, key=tube_sort_key) == [0b1, 0b10, 0b11, 0b110, 0b111]


def test_building_set_counts():
    for n in range(1, 9):
        b = graph_building_set(path_graph(n + 1))
        assert len(b.proper_tubes) == n * (n + 3) // 2
        b = graph_building_set(complete_graph(n + 1))
        assert len(b.proper_tubes) == 2 ** (n + 1) - 2
    assert not graph_building_set(Graph(3, [(0, 1)])).contains_ground


def test_building_set_axioms_hold_for_graphs():
    for k in range(1, 6):
        for g in connected_graph_representatives(k):
            assert validate_building_set(graph_building_set(g))


def test_building_set_axiom_violations():
    with pytest.raises(ValidationError, match="singleton"):
        validate_building_set(BuildingSet(2, [0b11]))
    # {0,1} and {1,2} intersect but their union is absent
    with pytest.raises(ValidationError, match="union"):
        validate_building_set(BuildingSet(3, [0b1, 0b10, 0b100, 0b11, 0b110]))


def test_components_minus_vertex():
    comps = components_minus_vertex(star_graph(5), 0)
    assert len(comps) == 4
    assert all(c.n_vertices == 1 for c, _ in comps)
    assert [labels for _, labels in comps] == [(1,), (2,), (3,), (4,)]
    comps = components_minus_vertex(path_graph(5), 2)
    assert [labels for _, labels in comps] == [(0, 1), (3, 4)]
    left, labels = comps[0]
    assert left.has_edge(0, 1) and labels == (0, 1)
    with pytest.raises(ValidationError):
        components_minus_vertex(path_graph(3), 5)


def test_path_detection():
    assert path_order(path_graph(4)) == (0, 1, 2, 3)
    relabeled = Graph(4, [(2, 0), (0, 3), (3, 1)])
    order = path_order(relabeled)
    assert order is not None
    assert all(relabeled.has_edge(order[i], order[i + 1]) for i in range(3))
    assert path_order(star_graph(4)) is None
    assert path_order(cycle_graph(4)) is None
    assert path_order(Graph(1, [])) == (0,)


def test_representative_counts():
    assert [len(connected_graph_representatives(k)) for k in range(1, 6)] == \
        [1, 1, 2, 6, 21]
    for k in range(1, 5):
        for g in connected_graph_representatives(k):
            assert g.n_vertices == k and g.is_connected()


def test_representatives_cover_all_labelled_graphs():
    # orbit union of the 6 classes on 4 vertices is the full labelled count
    labelled = 0
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for bits in range(1, 1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        if Graph(4, edges).is_connected():
            labelled += 1
    assert labelled == 38


def test_graph_json_round_trip():
    g = Graph(4, [(0, 2), (2, 3), (1, 2)])
    data = {"n_vertices": 4, "edges": [[0, 2], [1, 2], [2, 3]]}
    assert graph_from_json_dict(data) == g
    assert graph_from_json_dict({"preset": "cycle", "n_vertices": 5}) == cycle_graph(5)
    with pytest.raises(ValidationError, match="preset"):
        graph_from_json_dict({"preset": "wheel", "n_vertices": 5})
    with pytest.raises(ValidationError, match="malformed"):
        graph_from_json_dict({"n_vertices": 3})


def test_graph_from_spec(tmp_path):
    assert graph_from_spec("path:4") == path_graph(4)
    assert graph_from_spec("complete:3") == complete_graph(3)
    f = tmp_path / "g.json"
    f.write_text(json.dumps({"n_vertices": 4,
                             "edges": [[0, 1], [0, 2], [0, 3]]}))
    assert graph_from_spec(str(f)) == star_graph(4)
    with pytest.raises(ValidationError, match="vertex count"):
        graph_from_spec("path:x")
    with pytest.raises(ValidationError, match="cannot read"):
        graph_from_spec(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError, match="malformed"):
        graph_from_spec(str(bad))
