"""Hand-worked cases for the benchmark's oracles and input generators.

    python3 -m pytest bench/test_oracles.py

None of these imports helmcut: the oracles must stand apart from the
program they check.
"""

import random
from pathlib import Path

import inputs
import oracles

HOPF_PATH = Path(__file__).resolve().parent.parent / "src" / "helmcut" / "data" / "hopf.path"


def _read_paths(text):
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            pts = [tuple(int(c) for c in chunk.split(",")) for chunk in line.split(";")]
            out.append(pts[:-1] if pts[0] == pts[-1] else pts)
    return out


# -- braid words ----------------------------------------------------------------


def test_hopf_braid_links_once():
    assert oracles.braid_strand_components(2, [1, 1]) == [0, 1]
    assert oracles.braid_linking_matrix(2, [1, 1]) == [[0, 1], [1, 0]]
    assert oracles.braid_linking_matrix(2, [-1, -1]) == [[0, -1], [-1, 0]]


def test_borromean_braid_is_algebraically_unlinked():
    word = [1, -2] * 3
    assert oracles.braid_strand_components(3, word) == [0, 1, 2]
    assert oracles.braid_linking_matrix(3, word) == [[0] * 3 for _ in range(3)]


def test_trefoil_and_torus_link_braids():
    assert oracles.braid_strand_components(2, [1, 1, 1]) == [0, 0]
    assert oracles.braid_linking_matrix(2, [1, 1, 1]) == [[0]]
    # T(2,4): two components that wind around each other twice
    assert oracles.braid_linking_matrix(2, [1] * 4) == [[0, 2], [2, 0]]
    # sigma_1^2 sigma_2^2: a pure braid whose middle strand links each
    # outer one once; the outer strands never cross
    assert oracles.braid_strand_components(3, [1, 1, 2, 2]) == [0, 1, 2]
    assert oracles.braid_linking_matrix(3, [1, 1, 2, 2]) == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    # sigma_1 sigma_2 is a 3-cycle: one component
    assert oracles.braid_strand_components(3, [1, 2]) == [0, 0, 0]


def test_braid_pd_labels_every_arc_twice_and_tracks_strands():
    text, strand_of = inputs.braid_pd(2, (1, 1))
    # first letter: strand 0 (arc 1) passes over from bottom-left to
    # top-right (arc 4), strand 1 runs under from arc 2 to arc 3
    assert text == "X(2,4,3,1) X(4,2,1,3)"
    assert strand_of == {1: 0, 2: 1, 3: 1, 4: 0}
    text, _ = inputs.braid_pd(3, (1, -2) * 3)
    labels = [int(a) for a in text.replace("X(", " ").replace(")", " ").replace(",", " ").split()]
    assert sorted(set(labels)) == list(range(1, 13))
    assert all(labels.count(a) == 2 for a in set(labels))


def test_generated_links_meet_their_family():
    braids = inputs.links_inputs(random.Random(7), repeats=1)
    assert len(braids) == 3 * (1 + len(inputs._BASE_SHAPES))
    unlinked = [
        b
        for b in braids
        if b.components >= 2
        and not any(any(row) for row in oracles.braid_linking_matrix(b.strands, list(b.word)))
    ]
    assert len(unlinked) * 3 >= len(braids)
    for b in braids:
        assert {abs(x) for x in b.word} == set(range(1, b.strands))


# -- lattice rectangles -----------------------------------------------------------


def test_bundled_hopf_path_links_once():
    a, b = _read_paths(HOPF_PATH.read_text())
    assert abs(oracles.rectangle_linking_number(a, b)) == 1
    assert oracles.rectangle_linking_number(a, b[::-1]) == -oracles.rectangle_linking_number(a, b)


def test_separate_rectangles_do_not_link():
    a = inputs.rectangle(2, 0, (0, 6), (0, 5), False)
    b = [(x + 20, y, z) for x, y, z in a]
    assert oracles.rectangle_linking_number(list(a), b) == 0


def test_generated_hopf_box_links_and_unknot_box_is_single():
    rng = random.Random(3)
    unknot = inputs.link_box(rng, linked=False)
    hopf = inputs.link_box(rng, linked=True)
    assert unknot.expected_betti == (1, 1, 1, 0)
    assert hopf.expected_betti == (1, 2, 2, 0)
    a, b = hopf.rectangles
    assert abs(oracles.rectangle_linking_number(list(a), list(b))) == 1


# -- plates -------------------------------------------------------------------------

RING = [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)]


def test_solid_torus_cut_along_one_meridian_disk_is_a_ball():
    assert oracles.plate_b1(RING) == 1
    assert oracles.plate_cut_pieces(RING, [(0, 0, 0)]) == [0]


def test_ring_cut_twice_falls_in_two_pieces():
    # faces x = 1 in row 0 and x = 2 in row 2: one disk on each side of the hole
    assert oracles.plate_cut_pieces(RING, [(0, 0, 0), (1, 2, 0)]) == [0, 0]


def test_genus_two_plate_and_its_minimal_subsets():
    plate = [(x, y) for x in range(5) for y in range(3) if (x, y) not in {(1, 1), (3, 1)}]
    assert oracles.plate_b1(plate) == 2
    # two disks on the left hole's bridges and one on the right hole's
    cuts = [(0, 0, 0), (0, 2, 0), (3, 0, 0)]
    assert oracles.plate_cut_pieces(plate, cuts) == [0, 0]
    assert oracles.plate_minimal_subsets(plate, cuts) == [(0, 2), (1, 2)]


def test_plate_disk_candidates_share_no_vertex():
    ps = inputs.plate_system(random.Random(1), 2, 3)
    ends = [e for f in ps.disks for e in inputs._disk_ends(f)]
    assert len(set(ends)) == len(ends)
    assert ps.genus == 2
