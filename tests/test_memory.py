"""The census path builds its integer tables without an int object per
cell: the cube layers, the face index and the cascade state.  Each step
equals a plainer oracle kept here, and tracemalloc bounds its peak on a
12 x 12 x 6 block of cubes."""

import gc
import tracemalloc
from array import array
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from helmcut.builders import (
    _CORNERS,
    _KUHN,
    _OFF,
    _SPAN,
    _kuhn_layers,
    cubes_to_complex,
    encode_point,
    preset,
    preset_names,
)
from helmcut.complexes import FaceIndex, SimplicialComplex, face_index
from helmcut.reduction import ChainComplexData, _cascade
from test_builders import _coords
from test_homology import _random_complexes

BLOCK = [(x, y, z) for x in range(12) for y in range(12) for z in range(6)]


def _sorted_face_index(K) -> FaceIndex:
    """face_index(K) with each face looked up in a dict and the cofaces
    ordered by a stable sort of the flat face array."""
    layers = [K.simplices(d) for d in range(4)]
    faces = [array("i")]
    for below, layer in zip(layers, layers[1:]):
        pos = {s: i for i, s in enumerate(below)}
        faces.append(array("i", [pos[s[:k] + s[k + 1:]] for s in layer for k in range(len(s))]))
    starts, cofaces = [], []
    for d, above in enumerate(faces[1:] + [array("i")]):
        count = [0] * (len(layers[d]) + 1)
        for p in above:
            count[p + 1] += 1
        starts.append(array("i", accumulate(count)))
        order = sorted(range(len(above)), key=above.__getitem__)
        cofaces.append(array("i", [j // (d + 2) for j in order]))
    return FaceIndex(tuple(faces), tuple(starts), tuple(cofaces))


def _assert_face_index_equals_the_sort(K):
    index = face_index(K)
    assert index == _sorted_face_index(K)
    for d in range(4):
        for p in range(len(K.simplices(d))):
            cof = index.cofaces_of(d, p)
            assert all(a < b for a, b in zip(cof, cof[1:]))


@settings(max_examples=60, deadline=None)
@given(_random_complexes())
def test_face_index_equals_a_stable_sort(K):
    _assert_face_index_equals_the_sort(K)


@pytest.mark.parametrize("name", preset_names())
def test_face_index_of_the_presets_equals_a_stable_sort(name):
    _assert_face_index_equals_the_sort(preset(name).complex)


def _cubes_by_sets(cubes) -> SimplicialComplex:
    """cubes_to_complex with every layer deduplicated in a set and sorted."""
    labels = [[encode_point(cube) + o for o in _CORNERS] for cube in sorted(set(cubes))]
    return SimplicialComplex(
        [sorted({tuple(c[i] for i in chain) for c in labels for chain in layer}) for layer in _KUHN]
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_coords, _coords, _coords), max_size=8))
def test_cubes_to_complex_equals_the_sorted_sets(cubes):
    assert cubes_to_complex(cubes)._simplices == _cubes_by_sets(cubes)._simplices


def test_cubes_to_complex_of_a_block_and_a_link_box_equals_the_sorted_sets():
    hopf = preset("hopf_box").complex
    # the encoded min corners of its cubes are the first vertices of its
    # tetrahedra
    cubes = {
        (v // _SPAN**2 - _OFF, v // _SPAN % _SPAN - _OFF, v % _SPAN - _OFF)
        for (v, *_) in hopf.simplices(3)
    }
    assert cubes_to_complex(cubes) == hopf
    for cs in (BLOCK, cubes):
        assert cubes_to_complex(cs)._simplices == _cubes_by_sets(cs)._simplices


def _traced(fn, *args):
    """(result, bytes held after the call, peak bytes during it), both
    counted from the call's start."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - start, peak - start


def test_cube_builder_peak_stays_near_its_result():
    # the sets of all four layers and their sorted copies, alive at once,
    # took about twice the complex; a cube complex writes its layers on
    # first use, so the write is traced
    K = cubes_to_complex(BLOCK)
    layers, held, peak = _traced(_kuhn_layers, K.cubes)
    assert len(layers[3]) == 6 * len(BLOCK) and K._layers is None
    assert layers == K._simplices
    assert peak <= 1.4 * held, (peak, held)


def test_face_index_peak_stays_near_its_arrays():
    # a sort by key over the flat face array took about 7 times the arrays
    K = cubes_to_complex(BLOCK)
    K.simplices(3)  # the layers are written on first use, not by face_index
    index, _, peak = _traced(face_index, K)
    size = sum(a.itemsize * len(a) for part in index for a in part)
    assert peak <= 4 * size, (peak, size)


def test_cascade_state_takes_no_int_object_per_cell():
    # rank lists of one int object per cell took about 73 bytes a cell
    K = cubes_to_complex(BLOCK)
    data = ChainComplexData(face_index(K), [0])  # the root vertex is no cell
    (A, _), _, peak = _traced(_cascade, data)
    cells = data.offsets[4]
    assert 2 * len(A) == cells - 1  # the block collapses to its root
    assert peak <= 56 * cells, (peak / cells)
