import pytest
from hypothesis import given, settings, strategies as st

from helmcut.exact_linalg import IntegerMatrix, smith_normal_form

matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).map(lambda rows: IntegerMatrix(r, c, rows))
    )
)


def is_identity(M: IntegerMatrix) -> bool:
    return M == IntegerMatrix.identity(M.rows)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_snf_decomposition_identities(M):
    s = smith_normal_form(M)
    assert s.U @ M @ s.V == s.D
    assert is_identity(s.U @ s.U_inv)
    assert is_identity(s.V @ s.V_inv)
    diag = s.diagonal
    # off-diagonal zero, diagonal non-negative with divisibility chain
    for i in range(s.D.rows):
        for j in range(s.D.cols):
            if i != j:
                assert s.D[i, j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if b:
            assert a != 0 and b % a == 0


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_snf_matches_sympy(M):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    ours = [abs(d) for d in smith_normal_form(M).diagonal if d]
    theirs = sympy_snf(sympy.Matrix(M.to_lists()))
    ref = sorted(
        abs(theirs[i, i]) for i in range(min(theirs.rows, theirs.cols)) if theirs[i, i]
    )
    assert sorted(ours) == ref


@settings(max_examples=50, deadline=None)
@given(matrices)
def test_snf_deterministic(M):
    a = smith_normal_form(M)
    b = smith_normal_form(IntegerMatrix(M.rows, M.cols, M.to_lists()))
    assert a.D == b.D and a.U == b.U and a.V == b.V


def test_snf_known_values():
    M = IntegerMatrix(2, 2, [[2, 4], [6, 8]])
    assert smith_normal_form(M).diagonal == (2, 4)
    M = IntegerMatrix(2, 2, [[1, 0], [0, 1]])
    assert smith_normal_form(M).diagonal == (1, 1)
    M = IntegerMatrix(1, 1, [[0]])
    assert smith_normal_form(M).rank == 0


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntegerMatrix(2, 2, [[1, 2]])
    M = IntegerMatrix(2, 3, [[1, 2, 3], [4, 5, 6]])
    assert M.transpose().to_lists() == [[1, 4], [2, 5], [3, 6]]
    assert smith_normal_form(M).rank == 2


@pytest.mark.parametrize("entry", [1.7, True, "3"])
def test_matrix_entries_are_never_coerced(entry):
    # a float, a bool or a string is not an integer entry to round or parse
    with pytest.raises(ValueError, match="matrix entries must be ints"):
        IntegerMatrix(1, 1, [[entry]])


@pytest.mark.parametrize("n, m", [(2, 3), (0, 3), (2, 0), (0, 0)])
def test_product_through_an_empty_inner_dimension_is_zero(n, m):
    # no row of the right factor holds its column count
    A = IntegerMatrix(n, 0, [[] for _ in range(n)])
    B = IntegerMatrix(0, m, [])
    assert A @ B == IntegerMatrix(n, m, [[0] * m for _ in range(n)])
