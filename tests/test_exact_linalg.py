import pytest
from hypothesis import given, settings, strategies as st

from helmcut.exact_linalg import IntegerMatrix, matmul, smith_normal_form

matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).map(lambda rows: IntegerMatrix(r, c, rows))
    )
)


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_snf_decomposition_identities(M):
    s = smith_normal_form(M)
    # U M V is the m x n matrix with the invariant factors leading
    D = [[0] * M.cols for _ in range(M.rows)]
    for i, d in enumerate(s.diagonal):
        D[i][i] = d
    assert matmul(matmul(s.U, [list(r) for r in M.entries]), s.V) == D
    assert matmul(s.U, s.U_inv) == identity(M.rows)
    assert matmul(s.V, s.V_inv) == identity(M.cols)
    # positive, with a divisibility chain
    assert all(d > 0 for d in s.diagonal)
    for a, b in zip(s.diagonal, s.diagonal[1:]):
        assert b % a == 0


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_snf_matches_sympy(M):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    theirs = sympy_snf(sympy.Matrix([list(r) for r in M.entries]))
    ref = sorted(
        abs(theirs[i, i]) for i in range(min(theirs.rows, theirs.cols)) if theirs[i, i]
    )
    assert sorted(smith_normal_form(M).diagonal) == ref


@settings(max_examples=50, deadline=None)
@given(matrices)
def test_snf_deterministic(M):
    a = smith_normal_form(M)
    b = smith_normal_form(IntegerMatrix(M.rows, M.cols, [list(r) for r in M.entries]))
    assert a == b


def test_snf_known_values():
    M = IntegerMatrix(2, 2, [[2, 4], [6, 8]])
    assert smith_normal_form(M).diagonal == (2, 4)
    M = IntegerMatrix(2, 2, [[1, 0], [0, 1]])
    assert smith_normal_form(M).diagonal == (1, 1)
    M = IntegerMatrix(1, 1, [[0]])
    assert smith_normal_form(M).diagonal == ()
    M = IntegerMatrix(2, 3, [[1, 2, 3], [4, 5, 6]])
    assert smith_normal_form(M).diagonal == (1, 3)


def test_snf_of_a_matrix_without_rows_keeps_its_width():
    s = smith_normal_form(IntegerMatrix(0, 3, []))
    assert s.diagonal == ()
    assert s.U == s.U_inv == []
    assert s.V == s.V_inv == identity(3)


def test_matrix_validation():
    with pytest.raises(ValueError, match="ragged matrix rows"):
        IntegerMatrix(2, 2, [[1, 2], [3]])
    with pytest.raises(ValueError, match="bad matrix shape"):
        IntegerMatrix(2, 2, [[1, 2]])


@pytest.mark.parametrize("entry", [1.7, True, "3"])
def test_matrix_entries_are_never_coerced(entry):
    # a float, a bool or a string is not an integer entry to round or parse
    with pytest.raises(ValueError, match="matrix entries must be ints"):
        IntegerMatrix(1, 1, [[entry]])
