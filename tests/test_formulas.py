import math

import pytest
from hypothesis import given, strategies as st

from coinflip.formulas import (
    _split_moves,
    _split_polynomial,
    rhombus_moves_new,
    rhombus_moves_old,
    rhombus_moves_polynomial,
    triangle_move_increment,
    triangle_moves_new,
    triangle_moves_old,
    triangle_moves_polynomial,
    triangular,
)
from golden_tables import RHOMBUS_TABLE, TRIANGLE_TABLE, moves_of, parts_of


def test_triangular_numbers():
    assert [triangular(k) for k in range(7)] == [0, 1, 3, 6, 10, 15, 21]
    for k in range(1, 200):
        assert triangular(k) == triangular(k - 1) + k


def test_golden_tables_are_self_consistent():
    # decomposition sums must reproduce the floored division column
    for rows, total, old, _inc, decomp in TRIANGLE_TABLE:
        assert total == triangular(rows)
        assert sum(parts_of(decomp)) == moves_of(old)
    for rows, total, old, decomp in RHOMBUS_TABLE:
        assert total == rows * rows
        assert sum(parts_of(decomp)) == moves_of(old)


def test_triangle_moves_against_table():
    for rows, total, old, _inc, decomp in TRIANGLE_TABLE:
        assert triangle_moves_old(rows) == moves_of(old)
        result = triangle_moves_new(rows)
        assert result.moves == moves_of(old)
        assert result.text() == decomp
        assert triangle_moves_polynomial(rows) == moves_of(old)


def test_triangle_increment_against_table():
    for rows, _total, _old, inc, _decomp in TRIANGLE_TABLE:
        if inc is None:
            continue
        assert triangle_move_increment(rows) == inc


def test_rhombus_moves_against_table():
    for rows, _total, old, decomp in RHOMBUS_TABLE:
        assert rhombus_moves_old(rows) == moves_of(old)
        result = rhombus_moves_new(rows)
        assert result.moves == moves_of(old)
        assert result.text() == decomp
        assert rhombus_moves_polynomial(rows) == moves_of(old)


def test_three_way_agreement_triangle():
    for rows in range(1, 1001):
        floor_form = triangle_moves_old(rows)
        decomposed = triangle_moves_new(rows)
        assert floor_form == decomposed.moves == triangle_moves_polynomial(rows)
        assert sum(decomposed.parts) == decomposed.moves


def test_three_way_agreement_rhombus():
    for rows in range(1, 1001):
        floor_form = rhombus_moves_old(rows)
        decomposed = rhombus_moves_new(rows)
        assert floor_form == decomposed.moves == rhombus_moves_polynomial(rows)
        assert sum(decomposed.parts) == decomposed.moves


def test_triangle_parts_are_adjacent_triangular_numbers():
    for rows in range(1, 300):
        parts = triangle_moves_new(rows).parts
        assert len(parts) == 3
        assert list(parts) == sorted(parts, reverse=True)
        m = (rows - 1) // 3
        for part in parts:
            assert part in (triangular(m), triangular(m + 1))


def test_rhombus_parts_are_adjacent_triangular_numbers():
    for rows in range(2, 300):
        parts = rhombus_moves_new(rows).parts
        assert len(parts) == 2
        assert list(parts) == sorted(parts, reverse=True)
        m = rows // 2
        for part in parts:
            assert part in (triangular(m), triangular(m - 1))


def test_increment_law():
    # consecutive move counts differ by ceil((rows - 1) / 3), constant in
    # runs of three
    for rows in range(2, 200):
        inc = triangle_moves_old(rows) - triangle_moves_old(rows - 1)
        assert inc == triangle_move_increment(rows) == math.ceil((rows - 1) / 3)
    runs = [triangle_move_increment(r) for r in range(2, 101)]
    for i in range(0, len(runs) - 2, 3):
        assert runs[i] == runs[i + 1] == runs[i + 2]


@pytest.mark.parametrize("k", range(1, 7))
def test_k_part_split(k):
    # k descending parts T(m + 1) or T(m), multiplied out by the
    # polynomial, growing by ceil((rows - 1) / k) from one row to the next
    prev = None
    for rows in range(1, 501):
        dec = _split_moves(rows, k)
        m = (rows - 1) // k
        assert len(dec.parts) == k
        assert list(dec.parts) == sorted(dec.parts, reverse=True)
        assert set(dec.parts) <= {triangular(m), triangular(m + 1)}
        assert sum(dec.parts) == dec.moves == _split_polynomial(rows, k)
        if prev is not None:
            assert dec.moves - prev == -(-(rows - 1) // k)
        prev = dec.moves
    for split in (_split_moves, _split_polynomial):
        with pytest.raises(ValueError):
            split(0, k)


def test_increment_undefined_for_first_row():
    with pytest.raises(ValueError):
        triangle_move_increment(1)


def test_piecewise_polynomial_splits():
    # the three residue branches, spot-checked far from the table
    assert triangle_moves_polynomial(301) == triangle_moves_old(301)
    assert triangle_moves_polynomial(302) == triangle_moves_old(302)
    assert triangle_moves_polynomial(303) == triangle_moves_old(303)


def test_known_edge_values():
    # single coin needs no moves under any formula
    assert triangle_moves_old(1) == 0
    assert triangle_moves_new(1).parts == (0, 0, 0)
    assert rhombus_moves_new(1).parts == (0, 0)
    # the p = 1 branch must stay correct for m >= 2
    assert triangle_moves_polynomial(7) == 9
    assert triangle_moves_polynomial(10) == 18
    assert triangle_moves_polynomial(13) == 30
    # the p = 0 branch at rows = 6
    assert triangle_moves_new(6).moves == 7
    assert triangle_moves_new(6).parts == (3, 3, 1)


@given(st.integers(1, 10_000))
def test_formula_agreement_random_rows(rows):
    assert (
        triangle_moves_old(rows)
        == triangle_moves_new(rows).moves
        == triangle_moves_polynomial(rows)
    )
    assert (
        rhombus_moves_old(rows)
        == rhombus_moves_new(rows).moves
        == rhombus_moves_polynomial(rows)
    )
