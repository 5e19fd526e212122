"""``state.Rows.absorbed``, the one way a batch's (row, value) candidates
join a top-k state, against the full-matrix join it replaces: every row's
candidates laid out in one padded row per state row, then ``merge_rows``
over all m rows."""

import numpy as np
import pytest

from cardsketch import state

PADS = {"descending": np.nan, "ascending": np.inf}


def _layout(pad, k):
    return state.Rows("values", pad, k, "test rows")


def _state(layout, m, rng, grid):
    """A state as merges leave it: each row the k best distinct values of a
    random draw, some rows short or empty."""
    empty = layout.empty(m)[0]
    draws = np.where(rng.random((m, 2 * layout.width)) < 0.6,
                     rng.integers(1, grid + 1, (m, 2 * layout.width)) / grid, layout.pad)
    return state.merge_rows(empty, draws, layout.descending)


def _reference(layout, a, rows, values):
    """The candidates as one padded row per state row, joined to every row."""
    m = len(a)
    width = max(1, max((np.count_nonzero(rows == r) for r in range(m)), default=0))
    cand = np.full((m, width), layout.pad)
    for r in range(m):
        mine = values[rows == r]
        cand[r, :len(mine)] = mine
    return state.merge_rows(a, cand, layout.descending)


def _check(layout, a, rows, values):
    want = _reference(layout, a, rows, values)
    before = a.copy()
    layout.absorbed(a, rows, values)
    assert a.tobytes() == want.tobytes()
    untouched = np.setdiff1d(np.arange(len(a)), rows)
    assert a[untouched].tobytes() == before[untouched].tobytes()


@pytest.mark.parametrize("order", sorted(PADS))
@pytest.mark.parametrize("seed", range(12))
def test_absorbed_is_the_full_matrix_join(order, seed):
    rng = np.random.default_rng(seed)
    m = int(rng.choice([1, 2, 5, 40]))
    layout = _layout(PADS[order], int(rng.choice([1, 3, 8])))
    grid = int(rng.choice([4, 20, 10**6]))  # a small grid repeats values and ties the state
    a = _state(layout, m, rng, grid)
    n = int(rng.choice([1, 3, 10, 200]))
    rows = rng.integers(0, m, n)
    values = rng.integers(1, grid + 1, n) / grid
    _check(layout, a, rows, values)


@pytest.mark.parametrize("order", sorted(PADS))
def test_repeated_candidates_and_ties_with_the_state(order):
    layout = _layout(PADS[order], 3)
    a = _state(layout, 4, np.random.default_rng(1), 5)
    rows = np.array([2, 2, 2, 0, 2, 0])
    kept = a[2][np.isfinite(a[2])]
    values = np.array([0.4, 0.4, 0.4, 0.2, kept[0] if len(kept) else 0.6, 0.2])
    _check(layout, a, rows, values)


@pytest.mark.parametrize("order", sorted(PADS))
def test_an_empty_chunk_leaves_the_state_alone(order):
    layout = _layout(PADS[order], 3)
    a = _state(layout, 6, np.random.default_rng(2), 20)
    before = a.copy()
    layout.absorbed(a, np.array([], dtype=np.int64), np.array([]))
    assert a.tobytes() == before.tobytes()


@pytest.mark.parametrize("order", sorted(PADS))
def test_a_single_row_takes_more_candidates_than_k(order):
    layout = _layout(PADS[order], 3)
    rng = np.random.default_rng(3)
    for a in (layout.empty(1)[0], _state(layout, 1, rng, 50)):
        values = rng.integers(1, 51, 11) / 50
        _check(layout, a, np.zeros(11, dtype=np.int64), values)
        best = np.sort(np.unique(values))
        assert np.isfinite(a[0]).all()
        if layout.descending:
            assert (a[0] >= best[-3]).all()
        else:
            assert (a[0] <= best[2]).all()


@pytest.mark.parametrize("order", sorted(PADS))
def test_rows_no_candidate_names_keep_their_values_even_with_ties(order):
    # a sampled state may hold a tie, which a join would drop; a row the
    # chunk does not reach keeps it
    layout = _layout(PADS[order], 3)
    tied = [0.5, 0.5, 0.25] if layout.descending else [0.25, 0.5, 0.5]
    a = np.array([tied, tied, tied])
    layout.absorbed(a, np.array([1]), np.array([0.125 if layout.descending else 0.75]))
    assert a[0].tolist() == tied and a[2].tolist() == tied
    assert a[1].tolist() == ([0.5, 0.25, 0.125] if layout.descending else [0.25, 0.5, 0.75])
