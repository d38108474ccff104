"""Counter RNG: pure, reproducible, rollback-safe."""

from dsnetsim import rng
from dsnetsim.router import RouterLp


def test_draws_are_pure_functions():
    a = rng.draw_u64(1, 2, rng.PURPOSE_RED, 3)
    b = rng.draw_u64(1, 2, rng.PURPOSE_RED, 3)
    assert a == b


def test_distinct_inputs_give_distinct_streams():
    base = rng.draw_u64(1, 2, rng.PURPOSE_RED, 3)
    assert base != rng.draw_u64(2, 2, rng.PURPOSE_RED, 3)
    assert base != rng.draw_u64(1, 3, rng.PURPOSE_RED, 3)
    assert base != rng.draw_u64(1, 2, rng.PURPOSE_DS, 3)
    assert base != rng.draw_u64(1, 2, rng.PURPOSE_RED, 4)


def test_uniform_in_unit_interval():
    for cursor in range(1000):
        u = rng.draw_uniform(9, 7, rng.PURPOSE_DS, cursor)
        assert 0.0 <= u < 1.0


def test_cursor_rng_advances_per_purpose():
    cursors = [0] * 4
    r = rng.CursorRng(5, 11, cursors)
    first = r.uniform(rng.PURPOSE_RED)
    second = r.uniform(rng.PURPOSE_RED)
    other = r.uniform(rng.PURPOSE_DS)
    assert first != second
    assert r.cursors is cursors
    assert cursors[rng.PURPOSE_RED] == 2
    assert cursors[rng.PURPOSE_DS] == 1
    assert cursors[rng.PURPOSE_GEN] == 0
    # the draw at a cursor is reproducible from scratch
    assert first == rng.draw_uniform(5, 11, rng.PURPOSE_RED, 0)
    assert other == rng.draw_uniform(5, 11, rng.PURPOSE_DS, 0)


def test_clone_isolates_cursor_state():
    # the cursors are saved and restored with the LP: after a restore the
    # next draw repeats the one consumed after the save
    lp = RouterLp(11, [], {}, 5, [])
    lp.rng.uniform(rng.PURPOSE_RED)
    saved = lp.clone(None)
    ahead = lp.rng.uniform(rng.PURPOSE_RED)
    for _ in range(2):  # later draws leave the save as it was
        lp.restore(saved)
        assert lp.rng.uniform(rng.PURPOSE_RED) == ahead
        assert lp.rng.cursors[rng.PURPOSE_RED] == 2
        assert lp.rng.cursors[rng.PURPOSE_DS] == 0
