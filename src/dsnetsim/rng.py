"""Counter-based random numbers for rollback-safe simulation.

Every draw is a pure function of (master seed, lp id, purpose, cursor), so an
LP that is rolled back and re-executed consumes exactly the same stream:
its cursors are among the LP's own numbers (``RouterLp.st``), which every
save holds. A caller that needs a cursor without its draw (RED's, see
``router.handle_arrive``) moves it in that list itself.
"""

MASK64 = (1 << 64) - 1

# purpose tags, kept as small ints so they mix cheaply
PURPOSE_RED = 1
PURPOSE_DS = 2
PURPOSE_GEN = 3


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def _prefix(seed: int, lp_id: int, purpose: int) -> int:
    """The part of a draw that does not depend on the cursor."""
    x = _splitmix64(seed & MASK64)
    x = _splitmix64(x ^ (lp_id & MASK64))
    return _splitmix64(x ^ (purpose & MASK64))


def draw_u64(seed: int, lp_id: int, purpose: int, cursor: int) -> int:
    """64-bit value for the given counter position."""
    return _splitmix64(_prefix(seed, lp_id, purpose) ^ (cursor & MASK64))


def draw_uniform(seed: int, lp_id: int, purpose: int, cursor: int) -> float:
    """Uniform float in [0, 1) with 53 bits of precision."""
    return (draw_u64(seed, lp_id, purpose, cursor) >> 11) * (1.0 / (1 << 53))


class CursorRng:
    """Per-LP view over the counter RNG. ``cursors`` is the LP's own
    numbers (``RouterLp.st``): each purpose's cursor is at its number. It
    has no method that moves a cursor without drawing: a caller that takes
    a cursor for a later :meth:`uniform_at` advances it in ``cursors``.

    ``prefixes`` caches :func:`_prefix` per purpose, so a draw costs one
    splitmix step. It is derived from the seed and the LP id, not state.
    """

    __slots__ = ("seed", "lp_id", "cursors", "prefixes")

    def __init__(self, seed: int, lp_id: int, cursors: list[int]):
        self.seed = seed
        self.lp_id = lp_id
        self.cursors = cursors
        self.prefixes: dict[int, int] = {}

    def uniform_at(self, purpose: int, cursor: int) -> float:
        """The draw at ``cursor``, equal to ``draw_uniform``; moves no
        cursor."""
        try:
            x = self.prefixes[purpose]
        except KeyError:
            x = self.prefixes[purpose] = _prefix(self.seed, self.lp_id, purpose)
        return (_splitmix64(x ^ (cursor & MASK64)) >> 11) * (1.0 / (1 << 53))

    def uniform(self, purpose: int) -> float:
        """The draw at ``purpose``'s cursor, equal to :meth:`uniform_at`
        there; advances the cursor. It runs on every drawn event, so it
        does :func:`_splitmix64`'s step itself."""
        cursors = self.cursors
        c = cursors[purpose]
        cursors[purpose] = c + 1
        try:
            x = self.prefixes[purpose]
        except KeyError:
            x = self.prefixes[purpose] = _prefix(self.seed, self.lp_id, purpose)
        x = ((x ^ (c & MASK64)) + 0x9E3779B97F4A7C15) & MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
        return ((x ^ (x >> 31)) >> 11) * (1.0 / (1 << 53))
