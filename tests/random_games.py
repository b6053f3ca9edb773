"""Random simultaneous games for the tests.

``random_max_game`` draws from a seed's ``random.Random`` through
``hog.fuzz._draw``, the draw helper of the fuzz families, so it reads the
same values as one ``randint`` call per value.
"""

import math
import random

from hog.core import max_quantifier
from hog.fuzz import _draw
from hog.simultaneous import SimultaneousGame


def random_max_game(rng: random.Random, players: int = 2, max_moves: int = 4,
                    min_moves: int = 2,
                    payoff_range: tuple[int, int] = (-9, 9)) -> SimultaneousGame:
    """Random finite game with max quantifiers and integer payoffs."""
    counts = [_draw(rng, min_moves, max_moves) for _ in range(players)]
    size = math.prod(counts)
    lo, hi = payoff_range
    tensors = [_draw(rng, lo, hi, size) for _ in range(players)]
    return SimultaneousGame.from_tensors(
        counts, tensors, [max_quantifier() for _ in range(players)])
