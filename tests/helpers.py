"""Small helpers shared by the tests."""

import math


def tail_sigma(stats) -> float:
    """Binomial standard error of a `ResidualStats`' theoretical exceed rate."""
    p = stats.theoretical_tail
    return math.sqrt(p * (1.0 - p) / stats.generations)
