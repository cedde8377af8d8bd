import math

import pytest

from liebialg import corpus as corpus_mod
from liebialg.harness import Workbench


@pytest.fixture(scope="session")
def reg():
    return corpus_mod.load()


@pytest.fixture(scope="session")
def bench(reg):
    return Workbench(reg)


@pytest.fixture(scope="session")
def points():
    """20 fixed points of [-1, 1]^4 with every |x_i| >= 0.1, away from the
    coordinate planes where the integrable examples have their poles: a
    Weyl sequence in each coordinate, with signs from the bits of the index."""
    rates = [math.sqrt(q) % 1 for q in (2, 3, 5, 7)]
    return [
        tuple((-1) ** (k >> i & 1) * (0.1 + 0.9 * ((k + 1) * r % 1)) for i, r in enumerate(rates))
        for k in range(20)
    ]
