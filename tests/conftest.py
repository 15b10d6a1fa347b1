import pytest

from dioph.oracle import PRECISION_CAP


@pytest.fixture
def precision_cap():
    """``precision_cap(bits)`` sets PRECISION_CAP until the test ends."""
    tokens = []
    yield lambda bits: tokens.append(PRECISION_CAP.set(bits))
    for token in reversed(tokens):
        PRECISION_CAP.reset(token)
