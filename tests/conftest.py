import pytest

import laff.games


@pytest.fixture
def lp_calls(monkeypatch):
    """The matrices passed to `laff.games._maximin` during the test, in order:
    the LP cache's misses, whether or not the exact kernel runs for them."""
    real, calls = laff.games._maximin, []

    def spy(M):
        calls.append(M)
        return real(M)

    monkeypatch.setattr(laff.games, "_maximin", spy)
    return calls


@pytest.fixture
def mixed_solves(monkeypatch):
    """The matrices passed to `laff.games._mixed_maximin` (the exact kernel,
    run for an LP matrix without a pure saddle point) during the test."""
    real, calls = laff.games._mixed_maximin, []

    def spy(M):
        calls.append(M)
        return real(M)

    monkeypatch.setattr(laff.games, "_mixed_maximin", spy)
    return calls
