import pytest

import laff.games


@pytest.fixture
def lp_calls(monkeypatch):
    """The matrices `laff.games._maximin` solves during the test, in order."""
    real, calls = laff.games._maximin, []

    def spy(M):
        calls.append(M)
        return real(M)

    monkeypatch.setattr(laff.games, "_maximin", spy)
    return calls
