import pytest
import scipy.optimize

import laff.games


@pytest.fixture
def lp_calls(monkeypatch):
    """The matrices passed to `laff.games._maximin` during the test, in order:
    the LP cache's misses, whether or not HiGHS runs for them."""
    real, calls = laff.games._maximin, []

    def spy(M):
        calls.append(M)
        return real(M)

    monkeypatch.setattr(laff.games, "_maximin", spy)
    return calls


@pytest.fixture
def highs_solves(monkeypatch):
    """The objective vectors of the `scipy.optimize.linprog` calls (HiGHS
    solves) during the test, in order."""
    real, calls = scipy.optimize.linprog, []

    def spy(c, *args, **kwargs):
        calls.append(c)
        return real(c, *args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    return calls
