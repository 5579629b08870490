import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import spreadlab.ideals as ideals
from spreadlab import Filtration, RingContext, ideal


@pytest.fixture(scope="session")
def ctx3():
    """Standard-graded ring in three variables."""
    return RingContext(32003, ("x", "y", "z"))


@pytest.fixture(scope="session")
def ctx2():
    return RingContext(32003, ("x", "y"))


@pytest.fixture(scope="session")
def curve_ctx():
    """Weighted ring carrying the (t^3, t^4, t^5) parametrized curve."""
    return RingContext(32003, ("x", "y", "z"), weights=(3, 4, 5))


@pytest.fixture(scope="session")
def curve_prime(curve_ctx):
    return ideal(
        curve_ctx,
        curve_ctx.poly("y^2 - x*z"),
        curve_ctx.poly("x^3 - y*z"),
        curve_ctx.poly("x^2*y - z^2"),
    )


@pytest.fixture(scope="session")
def curve_symbolic(curve_prime):
    return Filtration.symbolic(curve_prime)


@pytest.fixture
def rees_eliminations(monkeypatch):
    """``rees_eliminations(pause=0.0)`` starts recording the rings of the
    Rees-ring eliminations ``ideals`` runs, each started after ``pause``
    seconds of sleep, and returns the list it appends them to."""

    def record(pause=0.0):
        rings = []
        compute = ideals.groebner_basis

        def recording(gens, ctx=None):
            if ctx.variables[0] == "t@" and "T1_1@" in ctx.variables:
                rings.append(ctx)
                time.sleep(pause)
            return compute(gens, ctx)

        monkeypatch.setattr(ideals, "groebner_basis", recording)
        return rings

    return record


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` replaces module.<name> by a wrapper
    and returns the list it appends the arguments of every later call to."""

    def count(module, name):
        calls = []
        real = getattr(module, name)

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, name, counting)
        return calls

    return count
