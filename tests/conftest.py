"""Shared fixtures: ladder states are expensive enough to build once."""

import pytest

from rvb_ladder import build_ladder, rvb_state


@pytest.fixture(scope="session")
def ladder_state():
    """Factory returning (lattice, state), cached per configuration."""
    cache = {}

    def factory(m, boundary="periodic"):
        key = (m, boundary)
        if key not in cache:
            lat = build_ladder(m, boundary)
            cache[key] = (lat, rvb_state(lat))
        return cache[key]

    return factory
