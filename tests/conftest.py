import pytest

from pauliprop import fanout


@pytest.fixture(autouse=True)
def eight_usable_cpus(monkeypatch):
    """map_blocks caps its pool at the usable CPUs; report eight, so that a
    test asking for two or three workers starts them on any host. A test of
    the cap patches its own count over this one."""
    monkeypatch.setattr(fanout, "usable_cpus", lambda: 8)
