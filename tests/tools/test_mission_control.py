"""Smoke test for the operator dashboard, ``tools/mission_control.py``.

Runs the script's three demos through ``main`` and checks that every
panel is rendered: the scheduler panels (per shard under ``--shards``),
the archival catalog panels under ``--archive``, and the panels every
world shows.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.recovery import CircuitBreaker
from repro.sim.world import World

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "mission_control.py"

SCHEDULER = ("queued tasks (", "fair-share lanes (", "outstanding leases (",
             "workers (", "admission control")
CATALOG = ("archive requests (", "bundles (", "bundle pipeline (by status)",
           "component claims (")
WORLD = ("session caches (", "SLO burn rates", "slowest flight records (")


@pytest.fixture(scope="module")
def mission_control():
    spec = importlib.util.spec_from_file_location("mission_control", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _titles(text: str) -> list[str]:
    """Panel captions: the lines ``render_table`` underlines with '='."""
    lines = text.splitlines()
    return [prev for prev, line in zip(lines, lines[1:])
            if line and set(line) == {"="}]


def _has(titles: list[str], prefix: str) -> bool:
    return any(t.startswith(prefix) for t in titles)


@pytest.mark.parametrize("argv, expected", [
    ([], SCHEDULER + WORLD),
    (["--shards", "2"], tuple(f"shard {i} {p}" for i in (0, 1) for p in SCHEDULER)
     + WORLD),
    (["--archive"], CATALOG + SCHEDULER + WORLD),
], ids=["plain", "shards", "archive"])
def test_demo_renders_every_panel(mission_control, capsys, argv, expected):
    assert mission_control.main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("mission control @ t=")
    titles = _titles(out)
    missing = [p for p in expected if not _has(titles, p)]
    assert not missing, f"panels missing from {argv}: {missing}\n{titles}"


def test_breaker_panel_and_unattached_observability(mission_control):
    world = World(seed=3)
    breaker = CircuitBreaker(world.clock, failure_threshold=1)
    breaker.record_failure("alcf#dtn->nersc#dtn")
    out = mission_control.render(world, breaker=breaker)
    assert _has(_titles(out), "circuit breakers (1 endpoints)")
    assert "alcf#dtn->nersc#dtn" in out
    assert "SLO engine: not attached" in out
    assert "flight recorder: not attached" in out
