"""Differential: ``Network.path_links`` routes exactly as networkx did.

Routing used to call ``nx.shortest_path(graph.subgraph(allowed), src,
dst, weight="weight")`` on an ``nx.Graph`` holding one edge per host pair,
whose ``link`` attribute the last ``add_link`` between that pair replaced.
That call is the reference here: for every ordered pair of hosts, the
in-house router must return the same links (compared by id), ties
included, or raise :class:`NoRouteError` exactly where networkx raised
``NetworkXNoPath``.

Ties are the point, so the topologies are small and tie-heavy: mostly
transit hosts, equal or two-valued latencies including zero, and parallel
links.  A hypothesis property searches the space; a seeded sweep of 2,000
topologies pins a fixed sample of it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NoRouteError
from repro.sim.world import World
from repro.util.units import gbps

nx = pytest.importorskip("networkx")

#: dyadic latencies add exactly, so equal routes tie; decimal ones tie where float sums agree
_LATENCY_SETS = ((0.0,), (0.5,), (0.0, 0.5), (0.25, 0.5), (0.5, 1.0), (0.001, 0.002), (0.0, 0.003))


def _routes(hosts, links):
    """(in-house, reference) routes for every ordered pair of hosts.

    ``hosts`` is a list of (name, transit); ``links`` a list of
    (a, b, latency_s) added in order.  A route is a tuple of link ids, or
    None where there is no route.
    """
    net = World(seed=0).network
    graph = nx.Graph()
    for name, transit in hosts:
        net.add_host(name, transit=transit)
        graph.add_node(name)
    for a, b, latency in links:
        link = net.add_link(a, b, gbps(1), latency)
        graph.add_edge(a, b, link=link, weight=latency)
    ours, reference = {}, {}
    for src, _ in hosts:
        for dst, _ in hosts:
            if src == dst:
                continue
            try:
                ours[src, dst] = tuple(l.link_id for l in net.path_links(src, dst))
            except NoRouteError:
                ours[src, dst] = None
            allowed = {name for name, transit in hosts if transit or name in (src, dst)}
            try:
                nodes = nx.shortest_path(graph.subgraph(allowed), src, dst, weight="weight")
            except nx.NetworkXNoPath:
                reference[src, dst] = None
            else:
                reference[src, dst] = tuple(
                    graph.edges[u, v]["link"].link_id for u, v in zip(nodes, nodes[1:])
                )
    return ours, reference


def _tie_heavy_topology(rng: random.Random):
    """3-9 hosts, mostly transit, one or two latencies, some parallel links."""
    names = [f"h{i}" for i in range(rng.randint(3, 9))]
    rng.shuffle(names)
    hosts = [(name, rng.random() < 0.75) for name in names]
    latencies = rng.choice(_LATENCY_SETS)
    links = []
    for _ in range(rng.randint(len(names) - 1, 2 * len(names) + 2)):
        if links and rng.random() < 0.15:
            a, b, _ = rng.choice(links)  # a parallel link between a linked pair
        else:
            a, b = rng.sample(names, 2)
        links.append((a, b, rng.choice(latencies)))
    return hosts, links


def test_seeded_tie_heavy_sweep_matches_networkx():
    disagreements = []
    for seed in range(2000):
        hosts, links = _tie_heavy_topology(random.Random(seed))
        ours, reference = _routes(hosts, links)
        if ours != reference:
            disagreements.append(seed)
    assert not disagreements, (
        f"{len(disagreements)} topologies disagree, first seeds {disagreements[:5]}"
    )


@st.composite
def _topologies(draw):
    n = draw(st.integers(2, 8))
    names = [f"h{i}" for i in range(n)]
    hosts = [(name, draw(st.booleans())) for name in names]
    latency = st.sampled_from((0.0, 0.25, 0.5, 1.0, 0.001, 0.003))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(st.tuples(pair, latency), max_size=3 * n))
    return hosts, [(names[i], names[j], lat) for (i, j), lat in edges]


@settings(max_examples=300)
@given(_topologies())
def test_routes_match_networkx(topology):
    hosts, links = topology
    ours, reference = _routes(hosts, links)
    assert ours == reference
