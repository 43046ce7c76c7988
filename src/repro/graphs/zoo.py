"""Embedded network topologies.

The paper draws topologies from the Internet Topology Zoo [16].  The zoo's
GML archive is not redistributable here, so this module embeds:

* **Abilene** — the Internet2 research backbone used for the paper's fixed-
  graph experiments (Figures 6 and 7).  11 PoPs, 14 bidirectional links; the
  published PoP/link structure.
* **NSFNET** — the classic 14-node, 21-link NSFNET T1 backbone, a standard
  TE evaluation topology.
* **Synthetic zoo members** — deterministic Waxman-style graphs with
  zoo-like sizes (documented per entry) standing in for the other zoo
  topologies the paper samples for the Figure 8 "different graphs" mixture.
  They are generated from fixed seeds so every run sees identical graphs.

All topologies are returned as bidirected :class:`~repro.graphs.network.Network`
instances with uniform link capacities by default (the reward is a ratio of
utilisations, so the capacity scale cancels; heterogeneous capacities are
supported via the ``capacity`` argument).
"""

from __future__ import annotations

from repro.graphs.kernels import undirected_links
from repro.graphs.network import DEFAULT_CAPACITY, Network

# Abilene PoPs, for reference (index order):
# 0 Seattle, 1 Sunnyvale, 2 Los Angeles, 3 Denver, 4 Kansas City, 5 Houston,
# 6 Chicago, 7 Indianapolis, 8 Atlanta, 9 Washington DC, 10 New York.
ABILENE_NODES = 11
ABILENE_LINKS: tuple[tuple[int, int], ...] = (
    (0, 1),  # Seattle - Sunnyvale
    (0, 3),  # Seattle - Denver
    (1, 2),  # Sunnyvale - Los Angeles
    (1, 3),  # Sunnyvale - Denver
    (2, 5),  # Los Angeles - Houston
    (3, 4),  # Denver - Kansas City
    (4, 5),  # Kansas City - Houston
    (4, 7),  # Kansas City - Indianapolis
    (5, 8),  # Houston - Atlanta
    (6, 7),  # Chicago - Indianapolis
    (6, 10),  # Chicago - New York
    (7, 8),  # Indianapolis - Atlanta
    (8, 9),  # Atlanta - Washington DC
    (9, 10),  # Washington DC - New York
)

# NSFNET T1 backbone (1991): 14 nodes, 21 links.
NSFNET_NODES = 14
NSFNET_LINKS: tuple[tuple[int, int], ...] = (
    (0, 1), (0, 2), (0, 7),
    (1, 2), (1, 3),
    (2, 5),
    (3, 4), (3, 10),
    (4, 5), (4, 6),
    (5, 9), (5, 13),
    (6, 7),
    (7, 8),
    (8, 9), (8, 11), (8, 12),
    (10, 11), (10, 12),
    (11, 13),
    (12, 13),
)


def abilene(capacity: float = DEFAULT_CAPACITY) -> Network:
    """The Abilene backbone (11 nodes, 28 directed edges)."""
    return Network.from_undirected(ABILENE_NODES, ABILENE_LINKS, capacity, name="abilene")


def nsfnet(capacity: float = DEFAULT_CAPACITY) -> Network:
    """The NSFNET T1 backbone (14 nodes, 42 directed edges)."""
    return Network.from_undirected(NSFNET_NODES, NSFNET_LINKS, capacity, name="nsfnet")


# ---------------------------------------------------------------------------
# Synthetic zoo stand-ins
# ---------------------------------------------------------------------------

# name -> (num_nodes, extra_edges_beyond_spanning_tree, generation_seed)
_SYNTHETIC_SPECS: dict[str, tuple[int, int, int]] = {
    # Sized after the zoo members they stand in for (see module docstring).
    "b4-like": (12, 7, 101),        # Google B4: 12 nodes, 19 links
    "sprint-like": (11, 7, 102),    # Sprint: 11 nodes, 18 links
    "geant-like": (22, 14, 103),    # GEANT (2004): 22-23 nodes, ~36 links
    "cesnet-like": (9, 3, 104),     # CESNET-2001-scale
    "janet-like": (7, 4, 105),      # JANET backbone scale
    "garr-like": (16, 9, 106),      # GARR-B scale
    "att-like": (25, 31, 107),      # ATT North America scale
    "claranet-like": (15, 3, 108),  # Claranet-scale sparse graph
    # Large sparse members for the sparse solver backend.  Sized after the
    # zoo's big carrier topologies: Cogentco has 197 nodes / 245 links and
    # Kdl (the zoo's largest) 754 nodes / 899 links — the kdl stand-in is
    # scaled to 256 nodes at the same ~1.2 links-per-node sparsity so CI
    # can afford it.
    "cogent-like": (197, 48, 109),  # Cogentco: 197 nodes, 245 links
    "kdl-like": (256, 62, 110),     # Kdl-style sparse carrier backbone
}

TOPOLOGY_NAMES: tuple[str, ...] = ("abilene", "nsfnet") + tuple(sorted(_SYNTHETIC_SPECS))


def topology(name: str, capacity: float = DEFAULT_CAPACITY) -> Network:
    """Return a named topology from the embedded collection.

    ``abilene`` and ``nsfnet`` are published edge lists; every other name is
    a deterministic synthetic stand-in (see module docstring).
    """
    if name == "abilene":
        return abilene(capacity)
    if name == "nsfnet":
        return nsfnet(capacity)
    if name not in _SYNTHETIC_SPECS:
        raise ValueError(f"unknown topology {name!r}; choose from {TOPOLOGY_NAMES}")
    num_nodes, extra_edges, seed = _SYNTHETIC_SPECS[name]
    from repro.graphs.generators import random_connected_network

    network = random_connected_network(num_nodes, extra_edges, seed=seed, capacity=capacity)
    return Network.from_undirected(
        num_nodes,
        sorted(undirected_links(network)),
        capacity,
        name=name,
    )
