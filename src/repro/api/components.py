"""Built-in component registrations for the scenario API.

Importing this module (which :mod:`repro.api` does on import) populates the
five registries from the existing layers:

* **topologies** — every embedded zoo topology (:mod:`repro.graphs.zoo`),
  the random generator families (:mod:`repro.graphs.generators`), and the
  pool builders used by generalisation scenarios (modification pools,
  different-graph pools, link-failure sweeps via
  :mod:`repro.graphs.modifications`);
* **traffic models** — the demand-matrix generators of
  :mod:`repro.traffic.matrices`;
* **strategies** — the fixed-routing baselines of :mod:`repro.routing`;
* **policies** — the MLP baseline and both GNN policies of
  :mod:`repro.policies`;
* **dynamics** — time-varying network models
  (:mod:`repro.graphs.dynamics`): mid-sequence link failure/recovery,
  capacity heterogeneity and drift, regional demand skew, and flash-crowd
  bursts.

Topology builders return either a single :class:`Network` (fixed-graph
scenarios) or a ``(train_graphs, test_graphs)`` tuple (generalisation
scenarios).  Policy factories take ``(networks, scale, seed, **params)``
where ``networks`` covers every graph the policy must handle; factories for
iterative policies carry an ``iterative = True`` attribute so the runner
picks the right environment.  Dynamics builders take
``(network, length, **params)`` and return a
:class:`~repro.graphs.dynamics.NetworkTimeline`; every draw they make is
seeded from spec params only, so the same spec always schedules the same
perturbations regardless of evaluation seed.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import (
    register_dynamics,
    register_policy,
    register_strategy,
    register_topology,
    register_traffic,
)
from repro.api.spec import SpecValidationError
from repro.experiments.config import ExperimentScale
from repro.graphs.dynamics import NetworkDelta, NetworkTimeline, identity_timeline
from repro.graphs.generators import (
    barabasi_albert_network,
    different_graphs_pool,
    erdos_renyi_network,
    random_connected_network,
    waxman_network,
)
from repro.graphs.modifications import (
    distinct_link_failures,
    failed_links,
    random_modification,
    remove_random_edge,
)
from repro.graphs.network import DEFAULT_CAPACITY, Network
from repro.graphs.zoo import TOPOLOGY_NAMES, topology
from repro.policies.gnn import GNNPolicy
from repro.policies.iterative import IterativeGNNPolicy
from repro.policies.mlp import MLPPolicy
from repro.routing.oblivious import oblivious_routing
from repro.routing.proportional import capacity_proportional_routing, inverse_weight_routing
from repro.routing.shortest_path import ecmp_routing, shortest_path_routing
from repro.traffic.matrices import GENERATORS as _TRAFFIC_GENERATORS
from repro.utils.seeding import rng_from_seed

# ---------------------------------------------------------------------------
# Topologies: embedded zoo members
# ---------------------------------------------------------------------------

for _name in TOPOLOGY_NAMES:

    def _zoo_builder(capacity: float = DEFAULT_CAPACITY, _name: str = _name) -> Network:
        return topology(_name, capacity)

    register_topology(
        _name, _zoo_builder, description=f"embedded zoo topology {_name!r} (repro.graphs.zoo)"
    )

# ---------------------------------------------------------------------------
# Topologies: random generator families
# ---------------------------------------------------------------------------

register_topology(
    "random",
    lambda num_nodes=20, extra_edges=10, seed=0, capacity=DEFAULT_CAPACITY: (
        random_connected_network(num_nodes, extra_edges, seed=seed, capacity=capacity)
    ),
    description="random connected graph: spanning tree plus extra_edges chords",
)
register_topology(
    "erdos_renyi",
    lambda num_nodes=20, edge_probability=0.2, seed=0, capacity=DEFAULT_CAPACITY: (
        erdos_renyi_network(num_nodes, edge_probability, seed=seed, capacity=capacity)
    ),
    description="Erdős–Rényi G(n, p), repaired to be connected",
)
register_topology(
    "barabasi_albert",
    lambda num_nodes=20, attachment=2, seed=0, capacity=DEFAULT_CAPACITY: (
        barabasi_albert_network(num_nodes, attachment=attachment, seed=seed, capacity=capacity)
    ),
    description="Barabási–Albert preferential attachment (scale-free)",
)
register_topology(
    "waxman",
    lambda num_nodes=20, alpha=0.6, beta=0.4, seed=0, capacity=DEFAULT_CAPACITY: (
        waxman_network(num_nodes, alpha=alpha, beta=beta, seed=seed, capacity=capacity)
    ),
    description="Waxman random geometric graph (classic ISP model)",
)


# ---------------------------------------------------------------------------
# Topologies: train/test pool builders (generalisation scenarios)
# ---------------------------------------------------------------------------


@register_topology("modification_pool")
def modification_pool(
    base: str = "abilene",
    num_train: int = 4,
    num_test: int = 2,
    seed: int = 0,
    capacity: float = DEFAULT_CAPACITY,
) -> tuple[list[Network], list[Network]]:
    """Paper Fig. 8 'Graph Modifications' pools: base + random ±1–2 changes.

    The train pool is the base topology plus ``num_train - 1`` random
    modifications (seeds ``seed+10+i``); the test pool is ``num_test``
    *fresh* modifications (seeds ``seed+900+i``), matching the paper's
    train/test modification split.
    """
    base_net = topology(base, capacity)
    train = [base_net] + [
        random_modification(base_net, seed=seed + 10 + i)
        for i in range(max(1, num_train - 1))
    ]
    test = [random_modification(base_net, seed=seed + 900 + i) for i in range(num_test)]
    return train, test


@register_topology("different_graphs")
def different_graphs(
    base_nodes: int = 11,
    num_train: int = 4,
    num_test: int = 2,
    seed: int = 0,
    capacity: float = DEFAULT_CAPACITY,
) -> tuple[list[Network], list[Network]]:
    """Paper Fig. 8 'Different Graphs' pools: random 0.5x–2x-sized graphs."""
    pool = different_graphs_pool(base_nodes, num_train + num_test, seed=seed, capacity=capacity)
    return pool[:num_train], pool[num_train:]


@register_topology("link_failure_sweep")
def link_failure_sweep(
    base: str = "abilene",
    num_failures: int = 3,
    seed: int = 0,
    capacity: float = DEFAULT_CAPACITY,
) -> tuple[list[Network], list[Network]]:
    """Train on the intact topology, test on single-link-failure variants.

    Each test variant removes one *distinct* random link whose loss keeps
    the graph connected (``repro.graphs.modifications.remove_random_edge``),
    so the sweep measures how routing quality degrades under isolated,
    static failures; duplicate draws are rejected until ``num_failures``
    distinct variants exist (:func:`distinct_link_failures`).  This backs
    the ``link-failure-sweep`` preset.  Mid-sequence outages that recover
    are a different measurement: the ``link_flap`` dynamics model (see the
    ``link-failure-flap`` preset).
    """
    if num_failures < 1:
        raise SpecValidationError(
            f"link_failure_sweep needs num_failures >= 1, got {num_failures}"
        )
    base_net = topology(base, capacity)
    failed = distinct_link_failures(base_net, num_failures, rng_from_seed(seed))
    if len(failed) < num_failures:
        raise SpecValidationError(
            f"topology {base!r} does not have {num_failures} distinct removable "
            "links (removals that disconnect it are excluded); reduce num_failures"
        )
    return [base_net], [base_net] + failed


# ---------------------------------------------------------------------------
# Traffic models
# ---------------------------------------------------------------------------

for _model_name, _generator in sorted(_TRAFFIC_GENERATORS.items()):
    register_traffic(
        _model_name,
        _generator,
        description=(_generator.__doc__ or "").strip().splitlines()[0],
    )

# ---------------------------------------------------------------------------
# Routing strategies (fixed baselines)
# ---------------------------------------------------------------------------

register_strategy(
    "shortest_path",
    lambda network, weights=None: shortest_path_routing(
        network, None if weights is None else np.asarray(weights, dtype=np.float64)
    ),
    description="single next-hop shortest-path forwarding (OSPF-style)",
)
register_strategy(
    "ecmp",
    lambda network, weights=None: ecmp_routing(
        network, None if weights is None else np.asarray(weights, dtype=np.float64)
    ),
    description="equal-cost multi-path: even split over shortest next hops",
)
register_strategy(
    "oblivious",
    lambda network: oblivious_routing(network),
    description="demand-oblivious LP-derived routing (uniform reference demand)",
)
register_strategy(
    "capacity_proportional",
    lambda network: capacity_proportional_routing(network),
    description="split proportional to link capacity over the hop-count DAG",
)
register_strategy(
    "inverse_weight",
    lambda network, weights=None: inverse_weight_routing(
        network,
        np.ones(network.num_edges)
        if weights is None
        else np.asarray(weights, dtype=np.float64),
    ),
    description="split proportional to 1/weight over the shortest-distance DAG",
)


# ---------------------------------------------------------------------------
# Learned policies
# ---------------------------------------------------------------------------


def _merged(defaults: dict, params: dict) -> dict:
    merged = dict(defaults)
    merged.update(params)
    return merged


def _build_mlp(networks: list[Network], scale: ExperimentScale, seed, **params) -> MLPPolicy:
    """The Valadarsky et al. MLP baseline (fixed input/output sizes)."""
    shapes = {(net.num_nodes, net.num_edges) for net in networks}
    if len(shapes) > 1:
        raise SpecValidationError(
            "policy 'mlp' has fixed input/output sizes and only supports "
            f"single-topology scenarios; this scenario spans shapes {sorted(shapes)} "
            "(nodes, edges) — use 'gnn' or 'gnn_iterative' instead"
        )
    network = networks[0]
    kwargs = _merged(
        dict(
            memory_length=scale.memory_length,
            hidden=tuple(scale.mlp_hidden),
            seed=seed,
            initial_log_std=scale.mlp_initial_log_std,
        ),
        params,
    )
    return MLPPolicy(network.num_nodes, network.num_edges, **kwargs)


def _build_gnn(networks: list[Network], scale: ExperimentScale, seed, **params) -> GNNPolicy:
    """The one-shot GNN policy (paper §VII-A)."""
    kwargs = _merged(
        dict(
            memory_length=scale.memory_length,
            latent=scale.latent,
            hidden=scale.hidden,
            num_processing_steps=scale.num_processing_steps,
            seed=seed,
            initial_log_std=scale.gnn_initial_log_std,
        ),
        params,
    )
    return GNNPolicy(**kwargs)


def _build_iterative(
    networks: list[Network], scale: ExperimentScale, seed, **params
) -> IterativeGNNPolicy:
    """The iterative GNN policy (paper §VII-B; one edge set per sub-step)."""
    kwargs = _merged(
        dict(
            memory_length=scale.memory_length,
            latent=scale.latent,
            hidden=scale.hidden,
            num_processing_steps=scale.num_processing_steps,
            seed=seed,
            initial_log_std=scale.gnn_initial_log_std,
        ),
        params,
    )
    return IterativeGNNPolicy(**kwargs)


_build_iterative.iterative = True

register_policy("mlp", _build_mlp, description="MLP baseline (fixed topology only)")
register_policy("gnn", _build_gnn, description="one-shot GNN policy (topology-agnostic)")
register_policy(
    "gnn_iterative", _build_iterative, description="iterative GNN policy (one edge per sub-step)"
)


# ---------------------------------------------------------------------------
# Dynamics models (time-varying networks, repro.graphs.dynamics)
# ---------------------------------------------------------------------------
#
# Builders take (network, length, **params) and return a NetworkTimeline of
# exactly `length` steps.  All randomness is seeded from spec params — the
# perturbation schedule is part of the scenario, not of the evaluation seed
# — so two runs of the same spec always face the same failures and bursts.


def _window(length: int, start, end, *, context: str) -> tuple[int, int]:
    """Validate (or default) a perturbation window ``[start, end)``."""
    if start is None:
        start = length // 3
    if end is None:
        end = max(int(start) + 1, (2 * length) // 3)
    try:
        start, end = int(start), int(end)
    except (TypeError, ValueError):
        raise SpecValidationError(
            f"{context}: window bounds must be ints, got {start!r}, {end!r}"
        ) from None
    if not 0 <= start < end <= length:
        raise SpecValidationError(
            f"{context}: need 0 <= start < end <= {length} (the sequence "
            f"length), got [{start}, {end})"
        )
    return start, end


@register_dynamics("static")
def _static_dynamics(network: Network, length: int) -> NetworkTimeline:
    """Identity dynamics: the unperturbed base network at every step."""
    return identity_timeline(network, length)


@register_dynamics("link_flap")
def _link_flap(
    network: Network,
    length: int,
    num_failures: int = 1,
    fail_step=None,
    recover_step=None,
    seed: int = 0,
) -> NetworkTimeline:
    """Mid-sequence link failure and recovery.

    ``num_failures`` random links (drawn one by one, each draw constrained
    to keep the remaining graph connected) fail simultaneously at
    ``fail_step`` and recover at ``recover_step`` — steps in
    ``[fail_step, recover_step)`` are scored against the degraded network,
    every other step against the intact one.  Defaults place the outage
    over the middle third of the sequence.
    """
    if num_failures < 1:
        raise SpecValidationError(f"link_flap needs num_failures >= 1, got {num_failures}")
    fail_step, recover_step = _window(length, fail_step, recover_step, context="link_flap")
    rng = rng_from_seed(seed)
    degraded = network
    for _ in range(num_failures):
        candidate = remove_random_edge(degraded, rng)
        if candidate is None:
            raise SpecValidationError(
                f"link_flap cannot fail {num_failures} links of {network.name!r} "
                "simultaneously without disconnecting it; reduce num_failures"
            )
        degraded = candidate
    outage = NetworkDelta(removed_links=tuple(failed_links(network, degraded)))
    identity = NetworkDelta()
    return NetworkTimeline(
        network,
        [outage if fail_step <= t < recover_step else identity for t in range(length)],
    )


@register_dynamics("capacity_drift")
def _capacity_drift(
    network: Network,
    length: int,
    amplitude: float = 0.3,
    period=None,
    heterogeneity: float = 0.0,
    seed: int = 0,
) -> NetworkTimeline:
    """Per-link sinusoidal capacity drift with optional static heterogeneity.

    Each edge's capacity is scaled by
    ``h_e * (1 + amplitude * sin(2*pi*t/period + phase_e))`` — seeded random
    phases desynchronise the links, and ``heterogeneity`` draws the static
    factor ``h_e`` uniformly from ``[1-h, 1+h]`` so links start unequal.
    Both knobs must stay below 1 to keep every capacity positive.
    """
    if not 0.0 <= amplitude < 1.0:
        raise SpecValidationError(
            f"capacity_drift needs 0 <= amplitude < 1, got {amplitude}"
        )
    if not 0.0 <= heterogeneity < 1.0:
        raise SpecValidationError(
            f"capacity_drift needs 0 <= heterogeneity < 1, got {heterogeneity}"
        )
    if period is None:
        period = max(2, length)
    if not float(period) > 0:
        raise SpecValidationError(f"capacity_drift needs period > 0, got {period}")
    rng = rng_from_seed(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, network.num_edges)
    static = 1.0 + heterogeneity * rng.uniform(-1.0, 1.0, network.num_edges)
    deltas = []
    for t in range(length):
        scale = static * (1.0 + amplitude * np.sin(2.0 * np.pi * t / float(period) + phases))
        deltas.append(NetworkDelta(capacity_scale=tuple(scale)))
    return NetworkTimeline(network, deltas)


@register_dynamics("regional_skew")
def _regional_skew(
    network: Network,
    length: int,
    fraction: float = 0.25,
    factor: float = 3.0,
    seed: int = 0,
) -> NetworkTimeline:
    """Regional demand skew: traffic *into* a seeded node region is scaled.

    A random region of ``round(fraction * n)`` nodes (at least one) receives
    ``factor``-times its nominal demand at every step — concentration
    without changing the network itself, so the LP optimum and the agent
    both face the same skewed matrices.
    """
    if not 0.0 < fraction <= 1.0:
        raise SpecValidationError(f"regional_skew needs 0 < fraction <= 1, got {fraction}")
    if not factor > 0.0:
        raise SpecValidationError(f"regional_skew needs factor > 0, got {factor}")
    n = network.num_nodes
    region = rng_from_seed(seed).choice(n, size=max(1, int(round(fraction * n))), replace=False)
    factors = np.ones((length, n, n))
    factors[:, :, region] *= float(factor)
    return NetworkTimeline(network, [NetworkDelta()] * length, demand_factors=factors)


@register_dynamics("flash_crowd")
def _flash_crowd(
    network: Network,
    length: int,
    hotspots: int = 1,
    factor: float = 5.0,
    start=None,
    duration=None,
    seed: int = 0,
) -> NetworkTimeline:
    """Flash-crowd burst: demand into hotspot nodes spikes for a window.

    ``hotspots`` seeded random destination nodes receive ``factor``-times
    their nominal demand during ``[start, start + duration)``; outside the
    burst window the traffic is untouched.  Defaults burst over the middle
    third of the sequence.
    """
    if not 1 <= hotspots <= network.num_nodes:
        raise SpecValidationError(
            f"flash_crowd needs 1 <= hotspots <= {network.num_nodes}, got {hotspots}"
        )
    if not factor > 0.0:
        raise SpecValidationError(f"flash_crowd needs factor > 0, got {factor}")
    if start is None and duration is None:
        burst_start, burst_end = _window(length, None, None, context="flash_crowd")
    else:
        burst_start = length // 3 if start is None else start
        burst_end = (
            max(int(burst_start) + 1, (2 * length) // 3)
            if duration is None
            else int(burst_start) + int(duration)
        )
        burst_start, burst_end = _window(length, burst_start, burst_end, context="flash_crowd")
    targets = rng_from_seed(seed).choice(network.num_nodes, size=hotspots, replace=False)
    factors = np.ones((length, network.num_nodes, network.num_nodes))
    factors[burst_start:burst_end][:, :, targets] *= float(factor)
    return NetworkTimeline(network, [NetworkDelta()] * length, demand_factors=factors)
