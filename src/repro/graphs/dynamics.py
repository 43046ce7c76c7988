"""Time-varying networks: structural deltas and per-step timelines.

The dynamics axis of a :class:`~repro.api.spec.ScenarioSpec` evaluates
routing against a *sequence* of networks instead of one frozen graph: a
link fails mid-sequence and recovers, capacities drift, demand skews into
a region or spikes in a flash crowd.  This module provides the two data
types every dynamics component builds on:

* :class:`NetworkDelta` — one structural perturbation of a base network
  (links removed, per-edge capacity scaling), applied immutably.  The
  identity delta applies to the base network *itself* (same object), so
  static steps share every cache entry with the static evaluation path.
* :class:`NetworkTimeline` — the per-step schedule: one delta per
  evaluation step plus an optional multiplicative demand overlay.
  Variants are memoised per distinct delta, so a link that fails for five
  steps materialises one network, not five.

Cache keying is the load-bearing part.  Perturbed variants are stamped
with a *delta fingerprint* — ``sha256(base_fingerprint || delta bytes)``
installed into the ``_lp_fingerprint`` slot that
:func:`repro.flows.lp.network_fingerprint` memoises on — so every keyed
cache (LP structures, ``splu`` factorisations, LP optima) keys a variant
by *which perturbation of which base* it is.  The digest is deterministic
across processes, and the originating ``(base, delta)`` pair stays
attached as ``variant._dynamics_delta``.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.graphs.network import Network


def _link_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class NetworkDelta:
    """One immutable structural perturbation of a base network.

    Parameters
    ----------
    removed_links:
        Undirected links ``(u, v)`` with ``u < v`` whose *both* directed
        edges are absent from the variant (a full-duplex link failure).
    capacity_scale:
        Optional per-edge multiplier aligned with the **base** network's
        directed edge list; entries for removed links are ignored.  All
        retained entries must be positive and finite.
    """

    removed_links: tuple = ()
    capacity_scale: Optional[tuple] = None

    def __post_init__(self):
        links = tuple(sorted(_link_key(int(u), int(v)) for u, v in self.removed_links))
        if len(set(links)) != len(links):
            raise ValueError(f"duplicate removed links in {links}")
        object.__setattr__(self, "removed_links", links)
        if self.capacity_scale is not None:
            scale = tuple(float(s) for s in self.capacity_scale)
            if not all(np.isfinite(s) and s > 0.0 for s in scale):
                raise ValueError("capacity_scale entries must be positive and finite")
            object.__setattr__(self, "capacity_scale", scale)

    @property
    def is_identity(self) -> bool:
        return not self.removed_links and self.capacity_scale is None

    def fingerprint_bytes(self) -> bytes:
        """Canonical byte encoding of this delta (the digest suffix)."""
        digest = hashlib.sha256()
        digest.update(struct.pack("<q", len(self.removed_links)))
        for u, v in self.removed_links:
            digest.update(struct.pack("<qq", u, v))
        if self.capacity_scale is not None:
            digest.update(np.asarray(self.capacity_scale, dtype=np.float64).tobytes())
        return digest.digest()

    def apply(self, base: Network) -> Network:
        """The perturbed variant of ``base`` (or ``base`` itself if identity).

        The variant keeps the base node set and directed-edge order (minus
        removed links), carries the delta fingerprint in its
        ``_lp_fingerprint`` slot, and records ``(base, delta)`` in
        ``_dynamics_delta``.
        """
        if self.is_identity:
            return base
        capacities = np.asarray(base.capacities, dtype=np.float64)
        if self.capacity_scale is not None:
            if len(self.capacity_scale) != base.num_edges:
                raise ValueError(
                    f"capacity_scale has {len(self.capacity_scale)} entries for a "
                    f"base network with {base.num_edges} edges"
                )
            capacities = capacities * np.asarray(self.capacity_scale, dtype=np.float64)
        removed = set(self.removed_links)
        base_links = {_link_key(u, v) for u, v in base.edges}
        missing = sorted(removed - base_links)
        if missing:
            raise ValueError(f"removed links {missing} are not links of {base.name!r}")
        keep = [
            i for i, (u, v) in enumerate(base.edges) if _link_key(u, v) not in removed
        ]
        if not keep:
            raise ValueError("delta removes every link of the base network")
        variant = Network(
            base.num_nodes,
            [base.edges[i] for i in keep],
            capacities[keep],
            name=f"{base.name}~dyn",
        )
        # Delta fingerprint: every KeyedLRU cache (LP structures, splu
        # factorisations, optima) keys this variant by (base structure,
        # perturbation) instead of re-digesting it as an unrelated
        # topology — deterministic across processes.
        from repro.flows.lp import network_fingerprint

        stamp = hashlib.sha256(
            network_fingerprint(base) + self.fingerprint_bytes()
        ).digest()
        variant._lp_fingerprint = stamp
        variant._dynamics_delta = (base, self)
        return variant


class NetworkTimeline:
    """A per-step schedule of network deltas plus a demand overlay.

    Parameters
    ----------
    base:
        The unperturbed network every delta applies to.
    deltas:
        One :class:`NetworkDelta` per step; step ``t`` of every evaluation
        sequence is scored against ``deltas[t].apply(base)``.
    demand_factors:
        Optional multiplicative overlay of shape ``(len(deltas), n, n)``
        applied elementwise to demand sequences (regional skew, flash
        crowds).  ``None`` leaves sequences untouched — and *identical as
        objects*, so the static path stays bit-identical.
    """

    def __init__(
        self,
        base: Network,
        deltas: Sequence[NetworkDelta],
        demand_factors: Optional[np.ndarray] = None,
    ):
        deltas = tuple(deltas)
        if not deltas:
            raise ValueError("a timeline needs at least one step")
        for delta in deltas:
            if not isinstance(delta, NetworkDelta):
                raise TypeError(f"deltas must be NetworkDelta, got {type(delta).__name__}")
        self.base = base
        self.deltas = deltas
        if demand_factors is not None:
            demand_factors = np.asarray(demand_factors, dtype=np.float64)
            n = base.num_nodes
            if demand_factors.shape != (len(deltas), n, n):
                raise ValueError(
                    f"demand_factors must have shape ({len(deltas)}, {n}, {n}), "
                    f"got {demand_factors.shape}"
                )
            if not np.all(np.isfinite(demand_factors)) or np.any(demand_factors < 0.0):
                raise ValueError("demand_factors must be finite and non-negative")
            if np.allclose(demand_factors, 1.0):
                demand_factors = None  # identity overlay: keep sequences shared
        self.demand_factors = demand_factors
        self._variants: dict[NetworkDelta, Network] = {}

    def __len__(self) -> int:
        return len(self.deltas)

    @property
    def is_trivial(self) -> bool:
        """True when every step is the base network under unscaled demand."""
        return self.demand_factors is None and all(d.is_identity for d in self.deltas)

    def network_at(self, step: int) -> Network:
        """The network in force at ``step`` (memoised per distinct delta)."""
        if not 0 <= step < len(self.deltas):
            raise IndexError(f"step {step} outside timeline of length {len(self.deltas)}")
        delta = self.deltas[step]
        variant = self._variants.get(delta)
        if variant is None:
            variant = delta.apply(self.base)
            self._variants[delta] = variant
        return variant

    def networks(self) -> list[Network]:
        """Every distinct per-step network, in first-use order."""
        out: list[Network] = []
        seen: set[int] = set()
        for step in range(len(self.deltas)):
            network = self.network_at(step)
            if id(network) not in seen:
                seen.add(id(network))
                out.append(network)
        return out

    def transform_sequence(self, sequence):
        """``sequence`` under the demand overlay (the same object when none).

        Accepts any :class:`~repro.traffic.sequences.DemandSequence`-shaped
        object; the overlay is truncated/validated against the sequence
        length, which must not exceed the timeline's.
        """
        if self.demand_factors is None:
            return sequence
        from repro.traffic.sequences import DemandSequence

        if len(sequence) > len(self.deltas):
            raise ValueError(
                f"sequence of length {len(sequence)} exceeds timeline of "
                f"length {len(self.deltas)}"
            )
        demands = sequence.demands * self.demand_factors[: len(sequence)]
        return DemandSequence(demands, cycle_length=0)


def identity_timeline(base: Network, length: int) -> NetworkTimeline:
    """A static timeline: the base network, unscaled demand, every step."""
    return NetworkTimeline(base, [NetworkDelta()] * max(1, int(length)))


__all__ = ["NetworkDelta", "NetworkTimeline", "identity_timeline"]
