"""Agent policies: the MLP baseline and the two GNN policies of the paper.

* :class:`~repro.policies.mlp.MLPPolicy` — the Valadarsky et al. baseline
  (paper §VII, Fig. 4): flattened demand history in, edge-weight vector out.
  Fixed input/output sizes, hence no topology generalisation.
* :class:`~repro.policies.gnn.GNNPolicy` — the one-shot GN policy (paper
  §VII-A, Fig. 5): encode-process-decode over the network graph; node
  inputs are per-vertex demand sums, edge outputs are the weights.
* :class:`~repro.policies.iterative.IterativeGNNPolicy` — the iterative
  policy (paper §VII-B): one edge is set per action, edge inputs carry
  ``(weight, set, target)`` markers, the global output is ``(weight, γ)``.

Each implements one batched forward, ``_forward_batch``; the shared
:class:`~repro.policies.base.ActorCriticPolicy` builds ``act_batch``
(inference for rollouts, evaluation and serving) and ``evaluate`` (the
differentiable PPO minibatch pass) on top of it.
"""

from repro.policies.base import ActorCriticPolicy
from repro.policies.mlp import MLPPolicy
from repro.policies.gnn import GNNPolicy
from repro.policies.iterative import IterativeGNNPolicy

__all__ = ["ActorCriticPolicy", "MLPPolicy", "GNNPolicy", "IterativeGNNPolicy"]
