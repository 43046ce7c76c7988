"""The GDDR reinforcement-learning environments (paper §V, Figure 1).

Each timestep: the agent observes the recent demand history, emits edge
weights (one-shot) or a single edge's weight (iterative), the softmin
translation turns weights into a routing, the simulator measures the
achieved max link utilisation on the *new* demand matrix, the LP oracle
supplies the optimum, and the reward is ``-U_agent / U_optimal``
(Equation 2).

* :class:`~repro.envs.routing_env.RoutingEnv` — one action per DM (the
  whole weight vector), fixed topology;
* :class:`~repro.envs.iterative_env.IterativeRoutingEnv` — one action per
  edge (paper §VII-B); reward arrives when the last edge is set;
* :class:`~repro.envs.multigraph.MultiGraphRoutingEnv` — samples a
  topology per episode, for the generalisation experiments (Fig. 8).

:func:`~repro.envs.factory.make_routing_env` picks and builds the one-shot
or iterative environment; training, evaluation and the multi-topology pool
all go through it.  Every one is chained (:mod:`repro.rl.env`), and its
``step`` is the chain protocol at a budget of one timestep.
"""

from repro.envs.observation import GraphObservation
from repro.envs.reward import (
    NonFiniteActionError,
    RewardComputer,
    gamma_from_action,
    weights_from_action,
)
from repro.envs.routing_env import RoutingEnv
from repro.envs.iterative_env import IterativeRoutingEnv
from repro.envs.factory import make_routing_env
from repro.envs.multigraph import MultiGraphRoutingEnv

__all__ = [
    "GraphObservation",
    "NonFiniteActionError",
    "RewardComputer",
    "weights_from_action",
    "gamma_from_action",
    "RoutingEnv",
    "IterativeRoutingEnv",
    "MultiGraphRoutingEnv",
    "make_routing_env",
]
