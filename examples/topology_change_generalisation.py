"""Surviving reconfiguration: one agent, many topologies.

The paper's headline benefit: networks are reconfigured often (links added
or removed, routers attached or retired), and an MLP agent must be
retrained from scratch each time — a GNN agent must not.  This example
trains the iterative GNN policy on a mixture of Abilene variants, then
applies the *same trained agent* to topologies it has never seen (fresh
random modifications and an entirely different random graph) with zero
additional work — a configurable-scale version of the paper's Figure 8.

Run:  python examples/topology_change_generalisation.py [--timesteps 4096]
"""

import argparse

from repro import (
    IterativeGNNPolicy,
    MultiGraphRoutingEnv,
    PPO,
    PPOConfig,
    abilene,
    batch_evaluate,
    batch_evaluate_routing,
    shortest_path_routing,
)
from repro.envs import RewardComputer
from repro.graphs import random_connected_network, random_modification
from repro.traffic import cyclical_sequence

MEMORY = 3


def sequences_for(network, seed, count=2):
    return [
        cyclical_sequence(network.num_nodes, 20, 5, seed=seed + i) for i in range(count)
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--timesteps", type=int, default=4096)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    base = abilene()
    rewarder = RewardComputer()

    # Train on Abilene plus two random modifications of it.
    train_graphs = [base] + [random_modification(base, seed=args.seed + i) for i in (1, 2)]
    pairs = [(g, sequences_for(g, seed=100 + i)) for i, g in enumerate(train_graphs)]
    print("Training topologies:")
    for g in train_graphs:
        print(f"  {g}")

    env = MultiGraphRoutingEnv(
        pairs, iterative=True, memory_length=MEMORY, reward_computer=rewarder, seed=args.seed
    )
    policy = IterativeGNNPolicy(memory_length=MEMORY, seed=args.seed)
    config = PPOConfig(n_steps=256, batch_size=64, n_epochs=4, learning_rate=5e-4)
    print(f"\nTraining the iterative GNN policy for {args.timesteps} timesteps...")
    PPO(policy, env, config, seed=args.seed + 1).learn(args.timesteps)

    # Apply, untouched, to topologies never seen during training.
    unseen = [
        ("fresh modification of Abilene", random_modification(base, seed=args.seed + 50)),
        ("another fresh modification", random_modification(base, seed=args.seed + 51)),
        ("entirely different random graph", random_connected_network(14, 8, seed=args.seed + 52)),
    ]
    print("\nZero-shot transfer (mean max-utilisation ratio, lower is better):")
    print(f"  {'topology':<34} {'GNN-Iterative':>14} {'shortest path':>14}")
    for label, network in unseen:
        test_seqs = sequences_for(network, seed=900)
        agent = batch_evaluate(
            policy,
            network,
            test_seqs,
            memory_length=MEMORY,
            iterative=True,
            reward_computer=rewarder,
        ).mean
        classical = batch_evaluate_routing(
            shortest_path_routing,
            network,
            test_seqs,
            memory_length=MEMORY,
            reward_computer=rewarder,
        ).mean
        print(f"  {label:<34} {agent:>14.3f} {classical:>14.3f}")
    print("\nThe same trained parameters were reused for every topology —")
    print("an MLP policy would have required retraining for each one.")


if __name__ == "__main__":
    main()
