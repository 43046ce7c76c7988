"""Hyperparameter tuning before training (the paper's OpenTuner pass).

§VIII-C: "Before training, the hyperparameters were tuned using OpenTuner
with a custom script."  This example reproduces that workflow with a
successive-halving search over PPO's learning rate, the softmin γ and the
policy's latent width, scored by mean episode reward after a short
training run on Abilene.

Run:  python examples/hyperparameter_tuning.py [--configs 6]
"""

import argparse

import numpy as np

from repro import GNNPolicy, PPO, PPOConfig, RoutingEnv, abilene
from repro.envs import RewardComputer
from repro.traffic import train_test_sequences
from repro.utils import rng_from_seed


def sample_config(rng):
    """One random configuration: log-uniform rate, uniform γ, latent choice."""
    return {
        "learning_rate": float(np.exp(rng.uniform(np.log(1e-4), np.log(3e-3)))),
        "softmin_gamma": float(rng.uniform(1.0, 6.0)),
        "latent": (8, 16)[int(rng.integers(0, 2))],
    }


def successive_halving(objective, configs):
    """Start wide and cheap, finish narrow and deep.

    Every config is scored at budget 1; the better half advance with twice
    the budget until one remains.  Returns its ``(config, score, budget)``.
    """
    budget = 1
    trials = [(config, objective(config, budget)) for config in configs]
    while len(trials) > 1:
        trials.sort(key=lambda trial: trial[1], reverse=True)
        budget *= 2
        trials = [(config, objective(config, budget)) for config, _ in trials[: len(trials) // 2]]
    config, score = trials[0]
    return config, score, budget


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--configs", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.configs < 2:
        parser.error("--configs must be at least 2")

    network = abilene()
    train_seqs, _ = train_test_sequences(
        network.num_nodes, num_train=3, num_test=1, length=16, cycle_length=4, seed=args.seed
    )
    rewarder = RewardComputer()  # share LP solves across all trials

    def objective(config, budget):
        env = RoutingEnv(
            network,
            train_seqs,
            memory_length=3,
            softmin_gamma=config["softmin_gamma"],
            reward_computer=rewarder,
            seed=args.seed,
        )
        policy = GNNPolicy(
            memory_length=3, latent=config["latent"], hidden=2 * config["latent"],
            num_processing_steps=2, seed=args.seed,
        )
        ppo_config = PPOConfig(
            n_steps=64, batch_size=32, n_epochs=2, learning_rate=config["learning_rate"]
        )
        ppo = PPO(policy, env, ppo_config, seed=args.seed)
        ppo.learn(64 * budget)
        score = float(ppo.stats.recent_mean_reward())
        print(
            f"  trial lr={config['learning_rate']:.2e} gamma={config['softmin_gamma']:.2f} "
            f"latent={config['latent']} budget={budget:<2} -> mean episode reward {score:.2f}"
        )
        return score

    print(f"Successive halving over {args.configs} configurations:")
    rng = rng_from_seed(args.seed)
    configs = [sample_config(rng) for _ in range(args.configs)]
    config, score, budget = successive_halving(objective, configs)
    print("\nBest configuration:")
    for key, value in config.items():
        print(f"  {key} = {value}")
    print(f"  final score = {score:.2f} at budget {budget}")


if __name__ == "__main__":
    main()
