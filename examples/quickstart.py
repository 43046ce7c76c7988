"""Quickstart: the GDDR loop in ~60 lines.

Builds the Abilene backbone, generates a cyclical bimodal demand sequence,
compares the classical baselines against the LP optimum, then trains a
small GNN agent with PPO and shows it improving on held-out demand.

Run:  python examples/quickstart.py
"""

from repro import (
    GNNPolicy,
    PPO,
    PPOConfig,
    RoutingEnv,
    abilene,
    batch_evaluate,
    ecmp_routing,
    shortest_path_routing,
    train_test_sequences,
)
from repro.envs import RewardComputer
from repro.routing import oblivious_routing


def main():
    # 1. Topology and workload -------------------------------------------
    network = abilene()
    print(f"Topology: {network}")
    train_seqs, test_seqs = train_test_sequences(
        network.num_nodes, num_train=3, num_test=1, length=20, cycle_length=5, seed=0
    )
    demand = test_seqs[0].matrix(0)
    rewarder = RewardComputer()  # scores U_agent / U_optimal, caching LP optima

    # 2. Classical baselines vs the LP optimum ---------------------------
    print("\nMax-utilisation ratio vs LP optimum on one demand matrix:")
    for label, routing in [
        ("shortest path", shortest_path_routing(network)),
        ("ECMP", ecmp_routing(network)),
        ("oblivious (LP for uniform demand)", oblivious_routing(network)),
    ]:
        ratio = rewarder.utilisation_ratio(network, routing, demand)
        print(f"  {label:<34} {ratio:.3f}")

    # 3. Train a GNN agent with PPO ---------------------------------------
    env = RoutingEnv(network, train_seqs, memory_length=3, reward_computer=rewarder, seed=1)
    policy = GNNPolicy(memory_length=3, latent=16, hidden=32, num_processing_steps=3, seed=1)

    config = PPOConfig(n_steps=128, batch_size=64, n_epochs=4, learning_rate=5e-4)
    print("\nTraining a GNN agent with PPO (2048 timesteps, a few seconds)...")
    PPO(policy, env, config, seed=2).learn(2048)

    # batch_evaluate scores many sequences/topologies in one call on the
    # vectorized evaluation engine; here it is one network's test sequences.
    result = batch_evaluate(
        policy, network, test_seqs, memory_length=3, reward_computer=rewarder
    )
    sp_ratio = rewarder.utilisation_ratio(network, shortest_path_routing(network), demand)
    print(f"GNN agent on held-out demand:  {result.mean:.3f}")
    print(f"shortest path on the same DM:  {sp_ratio:.3f}")
    print("(1.0 = optimal multicommodity-flow routing; lower is better)")
    print(
        "\nAt this toy budget the agent matches ECMP-grade multipath routing and"
        "\nbeats single-path shortest path; see examples/isp_backbone_comparison.py"
        "\nfor a longer run on the paper's Figure 6 workload."
    )


if __name__ == "__main__":
    main()
