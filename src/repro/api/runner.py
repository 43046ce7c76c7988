"""The scenario runner: build → train → batch-evaluate, driven by a spec.

:func:`run` is the single execution path behind every experiment — the
bundled figure presets, JSON scenarios from disk and programmatic sweeps
all pass through here, so multi-seed / multi-topology evaluation always
rides the vectorized engine (:func:`repro.engine.batch_evaluate` /
:func:`repro.engine.batch_evaluate_routing`).

Seed choreography (bit-compatible with the pre-API figure runners, so
historical numbers reproduce): with scenario seed
``s``, single-topology scenarios draw one train/test sequence split from
``s``; pool scenarios draw per-graph training splits from ``s + 100 + i``
and held-out test splits from ``s + 200 + i``; the ``i``-th policy trains
with environment/PPO seed ``s + 1 + i``; policy parameters initialise from
``s`` itself.
"""

from __future__ import annotations

import time

from repro.api.registry import DYNAMICS, POLICIES, STRATEGIES, TOPOLOGIES, TRAFFIC_MODELS
from repro.api.results import EvaluationResult, LearningCurve, ScenarioResult, merge_results
from repro.api.spec import PolicySpec, ScenarioSpec, SpecValidationError
from repro.engine.evaluate import batch_evaluate, batch_evaluate_routing, warm_lp_cache
from repro.envs.factory import make_routing_env
from repro.envs.multigraph import MultiGraphRoutingEnv
from repro.envs.reward import RewardComputer
from repro.experiments.config import ExperimentScale
from repro.flows.lp import network_fingerprint
from repro.graphs.network import Network
from repro.rl.ppo import PPO, PPOConfig
from repro.traffic.sequences import train_test_sequences
from repro.utils.logging import RunLogger


def _ppo_config(scale: ExperimentScale, profile: str) -> PPOConfig:
    """Per-agent PPO settings (agents are tuned separately, paper §VIII-C)."""
    if profile == "mlp":
        return PPOConfig(
            n_steps=scale.n_steps,
            batch_size=scale.batch_size,
            n_epochs=scale.n_epochs,
            learning_rate=scale.mlp_learning_rate,
            linear_lr_decay=scale.mlp_linear_lr_decay,
        )
    return PPOConfig(
        n_steps=scale.n_steps,
        batch_size=scale.batch_size,
        n_epochs=scale.n_epochs,
        learning_rate=scale.learning_rate,
    )


def _build_topology(spec: ScenarioSpec) -> tuple[list[Network], list[Network], bool]:
    """Resolve the topology axis into (train_graphs, test_graphs, single)."""
    builder = TOPOLOGIES.get(spec.topology.name)
    try:
        built = builder(**spec.topology.params)
    except TypeError as exc:
        raise SpecValidationError(
            f"topology {spec.topology.name!r} rejected params {spec.topology.params}: {exc}"
        ) from None
    if isinstance(built, Network):
        return [built], [built], True
    try:
        train_graphs, test_graphs = built
        train_graphs, test_graphs = list(train_graphs), list(test_graphs)
    except (TypeError, ValueError):
        raise SpecValidationError(
            f"topology builder {spec.topology.name!r} must return a Network or a "
            f"(train_graphs, test_graphs) pair, got {type(built).__name__}"
        ) from None
    if not train_graphs or not test_graphs:
        raise SpecValidationError(
            f"topology {spec.topology.name!r} produced an empty train or test pool"
        )
    return train_graphs, test_graphs, False


def _build_policy(pspec: PolicySpec, networks: list[Network], scale: ExperimentScale, seed: int):
    builder = POLICIES.get(pspec.name)
    try:
        policy = builder(networks, scale, seed, **pspec.params)
    except TypeError as exc:
        raise SpecValidationError(
            f"policy {pspec.name!r} rejected params {pspec.params}: {exc}"
        ) from None
    return policy, bool(getattr(builder, "iterative", False))


def _dynamics_factory(spec: ScenarioSpec):
    """The engine-facing ``(network, length) -> NetworkTimeline`` factory.

    ``None`` when the scenario is static — the batch paths then skip the
    dynamics machinery entirely, keeping them bit-identical to pre-dynamics
    behaviour.  Every draw a dynamics builder makes is seeded from its spec
    params, so the factory is deliberately independent of the run seed and
    builds each (network fingerprint, length) timeline once per run.
    """
    if spec.dynamics is None:
        return None
    builder = DYNAMICS.get(spec.dynamics.name)
    name, params = spec.dynamics.name, spec.dynamics.params
    timelines: dict = {}

    def factory(network: Network, length: int):
        key = (network_fingerprint(network), length)
        if key not in timelines:
            try:
                timelines[key] = builder(network, length, **params)
            except TypeError as exc:
                raise SpecValidationError(
                    f"dynamics {name!r} rejected params {params}: {exc}"
                ) from None
        return timelines[key]

    return factory


def _strategy_factory(sspec):
    builder = STRATEGIES.get(sspec.name)

    def factory(network: Network):
        try:
            return builder(network, **sspec.params)
        except TypeError as exc:
            raise SpecValidationError(
                f"strategy {sspec.name!r} rejected params {sspec.params}: {exc}"
            ) from None

    return factory


class _SeedRun:
    """One scenario execution at a fixed seed."""

    def __init__(self, spec: ScenarioSpec, seed: int, echo: bool):
        self.spec = spec
        self.seed = seed
        self.echo = echo
        self.scale = spec.training.scale()
        self.train_graphs, self.test_graphs, self.single = _build_topology(spec)
        self.rewarder = RewardComputer()
        self.dynamics = _dynamics_factory(spec)
        self.model = TRAFFIC_MODELS.get(spec.traffic.model)
        traffic = spec.traffic
        # ``is not None`` throughout: an explicit spec value always wins,
        # even one that happens to be falsy (spec validation rejects
        # non-positive values, but the fallback must never mask them).
        self.seq_kwargs = dict(
            num_train=traffic.num_train
            if traffic.num_train is not None
            else self.scale.num_train_sequences,
            num_test=traffic.num_test
            if traffic.num_test is not None
            else self.scale.num_test_sequences,
            length=traffic.length if traffic.length is not None else self.scale.sequence_length,
            cycle_length=traffic.cycle_length
            if traffic.cycle_length is not None
            else self.scale.cycle_length,
            model=self.model,
            **traffic.params,
        )
        self._build_sequences()

    def _split(self, network: Network, seed: int):
        try:
            return train_test_sequences(network.num_nodes, seed=seed, **self.seq_kwargs)
        except (TypeError, ValueError) as exc:
            raise SpecValidationError(
                f"traffic model {self.spec.traffic.model!r} with params "
                f"{self.spec.traffic.params} failed: {exc}"
            ) from None

    def _build_sequences(self) -> None:
        if self.single:
            network = self.train_graphs[0]
            self.train_seqs, self.test_seqs = self._split(network, self.seed)
            self.train_groups = [self.train_seqs]
            self.test_groups = [self.test_seqs]
        else:
            self.train_groups = [
                self._split(g, self.seed + 100 + i)[0] for i, g in enumerate(self.train_graphs)
            ]
            self.test_groups = [
                self._split(g, self.seed + 200 + i)[1] for i, g in enumerate(self.test_graphs)
            ]

    # -- training ------------------------------------------------------

    def _train_env(self, iterative: bool, seed: int):
        """The environment a policy trains on, its sequence draws seeded by ``seed``."""
        scale = self.scale
        options = dict(
            iterative=iterative,
            memory_length=scale.memory_length,
            softmin_gamma=scale.softmin_gamma,
            weight_scale=scale.weight_scale,
            reward_computer=self.rewarder,
            seed=seed,
        )
        if not self.single:
            return MultiGraphRoutingEnv(list(zip(self.train_graphs, self.train_groups)), **options)
        return make_routing_env(self.train_graphs[0], self.train_seqs, **options)

    def train_policies(self) -> dict[str, tuple[object, bool, LearningCurve]]:
        """Train every policy in spec order; returns label -> (policy, iterative, curve)."""
        if self.single and self.spec.routing.policies:
            # Strategy-only scenarios skip the warm pass: without training
            # there is no rollout to interleave with LP solves, and the
            # evaluation fills the same cache lazily with exactly the
            # optima it needs (large sparse topologies would otherwise pay
            # for training sequences nothing ever consumes).
            # Dynamic scenarios warm only the training workload here: the
            # evaluation pass re-warms per perturbed variant (with the
            # demand overlay applied), so base-graph optima for the test
            # sequences would largely go unused.
            warm = (
                self.train_seqs + self.test_seqs
                if self.dynamics is None
                else self.train_seqs
            )
            warm_lp_cache(self.train_graphs[0], warm, self.rewarder)
        trained: dict[str, tuple[object, bool, LearningCurve]] = {}
        for i, pspec in enumerate(self.spec.routing.policies):
            policy, iterative = _build_policy(
                pspec, self.train_graphs + self.test_graphs, self.scale, self.seed
            )
            train_seed = self.seed + 1 + i
            logger = RunLogger(echo=self.echo)
            env = self._train_env(iterative, train_seed)
            PPO(policy, env, _ppo_config(self.scale, pspec.ppo), seed=train_seed, logger=logger)\
                .learn(self.scale.total_timesteps)
            curve = LearningCurve(
                label=pspec.key,
                timesteps=tuple(logger.column("timesteps")),
                mean_episode_rewards=tuple(logger.column("mean_episode_reward")),
            )
            trained[pspec.key] = (policy, iterative, curve)
        return trained

    # -- evaluation ----------------------------------------------------

    def _eval_args(self):
        if self.single:
            return self.test_graphs[0], self.test_groups[0]
        return self.test_graphs, self.test_groups

    def evaluate_policies(self, trained) -> dict[str, EvaluationResult]:
        networks, groups = self._eval_args()
        out = {}
        for label, (policy, iterative, _) in trained.items():
            out[label] = batch_evaluate(
                policy,
                networks,
                groups,
                iterative=iterative,
                memory_length=self.scale.memory_length,
                softmin_gamma=self.scale.softmin_gamma,
                weight_scale=self.scale.weight_scale,
                reward_computer=self.rewarder,
                backend=self.spec.evaluation.backend,
                dynamics=self.dynamics,
            ).combined
        return out

    def evaluate_strategies(self) -> dict[str, EvaluationResult]:
        networks, groups = self._eval_args()
        out = {}
        for sspec in self.spec.routing.strategies:
            out[sspec.key] = batch_evaluate_routing(
                _strategy_factory(sspec),
                networks,
                groups,
                memory_length=self.scale.memory_length,
                reward_computer=self.rewarder,
                backend=self.spec.evaluation.backend,
                dynamics=self.dynamics,
            ).combined
        return out

    # -- throughput ----------------------------------------------------

    def measure_throughput(self) -> dict[str, float]:
        """Environment steps/second per policy on the training loop (§VIII-D)."""
        if not self.single:
            raise SpecValidationError(
                "the throughput metric requires a single-topology scenario"
            )
        scale = self.scale
        out: dict[str, float] = {}
        for pspec in self.spec.routing.policies:
            policy, iterative = _build_policy(
                pspec, self.train_graphs + self.test_graphs, scale, self.seed
            )
            ppo = PPO(
                policy,
                self._train_env(iterative, self.seed),
                _ppo_config(scale, pspec.ppo),
                seed=self.seed,
            )
            # Warm the LP cache so timings measure agent cost, not solves.
            ppo.learn(scale.n_steps)
            start = time.perf_counter()
            ppo.learn(scale.total_timesteps)
            out[pspec.key] = scale.total_timesteps / (time.perf_counter() - start)
        return out


def _run_seed(spec: ScenarioSpec, seed: int, echo: bool) -> ScenarioResult:
    """One evaluation seed's complete pipeline as a single-seed result.

    This is the sweep executor's unit of work: :func:`run` merges these
    per-seed parts through :func:`repro.api.results.merge_results`, and
    :func:`repro.api.sweep.sweep` runs the same parts in worker processes
    — one pooling implementation serves both paths.
    """
    metrics = spec.evaluation.metrics
    policies: dict[str, EvaluationResult] = {}
    strategies: dict[str, EvaluationResult] = {}
    per_seed: dict[int, dict[str, EvaluationResult]] = {}
    curves: dict[str, tuple[LearningCurve, ...]] = {}
    throughput: dict[str, float] = {}

    seed_run = _SeedRun(spec, seed, echo)
    if "utilisation_ratio" in metrics or "learning_curve" in metrics:
        trained = seed_run.train_policies()
        if "learning_curve" in metrics:
            curves = {label: (curve,) for label, (_, _, curve) in trained.items()}
        if "utilisation_ratio" in metrics:
            policies = seed_run.evaluate_policies(trained)
            strategies = seed_run.evaluate_strategies()
            per_seed[seed] = {**policies, **strategies}
    if "throughput" in metrics:
        throughput = seed_run.measure_throughput()

    return ScenarioResult(
        spec=spec,
        policies=policies,
        strategies=strategies,
        per_seed=per_seed,
        curves=curves,
        throughput=throughput,
    )


def run(spec: ScenarioSpec, echo: bool = False) -> ScenarioResult:
    """Execute a scenario spec end-to-end and return its results.

    Builds the topology and traffic workload, trains every learned policy,
    evaluates policies and fixed strategies through the vectorized batch
    engine, and repeats the whole pipeline for each evaluation seed —
    ratios pool across seeds, learning curves are kept per seed.  The
    pooling itself is :func:`repro.api.results.merge_results` over the
    per-seed parts, the same merge the sweep executor applies to
    fanned-out sub-runs, so ``sweep(spec, workers=k)`` stays bit-identical
    to ``run(spec)`` by construction.

    Parameters
    ----------
    spec:
        The scenario to run, or anything :meth:`ScenarioSpec.from_dict`
        accepts (a plain dict loaded from JSON works).
    echo:
        Print per-update training diagnostics.
    """
    if not isinstance(spec, ScenarioSpec):
        spec = ScenarioSpec.from_dict(spec)
    return merge_results(
        spec, [_run_seed(spec, seed, echo) for seed in spec.evaluation.seeds]
    )


__all__ = ["run"]
