"""Serve workloads: ``runner serve fig6`` in a subprocess, driven over HTTP.

The server is a separate process, so the load generator does not share
its interpreter lock.  The requests are built here from the bench seed;
the server only sees demand matrices and histories.

- ``replay``: the preset's held-out test demand matrices, each with its
  real ``memory_length`` history window, in a seed-drawn order.  The
  server presolves these optima at start-up, so every request is an LP
  cache hit.
- ``fresh``: a never-seen bimodal matrix per request, drawn from the bench
  seed, with the previous matrices of the same stream as its history.
  Every request misses the optimum cache and pays an LP re-solve.

The server and the load generator each run on a processor of their own.
The load runs in segments of :data:`SEGMENT_S`; between segments the
server is idle and both processors' speeds are calibrated, which scales
the load's times to the reference speed.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
import time
from time import perf_counter
from typing import NamedTuple

from common import (
    HERE,
    BenchError,
    Child,
    calibrate,
    cpus,
    nproc,
    on_cpu,
    payload,
    percentile,
    ratios_ok,
    speed_scale,
    summary,
)
from metrics import layer_metrics
from tracer import coverage, layer_table, self_times

SCENARIO = "fig6"
#: The open loop's fixed rate.  It keeps the server's processor about a
#: third busy, so that when the host slows that processor by up to 1.7x
#: the queue still does not grow and the latency stays the program's.
RATE_RPS = 50.0
SEGMENT_S = 1.0
#: Open-loop sender threads.  They wait on sockets, not the processor;
#: four keep a slow reply from holding back the next due request.
SENDERS = 4
SLO_MS = 50.0
PRIME_REQUESTS = 50
MEASURED_SPAWNS = 3
SPAWN_TIMEOUT_S = 150.0
DRAIN_TIMEOUT_S = 30.0
#: Served shortest-path ratios must match the offline batch evaluator.
OFFLINE_TOLERANCE = 1e-8
#: Closed-loop requests are drawn up front, enough for this rate.
CLOSED_LOOP_MAX_RPS = 1000.0


# -- requests --------------------------------------------------------------


class RequestSource:
    """Demand matrix + history for request ``i``, fixed by the bench seed."""

    def __init__(self, kind: str, seed: int, size: int):
        import numpy as np

        from repro.api.presets import get_scenario
        from repro.api.registry import TOPOLOGIES, TRAFFIC_MODELS
        from repro.traffic.matrices import bimodal_matrix
        from repro.traffic.sequences import train_test_sequences

        spec = get_scenario(SCENARIO)
        scale = spec.training.scale()
        traffic = spec.traffic
        self.spec = spec
        self.memory = scale.memory_length
        self.network = TOPOLOGIES.get(spec.topology.name)(**spec.topology.params)
        self.size = size
        rng = np.random.default_rng(seed)
        n = self.network.num_nodes
        if kind == "replay":
            # The same split the runner draws for its evaluation seed.
            def given(value, default):
                return default if value is None else value

            _, self.test_sequences = train_test_sequences(
                n,
                num_train=given(traffic.num_train, scale.num_train_sequences),
                num_test=given(traffic.num_test, scale.num_test_sequences),
                length=given(traffic.length, scale.sequence_length),
                cycle_length=given(traffic.cycle_length, scale.cycle_length),
                seed=spec.evaluation.seeds[0],
                model=TRAFFIC_MODELS.get(traffic.model),
                **traffic.params,
            )
            self.pool = [
                (sequence.matrix(t), sequence.history(t - 1, self.memory))
                for sequence in self.test_sequences
                for t in range(self.memory, len(sequence))
            ]
            self.order = rng.integers(len(self.pool), size=size)
            self.stream = None
        else:
            self.stream = np.stack(
                [np.zeros((n, n))] * self.memory
                + [bimodal_matrix(n, seed=rng) for _ in range(size)]
            )

    def request(self, index: int) -> tuple:
        """``(demand, history, replay key or None)``."""
        if self.stream is None:
            key = int(self.order[index])
            demand, history = self.pool[key]
            return demand, history, key
        window = self.stream[index : index + self.memory + 1]
        return window[-1], window[:-1], None

    def offline_shortest_path(self) -> list:
        """Offline ``batch_evaluate_routing`` ratios, aligned with the replay pool."""
        from repro.api.registry import STRATEGIES
        from repro.engine.evaluate import batch_evaluate_routing

        return list(
            batch_evaluate_routing(
                STRATEGIES.get("shortest_path"),
                self.network,
                self.test_sequences,
                memory_length=self.memory,
                backend=self.spec.evaluation.backend,
            ).ratios
        )


def send(client, source: RequestSource, labels, index: int, tag: str, due=None) -> dict:
    from repro.api.client import ServiceError

    demand, history, key = source.request(index)
    sent = perf_counter()
    try:
        response = client.evaluate(
            demand, history=history, labels=labels, request_id=f"{tag}{index}"
        )
        error = None
    except ServiceError as exc:
        response, error = None, f"{type(exc).__name__}: {exc}"
    return {
        "id": f"{tag}{index}",
        "due": sent if due is None else due,
        "sent": sent,
        "done": perf_counter(),
        "response": response,
        "error": error,
        "key": key,
    }


def open_loop(client, source, labels, first: int, count: int, senders: int) -> list:
    """``count`` requests due at fixed ``RATE_RPS`` intervals, whatever the replies."""
    records: list = [None] * count
    indices = itertools.count()  # next() is atomic under the GIL
    start = perf_counter() + 0.05

    def sender():
        for k in indices:
            if k >= count:
                return
            due = start + k / RATE_RPS
            delay = due - perf_counter()
            if delay > 0.0:
                time.sleep(delay)
            records[k] = send(client, source, labels, first + k, "o", due)

    threads = [threading.Thread(target=sender) for _ in range(senders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def closed_loop(client, source, labels, first: int, seconds: float, callers: int) -> tuple:
    """Each caller sends its next request when the last one answers.

    Returns ``(records, elapsed seconds, first request index not sent)``.
    """
    indices = itertools.count(first)
    per_caller: list = [[] for _ in range(callers)]
    start = perf_counter()
    stop_at = start + seconds

    def caller(records):
        for index in indices:
            if index >= source.size or perf_counter() >= stop_at:
                return
            records.append(send(client, source, labels, index, "c"))

    threads = [threading.Thread(target=caller, args=(mine,)) for mine in per_caller]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    records = [record for mine in per_caller for record in mine]
    elapsed = max((record["done"] for record in records), default=stop_at) - start
    return records, elapsed, next(indices)


def check_record(record: dict, labels) -> list:
    """Problems with one answered request (empty when correct)."""
    if record["error"] is not None:
        return [f"{record['id']}: {record['error']}"]
    response = record["response"]
    problems = []
    if response.request_id != record["id"]:
        problems.append(f"{record['id']}: answered as {response.request_id!r}")
    if sorted(response.ratios) != sorted(labels):
        problems.append(f"{record['id']}: labels {sorted(response.ratios)}")
    if not ratios_ok(response.ratios.values()):
        problems.append(f"{record['id']}: ratio below 1 or not finite")
    return problems


def check_replay(record: dict, offline: list, answers: dict) -> list:
    """Served shortest-path ratio vs offline, and the same answer for the same DM."""
    problems = []
    ratios = record["response"].ratios
    served, expected = ratios.get("shortest_path"), offline[record["key"]]
    if served is not None and abs(served - expected) > OFFLINE_TOLERANCE:
        problems.append(f"{record['id']}: shortest_path {served!r} != offline {expected!r}")
    if ratios != answers.setdefault(record["key"], ratios):
        problems.append(f"{record['id']}: ratios differ from an earlier answer to the same DM")
    return problems


# -- server processes ------------------------------------------------------


class Placement(NamedTuple):
    """Processors of the load generator and the server: apart when there are two."""

    load: int
    server: int

    @classmethod
    def here(cls) -> "Placement":
        available = cpus()
        return cls(available[0], available[-1])

    def calibrate(self) -> list:
        """The current speed of each processor the workload uses."""
        return [calibrate(cpu) for cpu in sorted({self.load, self.server})]


class Server:
    """One ``runner serve`` process (or the traced launcher) and a client."""

    def __init__(self, traced: bool, smoke: bool, placement: Placement):
        from repro.api.client import Client

        args = ["serve", SCENARIO, "--port", "0"] + ["--timesteps", "64"] * smoke
        if traced:
            args = [sys.executable, str(HERE / "traced_serve.py"), *args]
        else:
            args = [sys.executable, "-m", "repro.experiments.runner", *args]
        self.placement = placement
        before = calibrate(placement.server)
        self.child = Child(args, cpu=placement.server)
        try:
            ready_at, line = self.child.wait_line("serving ", SPAWN_TIMEOUT_S)
            after = calibrate(placement.server)  # the server is idle once it serves
        except BaseException:
            self.child.close()
            raise
        self.setup_s = ready_at - self.child.started
        self.calibration_s = [before, after]
        self.setup_ref_s = self.setup_s * speed_scale(before, after)
        port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        self.client = Client(port=port, max_retries=0, timeout=30.0)

    def stop(self) -> list:
        """SIGTERM and wait for the drain; returns problems (empty when clean)."""
        self.child.terminate()
        try:
            code = self.child.finish(DRAIN_TIMEOUT_S)
        finally:
            self.child.close()
        clean = any(line == "drained: clean shutdown" for _, line in self.child.lines)
        if code != 0 or not clean:
            return [f"server did not drain cleanly (exit {code}):\n{self.child.tail()}"]
        return []


def stats_delta(before: dict, after: dict) -> dict:
    caches = {
        kind: tuple(
            after["caches"][name][key] - before["caches"][name][key] for key in ("hits", "misses")
        )
        for kind, name in (
            ("optimum", "optima"),
            ("structure", "lp_structures"),
            ("factorisation", "factorisations"),
        )
    }
    delta = {k: after[k] - before[k] for k in ("ticks", "requests", "shed", "deadline_expired")}
    delta["caches"] = caches
    return delta


def latencies_ms(records: list, start: str) -> list:
    """Per-request latency from ``start`` ("due" or "sent"); failures count as infinite."""
    return [
        math.inf if record["error"] else (record["done"] - record[start]) * 1000.0
        for record in records
    ]


def load_phase(server, source, labels, seconds_open, seconds_closed, smoke) -> dict:
    """Prime, open loop, optional closed loop; /stats read around the load.

    The load generator runs on its own processor.  Both loops run in
    segments of :data:`SEGMENT_S` with both processors calibrated between
    them.  Each loop gets one ``*_scale`` to the reference speed, from the
    mean of the calibrations around its segments: the speed flips between
    two levels from one segment to the next, and the mean follows the
    share of time spent at each, as the loop's latencies do.
    """
    callers = min(nproc(), 4)
    with on_cpu(server.placement.load):
        return _load(server, source, labels, seconds_open, seconds_closed, smoke, callers)


def _load(server, source, labels, seconds_open, seconds_closed, smoke, callers) -> dict:
    prime = 3 if smoke else PRIME_REQUESTS
    records = [send(server.client, source, labels, i, "p") for i in range(prime)]
    before = server.client.stats()
    calibrations = [server.placement.calibrate()]

    count = max(1, int(RATE_RPS * seconds_open))
    per_segment = int(RATE_RPS * SEGMENT_S)
    opened: list = []
    for first in range(prime, prime + count, per_segment):
        size = min(per_segment, prime + count - first)
        opened += open_loop(server.client, source, labels, first, size, SENDERS)
        calibrations.append(server.placement.calibrate())
    open_calibrations = calibrations[:]

    closed: list = []
    closed_s = 0.0
    segments = math.ceil(seconds_closed / SEGMENT_S)
    index = prime + count
    for _ in range(segments):
        part, elapsed, index = closed_loop(
            server.client, source, labels, index, seconds_closed / segments, callers
        )
        closed += part
        closed_s += elapsed
        calibrations.append(server.placement.calibrate())
    closed_calibrations = calibrations[len(open_calibrations) - 1 :]
    after = server.client.stats()

    def scale(points: list) -> float:
        return speed_scale(*(c for point in points for c in point))

    return {
        "prime": records,
        "open": opened,
        "open_scale": scale(open_calibrations),
        "closed": closed,
        "closed_s": closed_s,
        "closed_scale": scale(closed_calibrations),
        "calibration_s": [c for point in calibrations for c in point],
        "stats": stats_delta(before, after),
    }


def zero_demand_check(server, source, labels) -> list:
    import numpy as np

    n = source.network.num_nodes
    response = server.client.evaluate(
        np.zeros((n, n)), history=np.zeros((source.memory, n, n)), labels=labels,
        request_id="z0",
    )
    if any(ratio != 1.0 for ratio in response.ratios.values()):
        return [f"all-zero demand answered {response.ratios}, expected 1.0 for every label"]
    return []


def service_layers(load: dict) -> dict:
    """Per-layer numbers an untraced server gives: /stats deltas and response fields."""
    answered = [r for r in load["open"] if r["response"] is not None]
    ticks = [r["response"].elapsed_ms for r in answered]
    outside = [(r["done"] - r["sent"]) * 1000.0 - r["response"].elapsed_ms for r in answered]
    stats = load["stats"]
    return {
        "service.tick_ms": percentile(ticks, 50) if ticks else 0.0,
        "service.outside_tick_ms": percentile(outside, 50) if outside else 0.0,
        "service.coalesced_mean": stats["requests"] / stats["ticks"] if stats["ticks"] else 0.0,
        "service.shed": float(stats["shed"] + stats["deadline_expired"]),
        "bench.gen_lag_p99_ms": percentile(
            [(r["sent"] - r["due"]) * 1000.0 for r in load["open"]], 99
        ),
    }


def traced_layers(spans: list, load_ids: set, caches: dict) -> dict:
    """Span-derived per-layer metrics over the open-loop requests.

    A tick runs on the batcher thread while the handler thread waits in
    ``service.evaluate``; the tick is re-parented under the waiting span of
    its first request, so that span's self time is the request's queue wait
    and each request has one root, its HTTP handler.
    """
    by_id = {span[0]: span for span in spans}

    def root_of(span):
        while span[1] is not None:
            span = by_id[span[1]]
        return span

    def ids_of(span):
        rid = root_of(span)[5]
        return set(rid.split(",")) if rid else set()

    load = [span for span in spans if ids_of(span) & load_ids]
    startup = [span for span in spans if not ids_of(span)]
    waiting = {span[5]: span for span in load if span[2] == "service.evaluate"}
    linked = []
    for span in load:
        if span[2] == "service.evaluate_batch" and span[1] is None:
            owner = waiting.get(span[5].split(",")[0])
            if owner is not None:
                span = [span[0], owner[0], *span[2:]]
        linked.append(span)
    linked_by_id = {span[0]: span for span in linked}
    selfs = self_times(linked)
    serialise_ms: dict = {}
    for span in linked:
        if span[2] == "api.serialise":
            root = span
            while root[1] is not None:
                root = linked_by_id[root[1]]
            serialise_ms[root[5]] = serialise_ms.get(root[5], 0.0) + (span[4] - span[3]) * 1000.0
    operations = max(1, len(load_ids))
    table = layer_table(linked)
    metrics = layer_metrics(table, operations, caches)
    waits = [selfs[span[0]] * 1000.0 for span in waiting.values() if span[5] in load_ids]
    metrics["service.queue_wait_ms"] = percentile(waits, 50) if waits else 0.0
    metrics["api.serialise_ms"] = (
        percentile(list(serialise_ms.values()), 50) if serialise_ms else 0.0
    )
    metrics["trace.coverage"] = coverage(linked)
    return {
        "metrics": metrics,
        "table": {
            layer: {k: v / operations for k, v in row.items()} for layer, row in table.items()
        },
        "startup_table": layer_table(startup),
    }


# -- workload --------------------------------------------------------------


def run(kind: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    closed_s = 0.0 if trace else seconds / 3.0
    open_s = seconds / 2.0 if trace else seconds - closed_s
    prime = 3 if smoke else PRIME_REQUESTS
    size = prime + int(RATE_RPS * open_s) + int(CLOSED_LOOP_MAX_RPS * closed_s) + 1
    source = RequestSource(kind, seed, size)
    offline = source.offline_shortest_path() if kind == "replay" else None
    answers: dict = {}
    problems: list = []
    attempted = failed = 0

    def count(found: list) -> None:
        nonlocal attempted, failed
        attempted += 1
        failed += bool(found)
        problems.extend(found)

    def check(records: list) -> None:
        for record in records:
            found = check_record(record, labels)
            if offline is not None and not found:
                found = check_replay(record, offline, answers)
            count(found)

    placement = Placement.here()

    def spawn_and_stop() -> Server:
        server = Server(False, smoke, placement)
        count(server.stop())
        return server

    # One discarded spawn, then the median of MEASURED_SPAWNS; the last one
    # takes the load.
    spawns = 1 if (smoke or trace) else MEASURED_SPAWNS + 1
    measured = [spawn_and_stop() for _ in range(spawns - 1)][1:]
    server = Server(False, smoke, placement)
    measured.append(server)
    try:
        labels = tuple(server.client.health()["evaluable_labels"])
        load = load_phase(server, source, labels, open_s, closed_s, smoke)
        zero_problems = zero_demand_check(server, source, labels)
    finally:
        count(server.stop())
    count(zero_problems)
    check(load["prime"] + load["open"] + load["closed"])
    if kind == "replay" and load["stats"]["caches"]["optimum"][1]:
        print(f"  note: replay missed the optimum cache "
              f"{load['stats']['caches']['optimum'][1]} times", flush=True)

    served = [
        ratio for r in load["open"] if r["response"] for ratio in r["response"].ratios.values()
    ]
    open_ms = latencies_ms(load["open"], "due")
    closed_ms = latencies_ms(load["closed"], "sent")
    good = sum(1 for ms in closed_ms if ms <= SLO_MS)
    # Wall-clock numbers as measured; the metrics are at the reference speed.
    detail = {
        "labels": list(labels),
        "setup_s": [spawned.setup_s for spawned in measured],
        "open_loop_ms": summary(open_ms),
        "closed_loop_ms": summary(closed_ms) if closed_ms else None,
        "closed_loop_s": load["closed_s"],
        "throughput_per_s": good / load["closed_s"] if load["closed_s"] else None,
        "calibration_s": [c for spawned in measured for c in spawned.calibration_s]
        + load["calibration_s"],
        "stats": load["stats"],
        "service": service_layers(load),
        "ratio_mean": math.fsum(served) / len(served) if served else None,
    }
    out = {
        "problems": problems,
        "detail": detail,
        "metrics": {
            "setup_s": percentile([spawned.setup_ref_s for spawned in measured], 50),
            "p50_ms": detail["open_loop_ms"]["p50"] * load["open_scale"],
            "throughput_per_s": (
                good / (load["closed_s"] * load["closed_scale"]) if load["closed_s"] else None
            ),
        },
        "samples": {
            "setup_s": len(measured),
            "p50_ms": len(open_ms),
            "throughput_per_s": good,
        },
    }
    if trace:
        traced = Server(True, smoke, placement)
        try:
            traced_load = load_phase(traced, source, labels, open_s, 0.0, smoke)
        finally:
            count(traced.stop())
        check(traced_load["prime"] + traced_load["open"])
        spans_line = next(
            (line for _, line in traced.child.lines if line.startswith("spans ")), None
        )
        if spans_line is None:
            raise BenchError(f"traced server printed no spans:\n{traced.child.tail()}")
        load_ids = {record["id"] for record in traced_load["open"]}
        layers = traced_layers(payload(spans_line, "spans "), load_ids, load["stats"]["caches"])
        traced_ms = latencies_ms(traced_load["open"], "due")
        layers["metrics"].update(detail["service"])
        layers["metrics"]["trace.overhead"] = (
            percentile(traced_ms, 50) * traced_load["open_scale"]
            / (percentile(open_ms, 50) * load["open_scale"])
            - 1.0
        )
        layers["traced_open_loop_ms"] = summary(traced_ms)
        out["layers"] = layers
    out["attempted"], out["failed"] = attempted, failed
    return out
