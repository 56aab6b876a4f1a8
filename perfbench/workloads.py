"""The benchmark's workloads, their output fingerprint and engine oracle.

Both workloads run on ``bw_lite()``, the graph behind tables T1/T3/T5/T6/T10,
with intra-urban hotspot SSSP queries whose generator seed is the
benchmark's ``--seed``:

* ``trace_cold`` — the multi-query BSP trace on an empty trace cache, then
  the four static T6 configurations (hash/domain x global/hybrid, k=8, M1).
  The only workload where the Spark engine runs in the timed pass; it never
  runs Q-cut. An untimed trace of another query set warms the JVM first.
* ``adapt_warm`` — the trace is filled into the run's cache before timing
  and loaded in set-up; the timed pass prices qcut+hash at k=4 and k=8 (M2,
  hybrid) with the MAPE loop, so Q-cut, move translation and re-pricing
  after a move run here. The engine does no work in the timed pass.

Hash placement keeps locality below the MAPE threshold, so Q-cut fires at
batches 3, 5 and 7 on every seed. qcut+domain fires one to three times
depending on the seed, which would let the seed, not the program, set the
pass time. The Fig. 5 disturbance phase (inter-urban queries) is left out:
its trace takes about 130 supersteps, longer to fill than one benchmark run
may last.
"""
from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass

import numpy as np

from repro.cluster.costmodel import M1, M2
from repro.controller.simulator import ExperimentConfig, ExperimentResult
from repro.experiments import sssp_workload

N_QUERIES = 128  # 8 batches of 16: Q-cut fires three times per strategy


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    warm: bool               # trace filled before timing, loaded in set-up
    configs: tuple[ExperimentConfig, ...]

    def queries(self, net, seed: int):
        return sssp_workload(net, seed=seed, n=N_QUERIES)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "trace_cold", 45, False,
            tuple(
                ExperimentConfig(k=8, initial=i, barrier=b, cost=M1)
                for i in ("hash", "domain") for b in ("global", "hybrid")
            ),
        ),
        Workload(
            "adapt_warm", 42, True,
            tuple(
                ExperimentConfig(k=k, initial="hash", adaptive=True, cost=M2)
                for k in (4, 8)
            ),
        ),
    )
}


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def trace_fingerprint(trace) -> dict:
    a = trace.activations
    return {
        "supersteps": int(a["iter"].max()) + 1 if len(a) else 0,
        "activation_rows": len(a),
        "message_rows": len(trace.messages),
    }


def result_fingerprint(r: ExperimentResult) -> dict:
    """Simulated outputs of one configuration run, rounded where floats
    could differ in the last bits with the order Spark returns rows in."""
    pq = r.per_query.sort_values("qid")
    lat = np.round(pq["latency"].to_numpy(dtype=float), 6)
    pb = r.per_batch
    return {
        "total_latency": round(r.total_latency, 6),
        "latency_sha": _digest(np.stack([pq["qid"].to_numpy(dtype=float), lat])),
        "repartitioned": [int(b) for b in pb.loc[pb["repartitioned"], "batch"]],
        "moved_vertices": [int(m) for m in pb["moved_vertices"]],
        "assignment_sha": _digest(r.final_assignment.workers.astype(np.int64)),
    }


def fingerprint(trace, results: list[ExperimentResult]) -> dict:
    return {
        "trace": trace_fingerprint(trace),
        "configs": {r.config.name: result_fingerprint(r) for r in results},
    }


def _dijkstra_to(adj, src: int, dst: int) -> float:
    dist = {src: 0.0}
    pq = [(0.0, src)]
    while pq:
        d, u = heapq.heappop(pq)
        if u == dst:
            return d
        if d > dist[u]:
            continue
        for v, w in adj.get(u, ()):
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(pq, (nd, v))
    return math.inf


def engine_errors(net, queries, trace) -> list[str]:
    """Compare each SSSP query's traced distance at its end vertex with
    Dijkstra (bound pruning keeps target distances exact)."""
    final = trace.final.set_index(["qid", "vid"])["dist"]
    adj = net.adjacency()
    errors = []
    for q in queries:
        want = _dijkstra_to(adj, q.start, q.end)
        got = float(final.get((q.qid, q.end), math.inf))
        if not math.isclose(got, want, rel_tol=1e-9):
            errors.append(f"query {q.qid}: engine dist {got} != dijkstra {want}")
    return errors
