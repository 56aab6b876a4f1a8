"""End-to-end experiment harness (paper §4 workflow) on the tiny graph."""
import numpy as np
import pandas as pd
import pytest

from repro.cluster.costmodel import M2
from repro.controller.adaptivity import AdaptivityParams
from repro.controller.simulator import (
    ExperimentConfig,
    _exclusive_cluster_of,
    initial_assignment,
    run_experiment,
)
from repro.engine import run_queries
from repro.queries.workload import hotspot_queries
from repro.roadnet.datasets import edges_df, tiny_grid


@pytest.fixture(scope="module")
def net():
    return tiny_grid()


@pytest.fixture(scope="module")
def workload(net):
    return hotspot_queries(net, n_queries=32, batch_size=8, seed=77)


@pytest.fixture(scope="module")
def trace(spark, net, workload):
    return run_queries(spark, edges_df(spark, net), workload, net, max_iters=80)


def _adapt(**kw):
    base = dict(window_batches=2, min_window_queries=8, cooldown_batches=0)
    base.update(kw)
    return AdaptivityParams(**base)


class TestStatic:
    @pytest.mark.parametrize("initial", ["hash", "domain", "ldg"])
    def test_static_runs_and_never_repartitions(self, spark, net, workload, trace, initial):
        cfg = ExperimentConfig(k=4, initial=initial)
        r = run_experiment(spark, net, workload, trace, cfg)
        assert not r.per_batch["repartitioned"].any()
        assert (r.per_query["latency"] > 0).all()
        assert len(r.per_query) == len(workload)

    def test_per_batch_schema(self, spark, net, workload, trace):
        r = run_experiment(spark, net, workload, trace, ExperimentConfig(k=4))
        assert {"batch", "avg_latency", "sum_latency", "avg_locality",
                "imbalance", "imbalance_window", "repartitioned",
                "moved_vertices"} <= set(r.per_batch.columns)
        assert list(r.per_batch["batch"]) == [0, 1, 2, 3]

    def test_sum_matches_per_query(self, spark, net, workload, trace):
        r = run_experiment(spark, net, workload, trace, ExperimentConfig(k=4))
        assert r.total_latency == pytest.approx(r.per_query["latency"].sum())
        assert r.avg_latency == pytest.approx(r.per_query["latency"].mean())

    def test_global_barrier_slower_than_hybrid(self, spark, net, workload, trace):
        hyb = run_experiment(spark, net, workload, trace,
                             ExperimentConfig(k=4, initial="domain", barrier="hybrid"))
        glo = run_experiment(spark, net, workload, trace,
                             ExperimentConfig(k=4, initial="domain", barrier="global"))
        assert glo.total_latency > hyb.total_latency

    def test_domain_beats_hash_on_locality(self, spark, net, workload, trace):
        h = run_experiment(spark, net, workload, trace, ExperimentConfig(k=4, initial="hash"))
        d = run_experiment(spark, net, workload, trace, ExperimentConfig(k=4, initial="domain"))
        assert d.per_batch["avg_locality"].mean() > h.per_batch["avg_locality"].mean()


class TestAdaptive:
    def test_adaptive_repartitions_from_hash(self, spark, net, workload, trace):
        cfg = ExperimentConfig(k=4, initial="hash", adaptive=True,
                               ils_time_budget=None, ils_max_rounds=8,
                               adaptivity=_adapt())
        r = run_experiment(spark, net, workload, trace, cfg)
        assert r.per_batch["repartitioned"].any()
        assert len(r.qcut_runs) == int(r.per_batch["repartitioned"].sum())
        assert r.per_batch.loc[r.per_batch["repartitioned"], "moved_vertices"].sum() > 0

    def test_adaptive_improves_locality(self, spark, net, workload, trace):
        cfg = ExperimentConfig(k=4, initial="hash", adaptive=True,
                               ils_time_budget=None, ils_max_rounds=8,
                               adaptivity=_adapt())
        r = run_experiment(spark, net, workload, trace, cfg)
        pb = r.per_batch
        assert pb["avg_locality"].iloc[-1] > pb["avg_locality"].iloc[0]

    def test_assignment_actually_changes(self, spark, net, workload, trace):
        cfg = ExperimentConfig(k=4, initial="hash", adaptive=True,
                               ils_time_budget=None, ils_max_rounds=8,
                               adaptivity=_adapt())
        r = run_experiment(spark, net, workload, trace, cfg)
        init = initial_assignment(net, 4, "hash")
        assert (r.final_assignment.workers != init.workers).any()

    def test_needs_no_spark(self, spark, net, workload, trace):
        """Pricing, Q-cut and re-pricing run on the driver alone."""
        cfg = ExperimentConfig(k=4, initial="hash", adaptive=True,
                               ils_time_budget=None, ils_max_rounds=8,
                               adaptivity=_adapt())
        with_spark = run_experiment(spark, net, workload, trace, cfg)
        without = run_experiment(None, net, workload, trace, cfg)
        assert without.per_batch["repartitioned"].any()
        pd.testing.assert_series_equal(
            without.per_query["latency"], with_spark.per_query["latency"]
        )

    def test_deterministic(self, spark, net, workload, trace):
        cfg = ExperimentConfig(k=4, initial="hash", adaptive=True,
                               ils_time_budget=None, ils_max_rounds=8,
                               adaptivity=_adapt(), seed=3)
        a = run_experiment(spark, net, workload, trace, cfg)
        b = run_experiment(spark, net, workload, trace, cfg)
        pd.testing.assert_frame_equal(a.per_batch, b.per_batch)


class TestExclusivePartition:
    def test_vertices_assigned_to_single_cluster(self):
        acts = pd.DataFrame({
            "qid": [1, 1, 2, 2, 2, 3],
            "iter": [0, 1, 0, 0, 1, 0],
            "vid": [10, 11, 10, 10, 12, 13],
        })
        clusters = [[1], [2], [3]]
        vc = _exclusive_cluster_of(acts, clusters)
        assert not vc["vid"].duplicated().any()
        got = dict(zip(vc["vid"], vc["cluster"]))
        # vid 10: q2 activated it twice vs q1 once -> cluster 1 (of q2)
        assert got[10] == 1
        assert got[11] == 0 and got[12] == 1 and got[13] == 2

    def test_tie_breaks_to_lowest_cluster(self):
        acts = pd.DataFrame({"qid": [1, 2], "iter": [0, 0], "vid": [5, 5]})
        vc = _exclusive_cluster_of(acts, [[1], [2]])
        assert dict(zip(vc["vid"], vc["cluster"]))[5] == 0


class TestInitialAssignment:
    def test_dispatch(self, net):
        for name in ("hash", "domain", "ldg"):
            a = initial_assignment(net, 3, name)
            assert a.k == 3 and a.n_vertices == net.n_vertices

    def test_unknown_rejected(self, net):
        with pytest.raises(ValueError):
            initial_assignment(net, 3, "metis")
