"""Controller statistics vs the DuckDB oracle.

Every aggregation in :mod:`repro.controller.stats` is checked against the
equivalent SQL over the same inputs via ``repro.oracle.assert_equivalent``
— a broken gather or groupby shows up as a row diff, not a green "it ran".
"""
import numpy as np
import pandas as pd
import pytest

from repro.cluster.partitioners import domain_partition, hash_partition
from repro.controller.stats import TraceStats, intersection_function, qcut_input
from repro.engine import run_queries
from repro.oracle import assert_equivalent
from repro.queries.workload import hotspot_queries
from repro.roadnet.datasets import edges_df, tiny_grid


@pytest.fixture(scope="module")
def net():
    return tiny_grid()


@pytest.fixture(scope="module")
def trace(spark, net):
    qs = hotspot_queries(net, n_queries=8, batch_size=4, seed=31)
    qs += hotspot_queries(net, n_queries=2, batch_size=2, kind="poi", seed=32,
                          qid_offset=50, batch_offset=5)
    return run_queries(spark, edges_df(spark, net), qs, net, max_iters=80)


@pytest.fixture(scope="module")
def stats(trace):
    return TraceStats(trace)


@pytest.fixture(scope="module", params=["hash", "domain"])
def assignment(request, net):
    if request.param == "hash":
        return hash_partition(net.n_vertices, 3)
    return domain_partition(net, 3)


def _ls_frame(inp) -> pd.DataFrame:
    """|LS| (qid, worker, size) rows of a Q-cut input's non-zero ``ls`` cells."""
    row, worker = np.nonzero(inp.ls)
    return pd.DataFrame({"qid": np.asarray(inp.qids)[row], "worker": worker,
                         "size": inp.ls[row, worker]})


def _overlap_frame(inp) -> pd.DataFrame:
    return pd.DataFrame([(a, b, n) for (a, b), n in inp.overlaps.items()],
                        columns=["qa", "qb", "shared"])


class TestOracle:
    def test_active_counts(self, stats, trace, assignment):
        got = stats.active_counts(assignment)
        assert_equivalent(
            got,
            """
            SELECT a.qid, a.iter, s.worker, count(*) AS n_active
            FROM activations a JOIN assign s USING (vid)
            GROUP BY a.qid, a.iter, s.worker
            """,
            activations=trace.activations,
            assign=assignment.to_pandas(),
        )

    def test_message_counts(self, stats, trace, assignment):
        got = stats.message_counts(assignment)
        assert_equivalent(
            got,
            """
            SELECT m.qid, m.iter, s1.worker AS w_src, s2.worker AS w_dst,
                   count(*) AS n_msgs
            FROM messages m
            JOIN assign s1 ON m.src = s1.vid
            JOIN assign s2 ON m.dst = s2.vid
            GROUP BY m.qid, m.iter, s1.worker, s2.worker
            """,
            messages=trace.messages,
            assign=assignment.to_pandas(),
        )

    def test_counts_from_min_qid(self, stats, trace, assignment):
        """Re-pricing after a move asks only for queries qid >= min_qid."""
        min_qid = int(sorted(trace.activations["qid"].unique())[4])
        assert_equivalent(
            stats.active_counts(assignment, min_qid),
            f"""
            SELECT a.qid, a.iter, s.worker, count(*) AS n_active
            FROM activations a JOIN assign s USING (vid)
            WHERE a.qid >= {min_qid}
            GROUP BY a.qid, a.iter, s.worker
            """,
            activations=trace.activations,
            assign=assignment.to_pandas(),
        )
        assert_equivalent(
            stats.message_counts(assignment, min_qid),
            f"""
            SELECT m.qid, m.iter, s1.worker AS w_src, s2.worker AS w_dst,
                   count(*) AS n_msgs
            FROM messages m
            JOIN assign s1 ON m.src = s1.vid
            JOIN assign s2 ON m.dst = s2.vid
            WHERE m.qid >= {min_qid}
            GROUP BY m.qid, m.iter, s1.worker, s2.worker
            """,
            messages=trace.messages,
            assign=assignment.to_pandas(),
        )

    def test_local_scope_sizes(self, stats, trace, assignment):
        got = _ls_frame(qcut_input(stats.scope_vertices(), assignment))
        assert_equivalent(
            got,
            """
            SELECT qid, worker, count(*) AS size FROM (
                SELECT DISTINCT a.qid, a.vid, s.worker
                FROM activations a JOIN assign s USING (vid)
            ) GROUP BY qid, worker
            """,
            activations=trace.activations,
            assign=assignment.to_pandas(),
        )

    def test_local_scope_sizes_partial(self, stats, trace, assignment):
        qids = sorted(trace.activations["qid"].unique())[:3]
        iter_lt = {int(qids[0]): 2}
        got = _ls_frame(qcut_input(stats.scope_vertices(qids, iter_lt), assignment))
        assert_equivalent(
            got,
            f"""
            SELECT qid, worker, count(*) AS size FROM (
                SELECT DISTINCT a.qid, a.vid, s.worker
                FROM activations a JOIN assign s USING (vid)
                WHERE a.qid IN ({",".join(str(int(q)) for q in qids)})
                  AND (a.qid <> {int(qids[0])} OR a.iter < 2)
            ) GROUP BY qid, worker
            """,
            activations=trace.activations,
            assign=assignment.to_pandas(),
        )

    def test_global_pair_overlaps(self, net, stats, trace):
        inp = qcut_input(stats.scope_vertices(), hash_partition(net.n_vertices, 3))
        got = _overlap_frame(inp)
        assert_equivalent(
            got,
            """
            WITH scoped AS (SELECT DISTINCT qid, vid FROM activations)
            SELECT x.qid AS qa, y.qid AS qb, count(*) AS shared
            FROM scoped x JOIN scoped y ON x.vid = y.vid AND x.qid < y.qid
            GROUP BY x.qid, y.qid
            """,
            activations=trace.activations,
        )

    def test_scope_vertices(self, stats, trace):
        got = stats.scope_vertices()
        assert_equivalent(
            got,
            "SELECT DISTINCT qid, vid FROM activations",
            activations=trace.activations,
        )


class TestIntersectionFunction:
    def test_paper_example_semantics(self, net, stats, trace, assignment):
        """I_w({q1,q2,q3}) = number of vertices shared by all three (§3.4)."""
        sv = stats.scope_vertices()
        qids = sorted(sv["qid"].unique())[:2]
        for w in range(assignment.k):
            expected = len(
                set.intersection(*[
                    set(sv[(sv["qid"] == q)
                           & (assignment.worker_of(sv["vid"]) == w)]["vid"])
                    for q in qids
                ])
            )
            assert intersection_function(sv, assignment, w, qids) == expected

    def test_empty_subset(self, stats, assignment):
        assert intersection_function(stats.scope_vertices(), assignment, 0, []) == 0
