"""Controller-side statistics (paper §3.4 "Dynamic Updates", Table 2).

Workers report ``stats(q, |LS(q,w)|, I_w, w)`` after each iteration; the
controller aggregates local scopes into global scopes and intersection
functions. In this reproduction the worker reports are computed on the
driver from the execution trace and the current vertex assignment: each
trace row's worker is a gather ``assignment.workers[vid]`` and each report is
a pandas group count. The trace and the assignment already live on the
driver and the reports are the paper's small high-level representation
(§3.2), so Spark runs only the BSP engine that produced the trace.

Every aggregation here has a DuckDB-oracle test in
``tests/test_stats_oracle.py``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.cluster.assignment import Assignment
from repro.core.qcut import QcutInput
from repro.engine.trace import Trace


def _from_qid(df: pd.DataFrame, min_qid: int | None) -> pd.DataFrame:
    return df if min_qid is None else df[df["qid"] >= min_qid]


class TraceStats:
    """Worker reports over one trace; reusable across assignments.

    Each method maps the trace's vertices to their workers under an
    assignment and returns a *small* pandas aggregate for the controller
    (the paper's high-level representation).
    """

    def __init__(self, trace: Trace):
        self.activations = trace.activations
        self.messages = trace.messages

    def close(self) -> None:
        """Release nothing: the reports hold no session resources. Kept so
        that callers that close the object, and tools that wrap the class's
        methods by name, keep working."""

    # -- worker reports -------------------------------------------------------
    def active_counts(self, assignment: Assignment, min_qid: int | None = None) -> pd.DataFrame:
        """(qid, iter, worker, n_active): per-iteration worker activity.

        ``min_qid`` restricts to queries not yet priced — after a mid-run
        repartition only future batches need re-pricing."""
        a = _from_qid(self.activations, min_qid)
        return (
            a[["qid", "iter"]].assign(worker=assignment.worker_of(a["vid"]))
            .groupby(["qid", "iter", "worker"]).size().rename("n_active").reset_index()
        )

    def message_counts(self, assignment: Assignment, min_qid: int | None = None) -> pd.DataFrame:
        """(qid, iter, w_src, w_dst, n_msgs): message worker-pair counts."""
        m = _from_qid(self.messages, min_qid)
        return (
            m[["qid", "iter"]]
            .assign(w_src=assignment.worker_of(m["src"]), w_dst=assignment.worker_of(m["dst"]))
            .groupby(["qid", "iter", "w_src", "w_dst"]).size().rename("n_msgs").reset_index()
        )

    def scope_vertices(self, qids=None, iter_lt: dict | None = None) -> pd.DataFrame:
        """(qid, vid) distinct global-scope membership, optionally restricted.

        ``iter_lt`` maps qid -> iteration bound: for those queries only
        activations with ``iter < bound`` count — a query still running at
        repartition time has reported stats only for its finished
        iterations (paper §3.4 piggybacked stats)."""
        a = self.activations
        if qids is not None:
            a = a[a["qid"].isin(qids)]
        if iter_lt:
            bound = a["qid"].map(iter_lt)
            a = a[bound.isna() | (a["iter"] < bound)]
        return a[["qid", "vid"]].drop_duplicates(ignore_index=True)


def qcut_input(scope_vertices: pd.DataFrame, assignment: Assignment) -> QcutInput:
    """Q-cut's statistics from distinct (qid, vid) scope membership.

    ``ls[i, w]`` is |LS(q_i, w)|, the query's scope vertices on worker ``w``;
    ``overlaps[(qa, qb)]`` (qa < qb) is the size of the two queries' global
    scope intersection, present only for pairs that share a vertex. Queries
    are in ascending qid order."""
    qid = scope_vertices["qid"].to_numpy()
    vid = scope_vertices["vid"].to_numpy()
    qids, row = np.unique(qid, return_inverse=True)
    ls = np.zeros((len(qids), assignment.k))
    np.add.at(ls, (row, assignment.worker_of(vid)), 1.0)
    sv = scope_vertices[["qid", "vid"]]
    pairs = sv.merge(sv, on="vid")
    shared = pairs[pairs["qid_x"] < pairs["qid_y"]].groupby(["qid_x", "qid_y"]).size()
    return QcutInput(
        qids=[int(q) for q in qids],
        ls=ls,
        vcounts=assignment.vertex_counts(),
        overlaps={(int(a), int(b)): float(n) for (a, b), n in shared.items()},
    )


def intersection_function(scope_vertices: pd.DataFrame, assignment: Assignment,
                          worker: int, query_subset) -> int:
    """The paper's I_w: number of vertices shared by *all* queries of the
    subset on ``worker`` (e.g. I_w({q1,q2,q3}) = 3 in §3.4)."""
    sv = scope_vertices[
        np.isin(assignment.worker_of(scope_vertices["vid"]), [worker])
    ]
    sets = [
        set(sv.loc[sv["qid"] == int(q), "vid"].tolist()) for q in query_subset
    ]
    if not sets:
        return 0
    return len(set.intersection(*sets))
