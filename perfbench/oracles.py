"""Independent checks of the program's outputs.

Each check returns a list of failure messages (empty when the output is
right).  They recompute the answer with plain numpy from the inputs the
benchmark generated, never through the code path under test.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

#: float32 scores from differently shaped GEMMs agree to about this much
RTOL = 1e-5
ATOL = 1e-6


def scn_scores(graph, qfv: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The SCN's score of ``qfv`` against each row, in one forward pass."""
    q_id, d_id = graph.input_ids
    n = len(rows)
    q_shape = graph.shape_of(q_id)
    d_shape = graph.shape_of(d_id)
    q = np.repeat(np.asarray(qfv, np.float32).reshape(1, *q_shape), n, axis=0)
    d = np.asarray(rows, np.float32).reshape((n, *d_shape))
    return graph.forward({q_id: q, d_id: d}).reshape(-1)


def check_scores_at_ids(
    graph, qfv: np.ndarray, features: np.ndarray,
    ids: np.ndarray, scores: np.ndarray,
) -> List[str]:
    """Returned scores equal the SCN's score at the returned ids."""
    if len(ids) != len(scores):
        return [f"{len(ids)} ids but {len(scores)} scores"]
    if len(ids) == 0:
        return ["empty result"]
    expected = scn_scores(graph, qfv, features[np.asarray(ids, np.int64)])
    if not np.allclose(scores, expected, rtol=RTOL, atol=ATOL):
        worst = float(np.max(np.abs(np.asarray(scores) - expected)))
        return [f"scores differ from the SCN at the returned ids by {worst:.3g}"]
    return []


def check_exact_topk(
    graph, qfv: np.ndarray, features: np.ndarray,
    scores: np.ndarray, k: int,
) -> List[str]:
    """The returned score multiset equals a brute-force top-K.

    Only scores are compared: under exact ties the device may pick any
    of the tied ids, so the ids themselves are not canonical.
    """
    everything = scn_scores(graph, qfv, features)
    want = np.sort(everything)[::-1][: min(k, len(everything))]
    got = np.sort(np.asarray(scores, np.float32))[::-1]
    if len(got) != len(want):
        return [f"returned {len(got)} results, brute force has {len(want)}"]
    if not np.allclose(got, want, rtol=RTOL, atol=ATOL):
        worst = float(np.max(np.abs(got - want)))
        return [f"top-{k} scores differ from brute force by {worst:.3g}"]
    return []


def check_visible(ids: Sequence[int], visible: np.ndarray) -> List[str]:
    """No returned id is tombstoned (or unborn) in the read's snapshot."""
    bad = np.setdiff1d(np.asarray(ids, np.int64), visible)
    if len(bad):
        return [f"ids not visible at the read's snapshot: {bad[:5].tolist()}"]
    return []


def recall(returned: Sequence[int], exact: Sequence[int]) -> float:
    """Fraction of the exact top-K ids that the read returned."""
    if not len(exact):
        return 1.0
    return len(set(int(i) for i in returned) & set(int(i) for i in exact)) / len(exact)


def check_ledgers(
    ledger: Dict[str, Dict[str, int]],
    offered: Dict[str, int],
    completed: Dict[str, int],
) -> List[str]:
    """Every tenant's admission ledger balances against the trace.

    ``offered`` counts each tenant's arrivals in the day trace and
    ``completed`` its served requests.  At the end of a day every
    admitted request has left its queue, so
    offered = admitted + rejected and
    admitted = popped + evicted + expired with popped = completed.
    """
    failures = []
    for tenant, row in sorted(ledger.items()):
        if row["offered"] != offered.get(tenant, 0):
            failures.append(
                f"{tenant}: ledger offered {row['offered']} != "
                f"trace {offered.get(tenant, 0)}"
            )
        if row["offered"] != row["admitted"] + row["rejected"]:
            failures.append(f"{tenant}: offered != admitted + rejected")
        if row["admitted"] != (
            row["popped"] + row["evicted"] + row["expired"] + row["depth"]
        ):
            failures.append(f"{tenant}: admitted != popped + shed + depth")
        if row["depth"] != 0:
            failures.append(f"{tenant}: {row['depth']} requests still queued")
        if row["popped"] != completed.get(tenant, 0):
            failures.append(
                f"{tenant}: popped {row['popped']} != completed "
                f"{completed.get(tenant, 0)}"
            )
    missing = sorted(set(offered) - set(ledger))
    if missing:
        failures.append(f"tenants without a ledger: {missing}")
    return failures
