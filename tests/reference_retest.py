"""Frozen oracle for the columnar scheduler's proof retest.

:meth:`ColumnarFirstFitScheduler._consume_events` as it stood when it was
one vectorized pass, copied statement for statement: a (proven x grown
machines) compare per pool, then the pool's ``allowed`` column,
reachability and a batched admission lookup; and for each opened
(platform, class) quota slot, a class mask and a (proven-of-class x pool)
compare.  The scheduler's scalar retest must clear exactly the bits this
module clears, no more and no fewer: a superset would walk rows for
nothing and move ``proven_arrivals`` / ``proven_skips`` / ``idle_rounds``,
a subset would keep a proof the state no longer supports.  Do not
"improve" it.
"""

from __future__ import annotations

import numpy as np


def retested_proofs(scheduler, ledger) -> np.ndarray:
    """The proof bits ``scheduler`` must hold once it consumed its pending
    growth and quota openings; reads the scheduler's state, changes none.

    Call it where the scheduler retests: after ``_flush``.
    """
    bits = scheduler._proven.copy()
    growth = scheduler._growth
    openings = scheduler._openings if ledger.restricted else set()
    if not growth and not openings:
        return bits
    proven = np.flatnonzero(bits)
    if not len(proven):
        return bits
    columns = scheduler.columns

    def clear(signatures, j, admit):
        if not len(signatures) or not scheduler._reachable[j]:
            return
        signatures = signatures[columns.sig_allowed[signatures, j]]
        if admit and ledger.restricted:
            admits = ledger.admits_each(
                scheduler.pools[j].platform_id, columns.sig_class[signatures].tolist()
            )
            signatures = signatures[np.array(admits, dtype=bool)]
        bits[signatures] = False

    cpu = columns.sig_cpu[proven, None]
    memory = columns.sig_memory[proven, None]
    by_pool: dict[int, list[int]] = {}
    for j, i in sorted(growth):
        by_pool.setdefault(j, []).append(i)
    for j in sorted(by_pool):
        machines = by_pool[j]
        fits = (cpu <= scheduler._cpu_room[j][machines]) & (
            memory <= scheduler._memory_room[j][machines]
        )
        clear(proven[fits.any(axis=1)], j, admit=True)
    for platform_id, class_id in sorted(openings):
        j = scheduler._pool_index.get(platform_id)
        if j is None or not ledger.admits(platform_id, class_id):
            continue
        of_class = columns.sig_class[proven] == class_id
        fits = (cpu[of_class] <= scheduler._cpu_room[j]) & (
            memory[of_class] <= scheduler._memory_room[j]
        )
        clear(proven[of_class][fits.any(axis=1)], j, admit=False)
    return bits
