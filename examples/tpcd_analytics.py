"""TPC-D analytics: the paper's section 6 experiment, end to end.

Generates a scaled TPC-D database, loads it through the section 6
pipeline (bulk load, datavectors, tail reorder), runs the paper's
example query Q13 with a full MIL trace (Figure 10), and then the
whole 15-query mix with timings and simulated page faults (Figure 9).

Run:  python examples/tpcd_analytics.py [scale] [db-dir]

With a ``db-dir`` the loaded database is persisted through the mmap
storage layer: the first run saves it, later runs skip dbgen + load
and reopen the heaps as ``np.memmap`` views (a warm start).
"""

import sys
import time

from repro.monet.buffer import BufferManager, use
from repro.monet.optimizer import Optimizer
from repro.monet.optimizer import use as use_optimizer
from repro.tpcd import QUERIES, generate, load_tpcd, open_tpcd, \
    peek_tpcd_meta


def main(scale=0.001, db_dir=None):
    meta = peek_tpcd_meta(db_dir) if db_dir else None
    if meta is not None and meta.get("scale") == scale \
            and meta.get("seed") == 42:
        print("reopening saved TPC-D database from %s ..." % db_dir)
        db, report = open_tpcd(db_dir)
    else:
        print("generating TPC-D at SF=%g ..." % scale)
        dataset = generate(scale=scale, seed=42)
        print("  %s" % dataset)
        db, report = load_tpcd(dataset, db_dir=db_dir)
    print("\n=== load pipeline (paper section 6) ===")
    print(report.format_table())

    # --- Figure 10: the detailed Q13 trace --------------------------------
    # verbatim: the paper's translation, without the default plan
    # passes and join variants
    q13 = QUERIES[13]
    text = q13.texts()[0]
    verbatim = Optimizer(verbatim=True)
    print("\n=== Q13 in MOA (paper section 4.1) ===")
    print(text)
    print("=== MIL translation (Figure 5) ===")
    with use_optimizer(verbatim):
        print(db.mil_text(text))

    manager = BufferManager(page_size=4096)
    with use(manager), use_optimizer(verbatim):
        result = db.query(text)
    print("\n=== Figure 10: detailed execution trace ===")
    print(result.trace.format_table())
    print("result:", result.rows)

    # --- Figure 9: the full query mix --------------------------------------
    print("\n=== Figure 9: all 15 queries ===")
    print("%-4s %9s %8s %7s  %s" % ("Qx", "elapsed_s", "faults",
                                    "rows", "comment"))
    for number in sorted(QUERIES):
        query = QUERIES[number]
        manager = BufferManager(page_size=4096)
        started = time.perf_counter()
        with use(manager):
            rows = query.run(db)
        elapsed = time.perf_counter() - started
        shape = ("scalar" if isinstance(rows, (int, float))
                 else str(len(rows)))
        print("%-4s %9.3f %8d %7s  %s"
              % ("Q%d" % number, elapsed, manager.faults, shape,
                 query.comment))


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.001,
         sys.argv[2] if len(sys.argv) > 2 else None)
