"""Figure 10 (and Figure 5): the detailed Q13 execution trace.

Prints the MIL translation of the paper's example query Q13 (the
Figure 5 tree, as a straight-line program) and its per-statement
execution trace with elapsed milliseconds and simulated page faults —
the format of Figure 10.  Both run under ``Optimizer(verbatim=True)``,
so the plan and its faults are the paper's translation, without the
default plan passes and join variants.  Also checks the paper's "blazed trail"
claim: the second and third datavector semijoins against the same
selection reuse the cached LOOKUP array and are much cheaper than the
first.
"""

from repro.monet.buffer import BufferManager, use
from repro.monet.optimizer import Optimizer
from repro.monet.optimizer import use as use_optimizer
from repro.tpcd import QUERIES


def test_q13_trace(benchmark, tpcd_db, dataset):
    query = QUERIES[13]
    text = query.texts()[0]
    verbatim = Optimizer(verbatim=True)
    print("\nMOA (paper section 4.1 example):\n%s" % text)
    print("MIL translation (Figure 5 as a program):")
    with use_optimizer(verbatim):
        print(tpcd_db.mil_text(text))

    manager = BufferManager(page_size=4096)

    def run_traced():
        manager.evict_all()
        with use(manager), use_optimizer(verbatim):
            return tpcd_db.query(text)

    result = benchmark.pedantic(run_traced, rounds=2, iterations=1,
                                warmup_rounds=1)
    print("\nFigure 10: Q13 detailed Monet execution results")
    print(result.trace.format_table())
    assert result.trace.total_faults > 0


def test_blazed_trail(benchmark, tpcd_db):
    """Lines 10-11 of Figure 10 are cheap because line 3 already
    blazed the trail into the extent: lookups are computed once per
    right operand and then reused."""
    registries = tpcd_db.kernel.registries
    item_registry = registries["Item"]
    before_computed = item_registry.lookups_computed
    before_reused = item_registry.lookups_reused
    benchmark.pedantic(QUERIES[13].run, args=(tpcd_db,), rounds=1,
                       iterations=1)
    computed = item_registry.lookups_computed - before_computed
    reused = item_registry.lookups_reused - before_reused
    print("\ndatavector LOOKUP arrays: computed=%d reused=%d"
          % (computed, reused))
    assert reused >= computed, \
        "expected the Q13 value phase to reuse cached LOOKUP arrays"
