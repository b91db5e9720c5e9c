"""The paper's Figure 10 artifact stays exact under ``verbatim``.

``figure10_q13.json`` pins the Q13 MIL translation and its
per-statement trace — statement text, simulated page faults on a cold
4 KiB-page buffer manager, result BUNs — as the paper's translation
produces them (what ``benchmarks/bench_figure10_q13_trace.py`` and
``examples/tpcd_analytics.py`` print).  Under ``Optimizer(verbatim=
True)`` both must match byte for byte; the default mode may only
shrink the plan and its fault count.
"""

import json
import os

import pytest

from repro.monet.buffer import BufferManager, use as use_buffer
from repro.monet.optimizer import Optimizer, use
from repro.tpcd import QUERIES, generate, load_tpcd

GOLDEN = os.path.join(os.path.dirname(__file__), "figure10_q13.json")
RUNS = json.load(open(GOLDEN))["runs"]


@pytest.fixture(scope="module", params=RUNS,
                ids=["sf%g-seed%d" % (r["scale"], r["seed"]) for r in RUNS])
def golden_db(request):
    run = request.param
    db, _report = load_tpcd(generate(scale=run["scale"], seed=run["seed"]))
    return db, run


def _trace(db):
    text = QUERIES[13].texts()[0]
    manager = BufferManager(page_size=4096)
    with use_buffer(manager):
        result = db.query(text)
    return (db.mil_text(text).split("\n"),
            [[row.text, row.faults, row.size] for row in result.trace.rows])


def test_verbatim_figure10_is_byte_identical(golden_db):
    db, run = golden_db
    with use(Optimizer(verbatim=True)):
        mil, trace = _trace(db)
    assert mil == run["mil"]
    assert trace == run["trace"]


def test_default_mode_only_shrinks_figure10(golden_db):
    db, run = golden_db
    mil, trace = _trace(db)
    assert len(mil) <= len(run["mil"])
    assert sum(row[1] for row in trace) \
        <= sum(row[1] for row in run["trace"])
    assert trace[-1][2] == run["trace"][-1][2]      # same result size
