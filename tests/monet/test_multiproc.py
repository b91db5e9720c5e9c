"""Multi-process dispatcher: fan-out equality, shipping, task kinds.

Workers reopen one saved TPC-D db_dir (zero-copy mmap, per-process
BufferManager, pinned catalog generation) and the parent asserts their
shipped sha1 checksums against serial execution of the same queries
and MIL programs.
"""

import multiprocessing
import os
import pickle
import signal

import pytest

from repro.errors import (MILError, QueryTimeoutError,
                          StaleCatalogError, WorkerCrashedError)
from repro.monet import (MILProgram, MonetKernel, MultiprocExecutor,
                         Var, get_manager, result_checksum,
                         run_program_serial, ship_value)
from repro.monet.multiproc import register_task_kind
from repro.server.tasks import run_queries
from repro.tpcd import QUERIES, load_tpcd, open_tpcd

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
pytestmark = pytest.mark.skipif(
    not HAVE_FORK, reason="multi-process tests need the fork start "
                          "method (spawn re-imports per worker, too "
                          "slow for tier-1)")

#: a representative query slice: scan+group (1), join chain (3),
#: scalar aggregate (6), multiplex chain (13)
QUERY_SLICE = (1, 3, 6, 13)

#: workers import the module that registers the ``query`` task kind
TASKS = ("repro.server.tasks",)


@pytest.fixture(scope="module")
def db_dir(tiny_tpcd, tmp_path_factory):
    path = tmp_path_factory.mktemp("mpdb") / "db"
    load_tpcd(tiny_tpcd, db_dir=path)
    return path


@pytest.fixture(scope="module")
def executor(db_dir):
    with MultiprocExecutor(db_dir, procs=2, task_modules=TASKS) as pool:
        yield pool


@pytest.fixture(scope="module")
def serial_db(db_dir):
    db, report = open_tpcd(db_dir)
    assert report.warm
    return db


# ----------------------------------------------------------------------
# query fan-out
# ----------------------------------------------------------------------
def test_queries_match_serial_checksums(executor, serial_db):
    outcomes = run_queries(executor, QUERY_SLICE)
    assert sorted(outcomes) == sorted(QUERY_SLICE)
    for number in QUERY_SLICE:
        serial = result_checksum(
            ship_value(QUERIES[number].run(serial_db)))
        assert outcomes[number].checksum == serial, "Q%d" % number


def test_outcomes_report_worker_provenance(executor, db_dir):
    import os
    outcomes = run_queries(executor, (6, 12))
    for outcome in outcomes.values():
        assert outcome.pid != os.getpid()          # really off-process
        assert outcome.generation == executor.generation == 1
        assert outcome.elapsed_ms >= 0.0
        # the per-process manager accounted the run (faults on a cold
        # worker, hits once the resident set warmed across tasks)
        assert outcome.stats.faults + outcome.stats.hits > 0


def test_inline_payload_roundtrip(executor, serial_db):
    outcome = run_queries(executor, (6,))[6]
    shipped = outcome.value()
    assert shipped["kind"] == "value"
    assert shipped["value"] == pytest.approx(QUERIES[6].run(serial_db))
    assert result_checksum(shipped) == outcome.checksum


def test_merged_stats_accumulate(executor):
    outcomes = run_queries(executor, QUERY_SLICE)
    total = MultiprocExecutor.merged_stats(outcomes)
    assert total.faults == sum(outcome.stats.faults
                               for outcome in outcomes.values())
    assert total.as_dict()["faults"] == total.faults


def test_run_queries_accepts_any_iterable(executor):
    outcomes = run_queries(executor, iter((6, 12)))
    assert sorted(outcomes) == [6, 12]           # iterator not eaten


# ----------------------------------------------------------------------
# result files
# ----------------------------------------------------------------------
def test_file_shipping_roundtrip(db_dir, tmp_path, serial_db):
    with MultiprocExecutor(db_dir, procs=2, ship="file",
                           result_dir=tmp_path,
                           task_modules=TASKS) as pool:
        outcomes = run_queries(pool, (3, 6))
        # a later round must not overwrite the first round's files:
        # the retained outcomes still verify after the re-run
        run_queries(pool, (3, 6))
    for number, outcome in outcomes.items():
        mode, path = outcome.payload
        assert mode == "file"
        assert str(path).startswith(str(tmp_path))
        shipped = outcome.value()                  # verifies the sha1
        assert result_checksum(shipped) == outcome.checksum
        serial = result_checksum(
            ship_value(QUERIES[number].run(serial_db)))
        assert outcome.checksum == serial


def test_file_shipping_detects_corruption(db_dir, tmp_path):
    with MultiprocExecutor(db_dir, procs=1, ship="file",
                           result_dir=tmp_path,
                           task_modules=TASKS) as pool:
        outcome = run_queries(pool, (6,))[6]
    _mode, path = outcome.payload
    with open(path, "wb") as handle:
        pickle.dump({"kind": "value", "value": -1.0}, handle)
    with pytest.raises(MILError):
        outcome.value()
    assert outcome.value(verify=False) == {"kind": "value",
                                           "value": -1.0}


# ----------------------------------------------------------------------
# MIL programs
# ----------------------------------------------------------------------
def _two_chain_program():
    program = MILProgram()
    selected = program.emit("select", [Var("Item_quantity"), 10, 40])
    joined = program.emit("join", [selected,
                                   Var("Item_extendedprice")])
    program.emit("aggr_all", [joined], fn="sum", target="total")
    program.emit("group", [Var("Item_order")], target="groups")
    return program


def test_run_programs_match_serial(executor, db_dir):
    program = _two_chain_program()
    kernel = MonetKernel.open(db_dir)
    env, checksum = run_program_serial(kernel, program,
                                       ["total", "groups"])
    outcomes = executor.run_programs([(program, ["total", "groups"])])
    assert outcomes[0].checksum == checksum
    assert outcomes[0].value().keys() == env.keys()


# ----------------------------------------------------------------------
# generation pinning across the fleet
# ----------------------------------------------------------------------
def test_workers_reject_mismatched_generation(db_dir):
    with pytest.raises(StaleCatalogError):
        with MultiprocExecutor(db_dir, procs=1,
                               expected_generation=99,
                               task_modules=TASKS) as pool:
            run_queries(pool, (6,))


def test_open_tpcd_pin_binds_preopened_kernels(db_dir):
    """The generation pin must hold even when a cached kernel is
    wrapped instead of freshly opened."""
    kernel = MonetKernel.open(db_dir)
    with pytest.raises(StaleCatalogError):
        open_tpcd(db_dir, expected_generation=kernel.generation + 1,
                  kernel=kernel)
    db, _report = open_tpcd(db_dir,
                            expected_generation=kernel.generation,
                            kernel=kernel)
    assert db.kernel is kernel


# ----------------------------------------------------------------------
# warm pool: async submit, crash handling, timeouts, task registry
# ----------------------------------------------------------------------
def test_submit_returns_pending_task(executor, serial_db):
    pending = executor.submit(("query", "qasync", "tpcd", (6, None)))
    outcome = pending.result(timeout=60)
    assert pending.done()
    serial = result_checksum(ship_value(QUERIES[6].run(serial_db)))
    assert outcome.checksum == serial
    assert pending.pid in executor.worker_pids()


def test_unknown_task_kind_raises_without_killing_pool(executor):
    with pytest.raises(MILError):
        executor.submit(("nonsense", "x")).result(timeout=60)
    # the worker survived the failing task
    assert run_queries(executor, (6,))[6].checksum


def test_idle_worker_death_respawns_transparently(db_dir):
    with MultiprocExecutor(db_dir, procs=1, task_modules=TASKS) as pool:
        run_queries(pool, (6,))                  # worker warm
        [pid] = pool.worker_pids()
        os.kill(pid, signal.SIGKILL)
        pool._workers[0].process.join(timeout=10)  # observe the death
        # the task never started on the dead worker, so it is retried
        # on the replacement instead of surfacing an error
        outcome = run_queries(pool, (6,))[6]
        assert outcome.pid != pid
        assert pool.respawns == 1
        assert pool.crashes == 0


def test_midtask_crash_surfaces_typed_error_and_respawns(db_dir):
    with MultiprocExecutor(db_dir, procs=1, task_modules=TASKS) as pool:
        run_queries(pool, (6,))                  # catalog mapped
        [pid] = pool.worker_pids()
        pending = pool.submit(("query", "qcrash", "tpcd", (13, None)))
        assert pending.dispatched.wait(30)
        os.kill(pid, signal.SIGKILL)
        with pytest.raises(WorkerCrashedError):
            pending.result(timeout=60)
        assert pool.crashes == 1
        # the pool keeps serving through the respawned worker
        outcome = run_queries(pool, (6,))[6]
        assert outcome.pid != pid


def test_timeout_kills_overdue_worker_and_recovers(db_dir, serial_db):
    with MultiprocExecutor(db_dir, procs=1, task_modules=TASKS) as pool:
        run_queries(pool, (6,))
        [pid] = pool.worker_pids()
        with pytest.raises(QueryTimeoutError):
            pool.submit(("query", "qslow", "tpcd", (13, None)),
                        timeout=0.0001).result(timeout=60)
        assert pool.timeouts == 1
        assert pool.worker_pids() != [pid]
        outcome = run_queries(pool, (13,))[13]
        serial = result_checksum(ship_value(QUERIES[13].run(serial_db)))
        assert outcome.checksum == serial


def test_registered_moa_task_kind_with_plan_cache(db_dir, serial_db):
    text = QUERIES[1].texts()[0]
    expected = result_checksum(
        ship_value(serial_db.query(text).rows))
    with MultiprocExecutor(db_dir, procs=1, task_modules=TASKS) as pool:
        first = pool.submit(("query", "m1", "moa", text)).result(
            timeout=120)
        second = pool.submit(("query", "m2", "moa", text)).result(
            timeout=120)
    assert first.checksum == expected == second.checksum
    assert first.extra["plan_cached"] is False
    assert second.extra["plan_cached"] is True
    assert second.extra["plan_cache"]["hits"] == 1
    assert second.extra["plan_cache"]["misses"] == 1


# ----------------------------------------------------------------------
# checksum canon
# ----------------------------------------------------------------------
def test_result_checksum_distinguishes_types():
    import numpy as np
    from repro.moa.values import Ref, Row
    values = [None, True, 1, 1.0, "1", b"1",
              np.asarray([1, 2]), np.asarray([1.0, 2.0]),
              [1, 2], (1, (2,)), {"a": 1}, {"a": 2},
              Row([("a", 1)]), Row([("b", 1)]),
              Ref("Order", 1), Ref("Order", 2)]
    digests = [result_checksum(value) for value in values]
    assert len(set(digests)) == len(digests)
    # and is stable across calls (the multi-process contract)
    assert digests == [result_checksum(value) for value in values]


def test_result_checksum_rejects_unknown_types():
    with pytest.raises(TypeError):
        result_checksum(object())


# ----------------------------------------------------------------------
# the worker's buffer manager across tasks
# ----------------------------------------------------------------------
def _task_resident_pages(ctx, task):
    return ship_value(get_manager().resident_pages()), None


# registered before any executor forks, so every worker inherits it
register_task_kind("resident_pages", _task_resident_pages)


def _worker_resident_pages(pool):
    return pool.submit(("resident_pages", "r")).result(timeout=60) \
        .value()["value"]


def test_worker_resident_set_stays_flat_across_tasks(db_dir):
    """The worker's manager outlives every task; the pages of a task's
    dead intermediates must be forgotten at the task boundary, so the
    resident set after N rounds equals the one after the first."""
    with MultiprocExecutor(db_dir, procs=1, task_modules=TASKS) as pool:
        run_queries(pool, QUERY_SLICE)
        after_one = _worker_resident_pages(pool)
        for _ in range(3):
            run_queries(pool, QUERY_SLICE)
        assert _worker_resident_pages(pool) == after_one
    assert after_one > 0
