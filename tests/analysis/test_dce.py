"""The rewriter's plan passes: CSE then DCE, on by default.

Unless the optimizer is ``verbatim``, the rewriter merges statements
that recompute an earlier value (common-subexpression elimination,
:func:`repro.analysis.verify.common_subexpressions`) and then drops
statements the result representation never observes (dead-code
elimination through the verifier's liveness pass).  The contract:

* **on by default, off under verbatim** — a ``verbatim`` compile emits
  the paper's plans as translated;
* **differential** — every TPC-D query (every phase) produces a
  bit-identical result checksum with and without the passes;
* **observable** — the passes record ``cse:removed`` / ``dce:removed``
  in the optimizer stats, and really do remove something.
"""

from repro.analysis.verify import (PURE_OPS, catalog_stats_from_kernel,
                                   common_subexpressions, verify_program)
from repro.monet.mil import _OPS, MILProgram, Var
from repro.monet.multiproc import result_checksum, ship_value
from repro.monet.optimizer import Optimizer, get_optimizer, use
from repro.tpcd import QUERIES


def test_passes_on_by_default_off_under_verbatim(tiny_tpcd_db):
    assert get_optimizer().verbatim is False
    assert Optimizer().verbatim is False
    text = QUERIES[1].texts()[0]
    default = Optimizer()
    with use(default):
        _resolved, optimized = tiny_tpcd_db.compile(text)
    verbatim = Optimizer(verbatim=True)
    with use(verbatim):
        _resolved, plain = tiny_tpcd_db.compile(text)
    assert default.stats["cse:removed"] > 0
    assert not any(key.endswith(":removed") for key in verbatim.stats)
    assert len(optimized.program) < len(plain.program)


def test_dce_differential_all_tpcd_queries(tiny_tpcd_db):
    with use(Optimizer(verbatim=True)):
        baseline = {number: result_checksum(
            ship_value(QUERIES[number].run(tiny_tpcd_db)))
            for number in sorted(QUERIES)}
    optimizer = Optimizer()
    with use(optimizer):
        optimized = {number: result_checksum(
            ship_value(QUERIES[number].run(tiny_tpcd_db)))
            for number in sorted(QUERIES)}
    assert optimized == baseline
    assert optimizer.stats["cse:removed"] >= 1 \
        and optimizer.stats["dce:removed"] >= 1, \
        "a pass never removed anything: the differential is vacuous"


def test_dce_shrinks_a_plan_and_it_still_verifies(tiny_tpcd_db):
    text = QUERIES[2].texts()[0]
    with use(Optimizer(verbatim=True)):
        _resolved, plain = tiny_tpcd_db.compile(text)
    _resolved, shrunk = tiny_tpcd_db.compile(text)
    assert len(shrunk.program) < len(plain.program)
    stats = catalog_stats_from_kernel(tiny_tpcd_db.kernel)
    plan = verify_program(shrunk.program, catalog=stats)
    assert plan.findings == []


def _program(*stmts):
    program = MILProgram()
    for target, op, args, fn in stmts:
        program.emit(op, args, fn=fn, target=target)
    return program


def test_cse_merges_and_renames_later_readers():
    program = _program(
        ("a", "select", [Var("B"), 1], None),
        ("b", "select", [Var("B"), 1], None),
        ("c", "semijoin", [Var("B"), Var("a")], None),
        ("d", "semijoin", [Var("B"), Var("b")], None),
        ("e", "multiplex", [Var("c"), Var("d")], "+"))
    stmts, renames = common_subexpressions(program)
    assert renames == {"b": "a", "d": "c"}
    assert [s.render() for s in stmts] == [
        "a := select(B, 1)", "c := semijoin(B, a)", "e := [+](c, c)"]


def test_cse_keeps_literals_of_different_types_apart():
    program = _program(
        ("a", "multiplex", [1, Var("B")], "-"),
        ("b", "multiplex", [1.0, Var("B")], "-"),
        ("c", "multiplex", [True, Var("B")], "-"),
        ("d", "multiplex", [Var("B"), 1], "-"),
        ("e", "aggr", [Var("B")], "sum"),
        ("f", "aggr", [Var("B")], "avg"))
    stmts, renames = common_subexpressions(program)
    assert renames == {} and len(stmts) == 6


def test_cse_merges_only_ops_proven_pure(monkeypatch):
    program = _program(("a", "select", [Var("B"), 1], None),
                       ("b", "select", [Var("B"), 1], None))
    monkeypatch.setattr("repro.analysis.verify.PURE_OPS",
                        PURE_OPS - {"select"})
    stmts, renames = common_subexpressions(program)
    assert renames == {} and len(stmts) == 2


def test_cse_leaves_plans_with_reassigned_names_alone():
    redefined = _program(("a", "select", [Var("B"), 1], None),
                         ("a", "select", [Var("B"), 2], None),
                         ("b", "select", [Var("B"), 1], None))
    assert common_subexpressions(redefined) == (list(redefined), {})
    read_first = _program(("a", "select", [Var("c"), 1], None),
                          ("b", "select", [Var("c"), 1], None),
                          ("c", "select", [Var("B"), 1], None))
    assert common_subexpressions(read_first) == (list(read_first), {})


def test_every_interpreter_op_is_classified_pure():
    # every op today computes its result from its arguments alone; a
    # new op must be added to PURE_OPS deliberately
    assert PURE_OPS == frozenset(_OPS)
