"""The shared phase plan: NULL scalars, hole filling, TPC-D plans.

Every front-end lowers to :class:`~repro.moa.plan.LoweredQuery`, so
these cases are checked once here and hold for Moa text, SQL text and
TPC-D numbers alike.
"""

import pytest

from repro.errors import SqlUnsupportedError
from repro.moa import ast, parse
from repro.moa.plan import (Hole, PhaseRef, PreparedPlan, eval_py,
                            fill_holes, moa_plan)
from repro.server.tasks import lower
from repro.sql.oracle import check_query, load_oracle
from repro.sql.suite import sql_text
from repro.tpcd import QUERIES, generate, load_tpcd

#: a Q15 window before any shipped item: the max revenue is NULL
EMPTY_WINDOW = {"d1": "1990-01-01", "d2": "1990-01-02"}


@pytest.fixture(scope="module")
def dataset():
    return generate(scale=0.002, seed=7)


@pytest.fixture(scope="module")
def db(dataset):
    db, _report = load_tpcd(dataset)
    return db


def test_empty_scalar_subquery_matches_sqlite(dataset, db):
    conn = load_oracle(dataset)
    try:
        assert check_query(db, conn, sql_text(15, EMPTY_WINDOW)) == 0
    finally:
        conn.close()


def test_empty_scalar_subquery_in_the_tpcd_form(db):
    assert QUERIES[15].run(db, EMPTY_WINDOW) == []
    plan = lower("tpcd", (15, EMPTY_WINDOW))
    assert PreparedPlan(db, plan).run() == []


def test_null_hole_in_a_select_comparison_empties_the_select():
    tree = ast.Select(ast.Extent("Item"), [
        ast.BinOp("and",
                  ast.BinOp(">=", ast.Name("quantity"), Hole(0, "double")),
                  ast.BinOp("<", ast.Name("discount"), Hole(1, "double")))])
    filled = fill_holes(tree, [None, 0.5])
    assert filled.render() == \
        "select[and(<(quantity, quantity), <(discount, 0.5))](Item)"


def test_null_hole_anywhere_else_is_typed():
    in_project = ast.Project(ast.Extent("Item"),
                             [(Hole(0, "double"), "x")])
    with pytest.raises(SqlUnsupportedError):
        fill_holes(in_project, [None])
    in_arithmetic = ast.Select(ast.Extent("Item"), [
        ast.BinOp(">", ast.Name("quantity"),
                  ast.BinOp("*", Hole(0, "double"),
                            ast.Literal(2.0, "double")))])
    with pytest.raises(SqlUnsupportedError):
        fill_holes(in_arithmetic, [None])


def test_py_phase_arithmetic_propagates_null():
    scaled = ast.BinOp("*", PhaseRef(0), ast.Literal(2.0, "double"))
    assert eval_py(scaled, [None]) is None
    assert eval_py(scaled, [3]) == 6.0
    ratio = ast.BinOp("/", PhaseRef(0), PhaseRef(1))
    assert eval_py(ratio, [1.0, 0]) == 0.0       # x / 0 -> 0.0


def test_moa_text_is_a_one_phase_plan():
    text = QUERIES[6].texts()[0]
    plan = moa_plan(text)
    assert [phase.kind for phase in plan.phases] == ["moa"]
    assert plan.phases[0].render() == parse(text).render()


@pytest.mark.parametrize("number", [11, 14, 15])
def test_two_phase_queries_plan_their_scalar_arithmetic(number, db):
    plan = QUERIES[number].plan()
    kinds = [phase.kind for phase in plan.phases]
    assert kinds.count("py") == 1
    # the Moa texts the plan runs are the ones texts() shows, with the
    # threshold literal turned into a hole
    shown = [parse(text).render() for text in QUERIES[number].texts()]
    planned = [phase.render() for phase in plan.phases
               if phase.kind == "moa"]
    assert len(shown) == len(planned)
    for text, phase in zip(shown, planned):
        assert phase == text or phase == text.replace("0.0)", "$1)")
    assert QUERIES[number].run(db) is not None
