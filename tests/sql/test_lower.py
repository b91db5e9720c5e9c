"""Lowering contract: SQL ASTs become the Moa plans the hand-written
path would build.

These tests pin the *plan shapes* (via the rendered MOA trees), not
results — the differential/oracle suites cover results.  The central
claims: foreign-key equi-joins dissolve into path navigation instead
of real joins, subquery predicates become semijoins, grouped queries
become nest/project pipelines, and scalar subqueries split into
phases exactly like the hand-written two-phase TPC-D drivers.
"""

import pytest

from repro.errors import SqlUnsupportedError
from repro.sql import ast as sql_ast
from repro.sql.lower import _LOWERS, lower_sql
from repro.sql.parser import parse_sql
from repro.moa.plan import Hole


def _phases(text):
    return lower_sql(parse_sql(text)).phases


def _plan(text):
    phases = _phases(text)
    assert len(phases) == 1
    return phases[0].render()


# ----------------------------------------------------------------------
# totality: every AST node the parser can produce has a lowering
# ----------------------------------------------------------------------
def test_lowering_dispatch_is_total_over_the_ast():
    declared = {cls.__name__ for cls in sql_ast.NODE_CLASSES}
    assert set(_LOWERS) == declared


# ----------------------------------------------------------------------
# foreign-key dissolution: no join operator for FK navigation
# ----------------------------------------------------------------------
def test_fk_equijoin_dissolves_into_path_navigation():
    plan = _plan("select o_orderdate from orders, lineitem "
                 "where l_orderkey = o_orderkey "
                 "and l_quantity > 10.0")
    assert "join" not in plan
    assert "%order.orderdate" in plan
    assert plan.startswith("project[")


def test_fk_chain_dissolves_transitively():
    # lineitem -> orders -> customer -> nation: three FK hops, no join
    plan = _plan("select n_name from lineitem, orders, customer, "
                 "nation where l_orderkey = o_orderkey and "
                 "o_custkey = c_custkey and c_nationkey = n_nationkey")
    assert "join" not in plan
    assert "%order.cust.nation.name" in plan


def test_non_fk_equijoin_stays_a_real_join():
    # supplier/customer nation equality is not a FK edge
    plan = _plan("select s_name, c_name from supplier, customer "
                 "where s_nationkey = c_nationkey")
    assert "join[" in plan


def test_cross_join_is_rejected_typed():
    with pytest.raises(SqlUnsupportedError) as err:
        _phases("select s_name, c_name from supplier, customer")
    assert "cross" in str(err.value).lower()


# ----------------------------------------------------------------------
# subquery predicates lower to (anti)semijoins
# ----------------------------------------------------------------------
def test_exists_lowers_to_semijoin():
    plan = _plan("select o_orderpriority from orders where exists "
                 "(select * from lineitem "
                 "where l_orderkey = o_orderkey)")
    assert "semijoin[" in plan
    assert "antijoin" not in plan


def test_not_exists_lowers_to_antijoin():
    plan = _plan("select c_name from customer where not exists "
                 "(select * from orders where o_custkey = c_custkey)")
    assert "antijoin[" in plan


def test_in_select_lowers_to_semijoin():
    plan = _plan("select c_name from customer where c_nationkey in "
                 "(select n_nationkey from nation "
                 "where n_name = 'FRANCE')")
    assert "semijoin[" in plan


def test_uncorrelated_exists_is_rejected_typed():
    with pytest.raises(SqlUnsupportedError):
        _phases("select c_name from customer where exists "
                "(select * from orders)")


# ----------------------------------------------------------------------
# grouping and scalar aggregates
# ----------------------------------------------------------------------
def test_group_by_lowers_to_nest_project():
    plan = _plan("select l_returnflag as f, sum(l_quantity) as q "
                 "from lineitem group by l_returnflag")
    assert "nest[" in plan
    assert "project[" in plan
    assert "sum(" in plan


def test_scalar_aggregate_is_a_bare_aggregate_phase():
    plan = _plan("select sum(l_quantity) as total from lineitem")
    assert plan.startswith("sum(")
    assert "nest" not in plan


def test_count_star_needs_no_projection_argument():
    plan = _plan("select count(*) as n from lineitem "
                 "where l_quantity > 30.0")
    assert plan.startswith("count(")


def test_arithmetic_over_aggregates_becomes_a_py_phase():
    # Q14's shape: no MIL operator combines two scalars
    phases = _phases(
        "select 100.0 * sum(l_extendedprice) / sum(l_quantity) "
        "as ratio from lineitem")
    kinds = [p.kind for p in phases]
    assert kinds == ["moa", "moa", "py"]


def test_scalar_query_rejects_multiple_items():
    with pytest.raises(SqlUnsupportedError):
        _phases("select sum(l_quantity), sum(l_tax) from lineitem")


def test_having_without_group_by_is_rejected():
    with pytest.raises(SqlUnsupportedError):
        _phases("select l_orderkey from lineitem having 1 = 1")


# ----------------------------------------------------------------------
# scalar subqueries split into phases (the two-phase driver shape)
# ----------------------------------------------------------------------
def test_uncorrelated_scalar_subquery_becomes_a_hole_phase():
    lowered = lower_sql(parse_sql(
        "select s_name from supplier where s_acctbal > "
        "(select avg(s_acctbal) from supplier)"))
    assert len(lowered.phases) == 2
    first, second = lowered.phases
    assert first.kind == "moa" and not first.has_holes
    assert second.kind == "moa" and second.has_holes
    assert "$0" in second.render()      # the Hole renders as $0
    holes = [n for n in _walk_moa(second.tree)
             if isinstance(n, Hole)]
    assert holes and holes[0].index == 0


def test_correlated_min_subquery_decorrelates_to_nest_join():
    # Q2's shape: per-part minimum cost, decorrelated through
    # nest + project + join instead of per-row re-execution
    plan = _plan(
        "select p_name from part, partsupp where "
        "ps_partkey = p_partkey and ps_supplycost = "
        "(select min(ps_supplycost) from partsupp "
        "where ps_partkey = p_partkey)")
    assert "nest[" in plan
    assert "join[" in plan
    assert "min(" in plan


def _walk_moa(tree):
    from repro.moa import ast as moa_ast
    return moa_ast.walk(tree)


# ----------------------------------------------------------------------
# expression details
# ----------------------------------------------------------------------
def test_char_comparison_coerces_the_literal():
    plan = _plan("select l_orderkey as o from lineitem "
                 "where l_returnflag = 'R'")
    assert "char(\"R\")" in plan or "'R'" in plan


def test_case_lowers_to_ifthenelse():
    plan = _plan("select sum(case when l_returnflag = 'R' then 1 "
                 "else 0 end) as n from lineitem")
    assert "ifthenelse(" in plan


def test_like_shapes_lower_to_string_predicates():
    assert "startswith" in _plan(
        "select p_name from part where p_name like 'gre%'")
    assert "endswith" in _plan(
        "select p_name from part where p_name like '%STEEL'")
    assert "contains" in _plan(
        "select p_name from part where p_name like '%green%'")


def test_like_with_underscore_wildcard_is_rejected():
    with pytest.raises(SqlUnsupportedError):
        _phases("select p_name from part where p_name like 'g_een'")


def test_extract_year_lowers_to_year_call():
    plan = _plan("select extract(year from o_orderdate) as y, "
                 "count(*) as n from orders "
                 "group by extract(year from o_orderdate)")
    assert "year(" in plan


def test_order_by_output_name_resolves_post_projection():
    plan = _plan("select l_returnflag as f, sum(l_quantity) as q "
                 "from lineitem group by l_returnflag "
                 "order by q desc limit 5")
    assert "top[5]" in plan
    assert "sort[" in plan
    assert "%q desc" in plan
