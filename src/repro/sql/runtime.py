"""Execution of SQL text through the shared phase plan.

SQL lowers (:mod:`repro.sql.lower`) to the front-end-neutral
:class:`~repro.moa.plan.LoweredQuery` every query path uses; scalar
subqueries become earlier phases whose results fill
:class:`~repro.moa.plan.Hole` literals.  :class:`PreparedSql` is that
plan's executor, :class:`~repro.moa.plan.PreparedPlan`, under its
SQL-facing name.
"""

from ..moa.plan import PreparedPlan

PreparedSql = PreparedPlan


def prepare_sql(db, text, budget=None, catalog=None):
    """Parse, bind and lower SQL text against ``db``; returns a
    :class:`PreparedSql`."""
    from .lower import lower_sql
    from .parser import parse_sql
    return PreparedSql(db, lower_sql(parse_sql(text)), budget=budget,
                       catalog=catalog)


def execute_sql(db, text):
    """One-shot: parse, lower, execute; returns rows (or the scalar
    for aggregate-only queries), exactly like the Moa path."""
    return prepare_sql(db, text).run()
