"""SQL front-end: parse -> bind -> lower to Moa/MIL.

The pipeline is ``parse_sql`` (text -> SQL AST), binding/type
inference against the TPC-D catalog, ``lower_sql`` (SQL AST ->
:class:`LoweredQuery` of MOA phases) and :class:`PreparedSql` /
``execute_sql`` (the existing resolve -> rewrite -> verify -> MIL
pipeline, phase by phase).  Correctness is differential: every
supported query is checked row-for-row against an in-memory sqlite3
oracle (:mod:`repro.sql.oracle`) over the same generated data.
"""

from .ast import NODE_CLASSES
from .lower import lower_sql
from .parser import parse_sql
from ..moa.plan import Hole, LoweredQuery, MoaPhase, PhaseRef, PyPhase
from .runtime import PreparedSql, execute_sql, prepare_sql

__all__ = [
    "NODE_CLASSES", "parse_sql", "lower_sql", "prepare_sql",
    "execute_sql", "PreparedSql", "LoweredQuery", "MoaPhase", "PyPhase",
    "PhaseRef", "Hole",
]
