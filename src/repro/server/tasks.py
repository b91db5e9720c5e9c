"""The worker-side ``query`` task kind of the query service.

Every worker process of the service's warm pools imports this module
(``MultiprocExecutor(task_modules=("repro.server.tasks",))``), which
registers the one task kind that runs queries; ``mil`` tasks, whose
input is already a MIL program, stay in :mod:`repro.monet.multiproc`,
and the monet layer never imports the moa/server layers.

A ``("query", key, form, source)`` task runs one query whatever
front-end it came in through: ``form`` is ``moa`` (``source`` is Moa
text), ``sql`` (SQL text) or ``tpcd`` (``(number, params)``).  Each
form lowers to the one :class:`~repro.moa.plan.LoweredQuery`, prepared
as a :class:`~repro.moa.plan.PreparedPlan` and kept in a per-worker
**LRU plan cache** under ``(form, canonical source, generation)``.  A
miss compiles and budget-checks the hole-free phases before the plan
enters the cache, so a rejected plan is never cached; a hit re-runs
the compiled MIL.  The generation in the key means a pool serving a
newer snapshot can never resurrect a stale plan.

Each outcome ships ``extra = {"plan_cached": bool, "plan_cache":
{hits, misses, evictions, size, capacity}, "result_bytes": int}`` —
this worker's cumulative cache counters plus the canonical byte
weight of the result — which the service aggregates into ``stats``.
"""

import json

from ..analysis.verify import PlanBudget, catalog_stats_from_kernel
from ..errors import ProtocolError
from ..moa.plan import PreparedPlan, moa_plan
from ..monet.multiproc import register_task_kind, ship_value
from ..tpcd.queries import QUERIES
from .cache import LRUCache
from .protocol import payload_nbytes

#: Default per-worker plan-cache capacity (overridable through the
#: executor's ``worker_options={"plan_cache_size": N}``).
DEFAULT_PLAN_CACHE_SIZE = 64

#: The front-ends a ``query`` task accepts.
FORMS = ("moa", "sql", "tpcd")


def canonical_source(form, source):
    """The cache identity of a query source: the text itself, or for
    ``tpcd`` the number with its parameters completed from the
    defaults, so ``None``, ``{}`` and the explicit defaults agree."""
    if form == "tpcd":
        number, params = source
        return json.dumps([number, QUERIES[number].params(params)],
                          sort_keys=True)
    return source


def lower(form, source):
    """The phase plan of ``source`` in front-end ``form``."""
    if form == "moa":
        return moa_plan(source)
    if form == "sql":
        from ..sql.lower import lower_sql
        from ..sql.parser import parse_sql
        return lower_sql(parse_sql(source))
    if form == "tpcd":
        number, params = source
        try:
            return QUERIES[number].plan(params)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError("bad params for TPC-D query %d: %r"
                                % (number, exc)) from exc
    raise ProtocolError("unknown query form %r" % (form,))


def _plan_cache(ctx):
    cache = ctx.state.get("plan_cache")
    if cache is None:
        size = ctx.options.get("plan_cache_size",
                               DEFAULT_PLAN_CACHE_SIZE)
        cache = ctx.state["plan_cache"] = LRUCache(size)
    return cache


def _plan_budget(ctx):
    """The service's admission budget, shipped as a plain dict."""
    options = ctx.options.get("plan_budget")
    if not options:
        return None
    return PlanBudget(max_rows=options.get("max_rows"),
                      max_bytes=options.get("max_bytes"),
                      max_pages=options.get("max_pages"))


def _query_warmup(ctx, task):
    ctx.db()


def _run_query(ctx, task):
    _kind, _key, form, source = task
    db = ctx.db()
    cache = _plan_cache(ctx)
    key = (form, canonical_source(form, source), ctx.generation)
    prepared = cache.get(key)
    hit = prepared is not None
    if not hit:
        budget = _plan_budget(ctx)
        catalog = catalog_stats_from_kernel(db.kernel) \
            if budget is not None else None
        # an over-budget or malformed query raises here, before the
        # put: a rejected plan never enters the cache
        prepared = PreparedPlan(db, lower(form, source), budget=budget,
                                catalog=catalog)
        cache.put(key, prepared)
    value = prepared.run()
    extra = {"plan_cached": hit, "plan_cache": cache.snapshot(),
             "result_bytes": payload_nbytes(value)}
    return ship_value(value), extra


register_task_kind("query", _run_query, warmup=_query_warmup)


def run_queries(executor, numbers=None, overrides=None):
    """Fan TPC-D queries over ``executor``'s workers as ``tpcd``
    query tasks.

    The executor's workers must import this module
    (``task_modules=("repro.server.tasks",)``).  ``numbers`` defaults
    to the whole query set; ``overrides`` is an optional ``{number:
    params}`` dict.  Returns ``{number: TaskOutcome}``.
    """
    numbers = sorted(QUERIES) if numbers is None else list(numbers)
    tasks = [("query", "q%d" % number, "tpcd",
              (number, (overrides or {}).get(number)))
             for number in numbers]
    return dict(zip(numbers, executor.map_tasks(tasks)))
