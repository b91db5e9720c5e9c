"""Load drivers, the span recorder and the in-process layer replay.

Every layer is timed from outside, around calls into its public
functions: the TPC-D drivers (``QUERIES[n].run``), the Moa pipeline
(``parse``, ``resolve``, ``rewrite``, ``MILInterpreter.run``,
``Materializer.top_level``), the SQL front-end (``parse_sql``,
``lower_sql``, ``PreparedSql``), the result codec (``ship_value``,
``result_checksum``) and the served path (``QueryServer`` +
``QueryService`` driven by ``QueryClient``).
"""

import itertools
import json
import statistics
import threading
import time

from repro.errors import ReproError
from repro.moa import Materializer, parse, resolve, rewrite
from repro.monet.buffer import BufferManager, use
from repro.monet.mil import MILInterpreter
from repro.monet.multiproc import result_checksum, ship_value
from repro.monet.optimizer import get_optimizer
from repro.server import QueryClient, QueryServer, QueryService
from repro.sql import lower_sql, parse_sql
from repro.sql.runtime import PreparedSql
from repro.tpcd import QUERIES

from verify import checksum_of

now = time.perf_counter


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Spans:
    """In-memory span store: (id, parent, request, name, start, end).

    Times are ``perf_counter`` seconds.  Spans are only appended while
    a run is traced and are written out once, when the run ends.
    """

    def __init__(self):
        self.rows = []
        self._ids = itertools.count(1)

    def new_id(self):
        return next(self._ids)

    def add(self, name, start, end, parent=0, request=0, span_id=None):
        span_id = span_id if span_id is not None else self.new_id()
        self.rows.append((span_id, parent, request, name, start, end))
        return span_id

    def self_times(self):
        """{span id: duration minus the union of its children}."""
        children = {}
        for row in self.rows:
            children.setdefault(row[1], []).append((row[4], row[5]))
        out = {}
        for span_id, _parent, _req, _name, start, end in self.rows:
            covered, cursor = 0.0, start
            for lo, hi in sorted(children.get(span_id, ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[span_id] = (end - start) - covered
        return out

    def coverage(self):
        """Share of request-span time covered by child spans."""
        selfs = self.self_times()
        total = covered = 0.0
        for span_id, _p, _r, name, start, end in self.rows:
            if name == "request":
                total += end - start
                covered += (end - start) - selfs[span_id]
        return covered / total if total else 0.0

    def per_request(self):
        """{request id: {span name: summed duration ms}}."""
        out = {}
        for _id, _parent, request, name, start, end in self.rows:
            layers = out.setdefault(request, {})
            layers[name] = layers.get(name, 0.0) + (end - start) * 1e3
        return out

    def dump(self, path):
        with open(path, "w") as handle:
            for span_id, parent, request, name, start, end in self.rows:
                handle.write(json.dumps(
                    {"id": span_id, "parent": parent, "request": request,
                     "name": name, "start": start, "end": end}) + "\n")


class _Rows:
    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows


class TracedDatabase:
    """A ``MOADatabase`` facade that runs the public pipeline one call
    at a time, with a span around each call.

    The TPC-D drivers only call ``db.query(text).rows`` and the SQL
    runtime only ``db.run_compiled`` / ``db.schema`` / ``db.flat``, so
    handing them this facade splits every driver (the two-phase Q11,
    Q14 and Q15 included) from outside.  ``query`` mirrors
    ``MOADatabase.query``: the MIL program runs with its trace on.
    """

    def __init__(self, db, spans):
        self.schema = db.schema
        self.flat = db.flat
        self.kernel = db.kernel
        self.spans = spans
        self.parent = 0
        self.request = 0
        #: RewriteResults executed since the last reset (for replays)
        self.plans = []

    def timed(self, name, fn, *args):
        started = now()
        value = fn(*args)
        self.spans.add(name, started, now(), self.parent, self.request)
        return value

    def compile(self, text):
        tree = self.timed("moa.parse", parse, text)
        resolved = self.timed("moa.resolve", resolve, tree, self.schema)
        return self.timed("moa.rewrite", rewrite, resolved, self.flat)

    def run_compiled(self, compiled, trace=False):
        interpreter = MILInterpreter(self.kernel)
        self.timed("mil.exec", interpreter.run, compiled.program, trace)
        self.plans.append(compiled)
        if compiled.scalar_var is not None:
            return interpreter.value(compiled.scalar_var)
        return self.timed("moa.materialize",
                          Materializer(interpreter.resolve).top_level,
                          compiled.rep)

    def query(self, text):
        return _Rows(self.run_compiled(self.compile(text), trace=True))


# ----------------------------------------------------------------------
# timed windows
# ----------------------------------------------------------------------
class Sample:
    """One completed request of a timed window."""

    __slots__ = ("request", "start", "end", "service_ms", "elapsed_ms",
                 "plan_cached", "reply_bytes", "span")

    def __init__(self, request, start, end, service_ms=None,
                 elapsed_ms=None, plan_cached=None, reply_bytes=None,
                 span=0):
        self.request = request
        self.start = start
        self.end = end
        self.service_ms = service_ms
        self.elapsed_ms = elapsed_ms
        self.plan_cached = plan_cached
        self.reply_bytes = reply_bytes
        self.span = span

    @property
    def ms(self):
        return (self.end - self.start) * 1e3


class Window:
    """Samples, failures and wall time of one timed window."""

    def __init__(self, samples, failed, wall_s):
        self.samples = samples
        self.failed = failed
        self.wall_s = wall_s

    @property
    def attempted(self):
        return len(self.samples) + self.failed


def run_power(db, requests, seconds, answers, spans=None):
    """In-process, one caller: whole passes over ``requests`` until
    ``seconds`` have elapsed (at least one pass)."""
    target = TracedDatabase(db, spans) if spans is not None else None
    samples = []
    started = now()
    deadline = started + seconds
    while not samples or now() < deadline:
        for request in requests:
            driver = QUERIES[request.number]
            if target is None:
                begin = now()
                rows = driver.run(db, request.params)
                end = now()
                answers.observe(request, checksum_of(rows), rows)
                samples.append(Sample(request, begin, end))
                continue
            span_id = spans.new_id()
            target.parent = target.request = span_id
            begin = now()
            rows = driver.run(target, request.params)
            end = now()
            spans.add("request", begin, end, request=span_id,
                      span_id=span_id)
            target.parent = 0
            shipped = target.timed("multiproc.ship", ship_value, rows)
            checksum = target.timed("multiproc.checksum", result_checksum,
                                    shipped)
            answers.observe(request, checksum, rows)
            samples.append(Sample(request, begin, end, span=span_id))
    return Window(samples, 0, now() - started)


class Pool:
    """An in-process QueryServer over a default-settings QueryService
    (2 worker processes, 64-entry plan cache, result cache off)."""

    def __init__(self, db_dir):
        self.service = QueryService(db_dir)
        self.server = QueryServer(self.service)
        self.server.start()
        self.address = self.server.address

    def warm(self):
        """One concurrent request per worker, so that every worker has
        opened the catalog before any timed request."""
        errors = []

        def _one():
            try:
                with QueryClient(*self.address) as client:
                    client.tpcd(6)
            except BaseException as exc:     # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=_one)
                   for _ in range(self.service.procs)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

    def close(self):
        self.server.stop()
        self.service.close()


def start_pool(db_dir):
    """(pool, seconds to start it and warm both workers)."""
    started = now()
    pool = Pool(db_dir)
    try:
        pool.warm()
    except BaseException:
        pool.close()
        raise
    return pool, now() - started


def send(client, request):
    if request.form == "moa":
        return client.moa(request.text)
    if request.form == "sql":
        return client.sql(request.text)
    return client.tpcd(request.number, request.params)


def run_served(address, streams, seconds, answers, spans=None):
    """Closed loop: one client thread and connection per stream, each
    sending its next request when the previous reply is in."""
    samples, failures, problems = [], [0], []
    lock = threading.Lock()
    started = now()
    deadline = started + seconds

    def _client(stream):
        local, failed = [], 0
        client = None
        try:
            client = QueryClient(*address)
            while now() < deadline:
                request = next(stream)
                begin = now()
                try:
                    reply = send(client, request)
                except ReproError:
                    failed += 1
                    client.close()
                    client = QueryClient(*address)
                    continue
                end = now()
                answers.observe(request, reply.checksum, reply.value)
                local.append(Sample(request, begin, end, reply.service_ms,
                                    reply.elapsed_ms, reply.plan_cached,
                                    reply.payload_bytes))
        except BaseException as exc:         # noqa: BLE001
            problems.append(exc)
        finally:
            if client is not None:
                client.close()
            with lock:
                samples.extend(local)
                failures[0] += failed

    threads = [threading.Thread(target=_client, args=(stream,))
               for stream in streams]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = now() - started
    if problems:
        raise problems[0]
    samples.sort(key=lambda sample: sample.start)
    if spans is not None:
        _client_spans(spans, samples)
    return Window(samples, failures[0], wall)


def _client_spans(spans, samples):
    """A client span per request; its children come from the reply.

    Where the service and worker intervals sit inside the client span
    is not visible from outside, so each child is centred in its
    parent; self times do not depend on the placement.
    """
    for sample in samples:
        root = spans.new_id()
        spans.add("request", sample.start, sample.end, request=root,
                  span_id=root)
        outer = sample.end - sample.start
        service_s = min(sample.service_ms / 1e3, outer)
        lo = sample.start + (outer - service_s) / 2
        service = spans.add("server.service", lo, lo + service_s, root,
                            root)
        worker_s = min(sample.elapsed_ms / 1e3, service_s)
        lo += (service_s - worker_s) / 2
        spans.add("server.worker", lo, lo + worker_s, service, root)
        sample.span = root


def run_probe(address, requests, rounds, answers):
    """One client, sequential: every request ``rounds`` times."""
    samples = []
    with QueryClient(*address) as client:
        for _ in range(rounds):
            for request in requests:
                begin = now()
                reply = send(client, request)
                end = now()
                answers.observe(request, reply.checksum, reply.value)
                samples.append(Sample(request, begin, end,
                                      reply.service_ms, reply.elapsed_ms,
                                      reply.plan_cached,
                                      reply.payload_bytes))
    return samples


# ----------------------------------------------------------------------
# in-process layer replay
# ----------------------------------------------------------------------
#: the simulated page size of a served worker (QueryService's default)
PAGE_SIZE = 4096
#: runs per side when timing buffer accounting
BUFFER_REPS = 3
COMPILE_LAYERS = ("sql.parse", "sql.lower", "sql.prepare", "moa.parse",
                  "moa.resolve", "moa.rewrite")


class Replayed:
    """The layer split of one replayed request."""

    def __init__(self, request, layers, stmts, faults, buffer_ms,
                 dispatch):
        self.request = request
        #: {span name: ms}
        self.layers = layers
        self.stmts = stmts
        self.faults = faults
        self.buffer_ms = buffer_ms
        #: {"op:impl": dispatches} while the request ran
        self.dispatch = dispatch

    @property
    def compile_ms(self):
        return sum(self.layers.get(name, 0.0) for name in COMPILE_LAYERS)


def _execute(target, request):
    """Run ``request`` in-process the way its worker task does."""
    if request.form == "tpcd":
        return QUERIES[request.number].run(target, request.params)
    if request.form == "moa":
        return target.run_compiled(target.compile(request.text))
    stmt = target.timed("sql.parse", parse_sql, request.text)
    lowered = target.timed("sql.lower", lower_sql, stmt)
    prepared = target.timed("sql.prepare", PreparedSql, target, lowered)
    return prepared.run()


def _buffer_cost(kernel, plans, manager):
    """(faults, ms) the buffer accounting adds to ``plans``: the same
    programs run under ``use(manager)`` and without one, alternating,
    medians per side."""
    faults, extra_ms = 0, 0.0
    for compiled in plans:
        plain, accounted = [], []
        for rep in range(BUFFER_REPS):
            started = now()
            MILInterpreter(kernel).run(compiled.program)
            plain.append(now() - started)
            # the first accounted run starts cold, so its faults are
            # the pages the plan touches; later runs reuse ``manager``
            current = BufferManager(page_size=manager.page_size) \
                if rep == 0 else manager
            with use(current):
                current.reset_counters()
                started = now()
                MILInterpreter(kernel).run(compiled.program)
                accounted.append(now() - started)
            if rep == 0:
                faults += current.faults
        extra_ms += (statistics.median(accounted)
                     - statistics.median(plain)) * 1e3
    return faults, extra_ms


def replay(db, requests, answers):
    """Replay ``requests`` in-process, one at a time, and split each
    into compile, MIL execution, materialize, ship, checksum and the
    buffer-accounting cost a served worker adds."""
    spans = Spans()
    target = TracedDatabase(db, spans)
    optimizer = get_optimizer()
    #: one manager across the replay, like a worker's resident one
    manager = BufferManager(page_size=PAGE_SIZE)
    done = []
    for request in requests:
        span_id = spans.new_id()
        target.parent = target.request = span_id
        target.plans = []
        optimizer.stats.clear()
        begin = now()
        value = _execute(target, request)
        spans.add("request", begin, now(), request=span_id,
                  span_id=span_id)
        dispatch = dict(optimizer.stats)
        target.parent = 0
        shipped = target.timed("multiproc.ship", ship_value, value)
        checksum = target.timed("multiproc.checksum", result_checksum,
                                shipped)
        answers.observe(request, checksum, value)
        faults, buffer_ms = _buffer_cost(db.kernel, target.plans, manager)
        done.append((request, span_id,
                     sum(len(plan.program) for plan in target.plans),
                     faults, buffer_ms, dispatch))
    layers = spans.per_request()
    return [Replayed(request, layers[span_id], stmts, faults, buffer_ms,
                     dispatch)
            for request, span_id, stmts, faults, buffer_ms, dispatch
            in done]
