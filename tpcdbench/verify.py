"""Answer checking: the sqlite oracle and the checksum registry.

Every distinct (query, params) pair a run touches is checked once
against :mod:`repro.sql.oracle` (stdlib sqlite3 over the same
generated data), outside every timed window.  The checksum of that
verified answer becomes the pair's contract: every timed answer, in
every front-end form, must carry exactly that checksum.  Any
divergence raises :class:`AnswerMismatch`, which fails the run.
"""

import json
import threading

from repro.monet.multiproc import result_checksum, ship_value
from repro.sql.oracle import (canonical_rows, load_oracle,
                              rows_equivalent, to_sqlite)
from repro.sql.parser import parse_sql
from repro.sql.suite import sql_text


class AnswerMismatch(Exception):
    """An answer disagreed with the oracle or with another form."""


def checksum_of(value):
    """The served-result checksum of an in-process answer."""
    return result_checksum(ship_value(value))


class Oracle:
    """sqlite3 loaded with the run's dataset."""

    def __init__(self, dataset):
        self.conn = load_oracle(dataset)
        self.checked = 0

    def sqlite_text(self, number, params):
        """The oracle's own rendering of the query's SQL form."""
        return to_sqlite(parse_sql(sql_text(number, params)))

    def check(self, request_key, value):
        number, params = request_key
        theirs = canonical_rows(self.conn.execute(
            self.sqlite_text(number, json.loads(params))).fetchall())
        ours = canonical_rows(value)
        self.checked += 1
        if not rows_equivalent(ours, theirs):
            raise AnswerMismatch(
                "Q%d %s disagrees with the sqlite oracle: ours (%d rows) "
                "%r, oracle (%d rows) %r"
                % (number, params, len(ours), ours[:3],
                   len(theirs), theirs[:3]))

    def close(self):
        self.conn.close()


class Answers:
    """Checksum registry: one verified checksum per (query, params).

    ``observe`` is called for every timed answer (thread-safe); the
    first answer of a pair is kept until :meth:`verify_pending` checks
    it against the oracle.  Later answers must match its checksum.
    """

    def __init__(self):
        self._lock = threading.Lock()
        #: key -> checksum of the first answer seen
        self.expected = {}
        #: key -> the first answer's value, awaiting the oracle
        self._pending = {}

    def expect(self, key):
        """The contract checksum for ``key`` (None when unseen)."""
        return self.expected.get(key)

    def observe(self, request, checksum, value):
        key = request.key
        with self._lock:
            expected = self.expect(key)
            if expected is None:
                self.expected[key] = checksum
                self._pending[key] = value
                return
        if checksum != expected:
            raise AnswerMismatch(
                "%r answered checksum %s, but this pair's first answer "
                "was %s" % (request, checksum, expected))

    def verify_pending(self, oracle):
        """Check every not-yet-verified pair against the oracle."""
        with self._lock:
            pending = sorted(self._pending.items())
            self._pending = {}
        for key, value in pending:
            oracle.check(key, value)
        return len(pending)

    def distinct(self):
        return len(self.expected)
