"""Benchmark inputs: the catalog set-up and the seeded request streams.

Everything the system under test sees is derived from the workload
seed: ``tpcd.generate(scale, seed)`` builds the data, and a
``random.Random`` seeded from the same number draws the TPC-D
substitution parameters.  Draws that need the data (a clerk or a
supplier nation that exists) read the generated tables, so no request
can fail for want of input.
"""

import datetime
import json
import os
import random
import shutil
import tempfile
import time

import numpy as np

from repro.monet.atoms import date_to_days
from repro.sql.suite import sql_text
from repro.tpcd import QUERIES, generate, load_tpcd, open_tpcd, save_tpcd
from repro.tpcd import text as pools

NUMBERS = tuple(sorted(QUERIES))
#: queries whose driver runs one Moa text (the rest are two-phase)
SINGLE_TEXT = tuple(n for n in NUMBERS if len(QUERIES[n].texts()) == 1)
FORMS = ("moa", "sql", "tpcd")


class Request:
    """One request: a query number, a front-end form and its params."""

    __slots__ = ("number", "form", "params", "key", "text")

    def __init__(self, number, form, params):
        self.number = number
        self.form = form
        self.params = params
        #: identity of the answer, shared by every form of one query
        self.key = (number, json.dumps(params, sort_keys=True))
        if form == "moa":
            self.text = QUERIES[number].texts(params)[0]
        elif form == "sql":
            self.text = sql_text(number, params)
        else:
            self.text = None

    def __repr__(self):
        return "Q%d/%s%s" % (self.number, self.form, self.key[1])


# ----------------------------------------------------------------------
# substitution parameters (TPC-D section 2 ranges)
# ----------------------------------------------------------------------
def _month(year, month, plus=0):
    month += plus
    year += (month - 1) // 12
    month = (month - 1) % 12 + 1
    return "%04d-%02d-01" % (year, month)


def _first_of_month(rng, first, last):
    """A random first-of-month between (year, month) bounds."""
    start = first[0] * 12 + first[1] - 1
    stop = last[0] * 12 + last[1] - 1
    index = rng.randint(start, stop)
    return index // 12, index % 12 + 1


class ParamSource:
    """Draws valid substitution parameters for a generated dataset."""

    def __init__(self, dataset):
        tables = dataset.tables
        self.scale = dataset.scale
        self.clerks = sorted(set(tables["orders"]["clerk"].tolist()))
        nations = [name for name, _region in pools.NATIONS]
        self.supplier_nations = sorted(
            {nations[int(i)] for i in tables["supplier"]["nation"]})
        self.shipdates = np.sort(tables["item"]["shipdate"])

    def _items_shipped(self, d1, d2):
        lo, hi = date_to_days(d1), date_to_days(d2)
        return int(np.searchsorted(self.shipdates, hi)
                   - np.searchsorted(self.shipdates, lo))

    def draw(self, rng, number):
        return getattr(self, "_q%d" % number)(rng)

    def _q1(self, rng):
        day = date_to_days("1998-12-01") - rng.randint(60, 120)
        return {"date": _iso(day)}

    def _q2(self, rng):
        return {"size": rng.randint(1, 50),
                "type": rng.choice(pools.TYPE_SYLLABLE_3),
                "region": rng.choice(pools.REGIONS)}

    def _q3(self, rng):
        return {"segment": rng.choice(pools.MARKET_SEGMENTS),
                "date": "1995-03-%02d" % rng.randint(1, 31)}

    def _q4(self, rng):
        year, month = _first_of_month(rng, (1993, 1), (1997, 10))
        return {"d1": _month(year, month), "d2": _month(year, month, 3)}

    def _q5(self, rng):
        year = rng.randint(1993, 1997)
        return {"region": rng.choice(pools.REGIONS),
                "d1": "%d-01-01" % year, "d2": "%d-01-01" % (year + 1)}

    def _q6(self, rng):
        year = rng.randint(1993, 1997)
        discount = rng.randint(2, 9)
        return {"d1": "%d-01-01" % year, "d2": "%d-01-01" % (year + 1),
                "disc_lo": "0.%02d" % (discount - 1),
                "disc_hi": "0.%02d" % (discount + 1),
                "qty": rng.randint(24, 25)}

    def _q7(self, rng):
        first, second = rng.sample([n for n, _r in pools.NATIONS], 2)
        return {"nation1": first, "nation2": second,
                "d1": "1995-01-01", "d2": "1996-12-31"}

    def _q8(self, rng):
        nation, region = rng.choice(pools.NATIONS)
        kind = " ".join(rng.choice(words) for words in (
            pools.TYPE_SYLLABLE_1, pools.TYPE_SYLLABLE_2,
            pools.TYPE_SYLLABLE_3))
        return {"nation": nation, "region": pools.REGIONS[region],
                "type": kind, "d1": "1995-01-01", "d2": "1996-12-31"}

    def _q9(self, rng):
        return {"colour": rng.choice(pools.PART_COLOURS)}

    def _q10(self, rng):
        year, month = _first_of_month(rng, (1993, 2), (1995, 1))
        return {"d1": _month(year, month), "d2": _month(year, month, 3)}

    def _q11(self, rng):
        # the scalar phase needs a nation that has suppliers
        return {"nation": rng.choice(self.supplier_nations),
                "fraction": 0.0001 / self.scale}

    def _q12(self, rng):
        first, second = rng.sample(pools.SHIP_MODES, 2)
        year = rng.randint(1993, 1997)
        return {"mode1": first, "mode2": second,
                "d1": "%d-01-01" % year, "d2": "%d-01-01" % (year + 1)}

    def _q13(self, rng):
        return {"clerk": rng.choice(self.clerks)}

    def _q14(self, rng):
        while True:
            year, month = _first_of_month(rng, (1993, 1), (1997, 12))
            params = {"d1": _month(year, month),
                      "d2": _month(year, month, 1)}
            if self._items_shipped(params["d1"], params["d2"]):
                return params

    def _q15(self, rng):
        # the max phase needs at least one shipped item in the window
        while True:
            year, month = _first_of_month(rng, (1993, 1), (1997, 10))
            params = {"d1": _month(year, month),
                      "d2": _month(year, month, 3)}
            if self._items_shipped(params["d1"], params["d2"]):
                return params


def _iso(days):
    return (datetime.date(1970, 1, 1)
            + datetime.timedelta(days=int(days))).isoformat()


def stream_rng(seed, name):
    """An independent, reproducible RNG per (seed, stream name)."""
    return random.Random("%d/%s" % (seed, name))


def draw_once(source, seed):
    """{number: params}, drawn once per run (power, throughput)."""
    rng = stream_rng(seed, "params")
    return {n: source.draw(rng, n) for n in NUMBERS}


def power_pass(params):
    return [Request(n, "tpcd", params[n]) for n in NUMBERS]


def throughput_mix(params):
    """Every query as Moa text (12), SQL text (15) and number (15)."""
    mix = [Request(n, "moa", params[n]) for n in SINGLE_TEXT]
    mix += [Request(n, "sql", params[n]) for n in NUMBERS]
    mix += [Request(n, "tpcd", params[n]) for n in NUMBERS]
    return mix


def client_stream(mix, seed, client):
    """Client ``client``'s endless closed-loop sequence over ``mix``:
    each round is a fresh seeded shuffle of the mix."""
    rng = stream_rng(seed, "mix/%d" % client)
    while True:
        order = list(mix)
        rng.shuffle(order)
        yield from order


def adhoc_stream(source, seed, client):
    """Client ``client``'s endless SQL stream, fresh params each.

    Each round is a fresh seeded shuffle of Q1-Q15, so every query has
    the same share of a run and the tail does not move with how often
    the slowest query happened to be drawn."""
    rng = stream_rng(seed, "adhoc/%d" % client)
    while True:
        order = list(NUMBERS)
        rng.shuffle(order)
        for number in order:
            yield Request(number, "sql", source.draw(rng, number))


# ----------------------------------------------------------------------
# catalog set-up
# ----------------------------------------------------------------------
SETUP_PHASES = ("generate_s", "load_s", "save_s", "open_s")
SETUP_MIN_REPS = 3
SETUP_MIN_S = 4.0


class Catalog:
    """A generated, loaded, saved and reopened TPC-D catalog."""

    def __init__(self, dataset, db, db_dir, phases):
        self.dataset = dataset
        self.db = db
        self.db_dir = db_dir
        #: seconds per set-up phase (SETUP_PHASES)
        self.phases = phases


def build_catalog(scale, seed, work_dir):
    """generate -> load -> save -> open, each phase timed."""
    phases = {}
    started = time.perf_counter()
    dataset = generate(scale=scale, seed=seed)
    phases["generate_s"] = time.perf_counter() - started
    started = time.perf_counter()
    db, _report = load_tpcd(dataset)
    phases["load_s"] = time.perf_counter() - started
    db_dir = tempfile.mkdtemp(prefix="catalog-", dir=work_dir)
    started = time.perf_counter()
    save_tpcd(db, db_dir, dataset)
    phases["save_s"] = time.perf_counter() - started
    # the logical object store only feeds the loader; dropping it keeps
    # the harness's heap, and every forked worker's copy of it, small
    dataset.data = None
    started = time.perf_counter()
    opened, _report = open_tpcd(db_dir)
    phases["open_s"] = time.perf_counter() - started
    return Catalog(dataset, opened, db_dir, phases)


def repeated_setup(scale, seed, work_dir, warm_pool=None):
    """Set up at least :data:`SETUP_MIN_REPS` times and for at least
    :data:`SETUP_MIN_S` seconds, so that a cheap set-up is repeated
    more; returns (last catalog, its pool or None, setup seconds per
    rep, {phase: [seconds per rep]}).

    ``warm_pool(catalog)`` starts and warms a served pool, returning
    ``(pool, seconds)``; every pool but the last is closed again.
    """
    totals, phases = [], {name: [] for name in SETUP_PHASES}
    phases["pool_warm_s"] = []
    catalog = pool = None
    while len(totals) < SETUP_MIN_REPS or sum(totals) < SETUP_MIN_S:
        if pool is not None:
            pool.close()
            pool = None
        if catalog is not None:
            shutil.rmtree(catalog.db_dir, ignore_errors=True)
        catalog = build_catalog(scale, seed, work_dir)
        total = sum(catalog.phases.values())
        for name in SETUP_PHASES:
            phases[name].append(catalog.phases[name])
        if warm_pool is not None:
            pool, warm_s = warm_pool(catalog)
            phases["pool_warm_s"].append(warm_s)
            total += warm_s
        totals.append(total)
    return catalog, pool, totals, phases


def work_root(base):
    """The benchmark's scratch directory inside the checkout."""
    path = os.path.join(base, ".tpcdbench", "tmp")
    os.makedirs(path, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=path)
