"""The TPC-D queries Q1-Q15 in MOA (paper Figure 9).

Each query is a :class:`TPCDQuery`: its Figure 9 comment, the MOA
text(s), and the phase plan (:mod:`repro.moa.plan`) it builds from
its parameters — the same plan object the Moa and SQL front-ends
produce.  Most queries are a single MOA expression; Q11, Q14 and Q15
are *two-phase* (a scalar aggregate feeds a literal into the main
query), matching how the paper's hand-translated scripts handled
SQL's scalar subqueries.

``item_selectivity`` reproduces Figure 9's "Item select%" column: the
fraction of the Item extent satisfying the query's Item-level
predicates (``n.a.`` for the two queries that never touch Item).
"""

import numpy as np

from ..moa import ast as moa_ast
from ..moa.parser import parse
from ..moa.plan import (Hole, LoweredQuery, MoaPhase, PhaseRef,
                        PreparedPlan, PyPhase, moa_plan, substitute)
from .dbgen import CURRENT_DATE  # noqa: F401  (re-exported for params)

_REVENUE = "*(extendedprice, -(1.0, discount))"


class TPCDQuery:
    """One TPC-D query: number, Figure 9 comment, MOA plan.

    ``plan_fn(params)`` builds the phase plan of a multi-phase query;
    a single-text query's plan is the one-phase plan of its text.
    """

    def __init__(self, number, comment, texts_fn, plan_fn=None,
                 selectivity_fn=None, defaults=None):
        self.number = number
        self.comment = comment
        self._texts_fn = texts_fn
        self._plan_fn = plan_fn
        self._selectivity_fn = selectivity_fn
        self.defaults = defaults or {}

    def params(self, overrides=None):
        params = dict(self.defaults)
        if overrides:
            params.update(overrides)
        return params

    def texts(self, overrides=None):
        """The MOA query text(s) (placeholders resolved)."""
        return self._texts_fn(self.params(overrides))

    def plan(self, overrides=None):
        """The query's :class:`~repro.moa.plan.LoweredQuery`."""
        params = self.params(overrides)
        if self._plan_fn is not None:
            return self._plan_fn(params)
        [text] = self._texts_fn(params)
        return moa_plan(text)

    def run(self, db, overrides=None):
        """Execute against a loaded MOADatabase; returns result rows."""
        return PreparedPlan(db, self.plan(overrides)).run()

    def item_selectivity(self, dataset, overrides=None):
        """Fraction of Item touched by the main selection, or None."""
        if self._selectivity_fn is None:
            return None
        return self._selectivity_fn(dataset, self.params(overrides))

    def __repr__(self):
        return "TPCDQuery(Q%d: %s)" % (self.number, self.comment)


def _threshold_phase(text, index):
    """The moa phase of ``text`` with its threshold literal (``0.0``
    in the text :meth:`TPCDQuery.texts` shows) replaced by a hole for
    phase ``index``'s value."""
    holes = []

    def replace(node):
        if isinstance(node, moa_ast.Literal) and node.value == 0.0 \
                and node.atom_name == "double":
            holes.append(Hole(index, "double"))
            return holes[-1]
        return None

    tree = substitute(parse(text), replace)
    assert len(holes) == 1, "threshold literal must be unique"
    return MoaPhase(tree)


def _scaled(index, factor):
    """py phase: phase ``index``'s value times ``factor``."""
    return PyPhase(moa_ast.BinOp("*", PhaseRef(index),
                                 moa_ast.Literal(factor, "double")))


# ----------------------------------------------------------------------
# Q1 — billing aggregates over the big table
# ----------------------------------------------------------------------
def _q1_text(params):
    return """
sort[returnflag asc, linestatus asc](
 project[<returnflag : returnflag, linestatus : linestatus,
   sum(project[quantity](%%group)) : sum_qty,
   sum(project[extendedprice](%%group)) : sum_base_price,
   sum(project[%(rev)s](%%group)) : sum_disc_price,
   sum(project[*(%(rev)s, +(1.0, tax))](%%group)) : sum_charge,
   avg(project[quantity](%%group)) : avg_qty,
   avg(project[extendedprice](%%group)) : avg_price,
   avg(project[discount](%%group)) : avg_disc,
   count(%%group) : count_order>](
  nest[returnflag, linestatus](
   select[<=(shipdate, date("%(date)s"))](Item))))
""" % {"rev": _REVENUE, "date": params["date"]}


def _q1_selectivity(dataset, params):
    from ..monet.atoms import date_to_days
    ship = dataset.tables["item"]["shipdate"]
    return float(np.mean(ship <= date_to_days(params["date"])))


# ----------------------------------------------------------------------
# Q2 — cheapest supplier for parts of a size/type in a region
# ----------------------------------------------------------------------
def _q2_text(params):
    base = ('select[=(%%1.nation.region.name, "%(region)s")]'
            "(unnest[supplies](Supplier))" % params)
    qualified = ('semijoin[%%2.part, %%0](%(base)s, '
                 'select[=(size, %(size)d), endswith(type, "%(type)s")]'
                 "(Part))" % {"base": base, "size": params["size"],
                              "type": params["type"],
                              "region": params["region"]})
    mins = ("project[<part : part, min(project[%%2.cost](%%group)) : "
            "mincost>](nest[%%2.part : part](%s))" % qualified)
    joined = ("join[<%%2.part, %%2.cost>, <part, mincost>](%s, %s)"
              % (qualified, mins))
    return """
top[100](sort[s_acctbal desc, n_name asc, p_name asc](
 project[<%%1.%%1.acctbal : s_acctbal, %%1.%%1.name : s_name,
          %%1.%%1.nation.name : n_name, %%1.%%2.part.name : p_name,
          %%1.%%2.part.manufacturer : p_mfgr,
          %%1.%%1.address : s_address, %%1.%%1.phone : s_phone,
          %%1.%%2.cost : cost>](%(joined)s)))
""" % {"joined": joined}


# ----------------------------------------------------------------------
# Q3 — top 10 valuable orders for a market segment
# ----------------------------------------------------------------------
def _q3_text(params):
    return """
top[10](sort[revenue desc, odate asc](
 project[<order : order, sum(project[%(rev)s](%%group)) : revenue,
          order.orderdate : odate, order.shippriority : ship>](
  nest[order](
   semijoin[order, %%0](
    select[>(shipdate, date("%(date)s"))](Item),
    select[=(cust.mktsegment, "%(segment)s"),
           <(orderdate, date("%(date)s"))](Order))))))
""" % {"rev": _REVENUE, "date": params["date"],
       "segment": params["segment"]}


def _q3_selectivity(dataset, params):
    from ..monet.atoms import date_to_days
    ship = dataset.tables["item"]["shipdate"]
    return float(np.mean(ship > date_to_days(params["date"])))


# ----------------------------------------------------------------------
# Q4 — priority assessment: orders with late items in a quarter
# ----------------------------------------------------------------------
def _q4_text(params):
    return """
sort[orderpriority asc](
 project[<orderpriority : orderpriority, count(%%group) : order_count>](
  nest[orderpriority](
   semijoin[%%0, order](
    select[>=(orderdate, date("%(d1)s")), <(orderdate, date("%(d2)s"))](Order),
    select[<(commitdate, receiptdate)](Item)))))
""" % params


def _q4_selectivity(dataset, params):
    item = dataset.tables["item"]
    return float(np.mean(item["commitdate"] < item["receiptdate"]))


# ----------------------------------------------------------------------
# Q5 — revenue per local supplier nation in a region/year
# ----------------------------------------------------------------------
def _q5_text(params):
    return """
sort[revenue desc](
 project[<nation : nation, sum(project[%(rev)s](%%group)) : revenue>](
  nest[supplier.nation.name : nation](
   select[>=(order.orderdate, date("%(d1)s")),
          <(order.orderdate, date("%(d2)s")),
          =(supplier.nation.region.name, "%(region)s"),
          =(supplier.nation, order.cust.nation)](Item))))
""" % {"rev": _REVENUE, "d1": params["d1"], "d2": params["d2"],
       "region": params["region"]}


def _q5_selectivity(dataset, params):
    from ..monet.atoms import date_to_days
    orders = dataset.tables["orders"]["orderdate"]
    odates = orders[dataset.tables["item"]["order"]]
    lo, hi = date_to_days(params["d1"]), date_to_days(params["d2"])
    return float(np.mean((odates >= lo) & (odates < hi)))


# ----------------------------------------------------------------------
# Q6 — benefits if discounts were abolished (scalar)
# ----------------------------------------------------------------------
def _q6_text(params):
    return """
sum(project[*(extendedprice, discount)](
 select[>=(shipdate, date("%(d1)s")), <(shipdate, date("%(d2)s")),
        >=(discount, %(disc_lo)s), <=(discount, %(disc_hi)s),
        <(quantity, %(qty)d)](Item)))
""" % params


def _q6_selectivity(dataset, params):
    from ..monet.atoms import date_to_days
    item = dataset.tables["item"]
    lo, hi = date_to_days(params["d1"]), date_to_days(params["d2"])
    mask = ((item["shipdate"] >= lo) & (item["shipdate"] < hi)
            & (item["discount"] >= float(params["disc_lo"]) - 1e-9)
            & (item["discount"] <= float(params["disc_hi"]) + 1e-9)
            & (item["quantity"] < params["qty"]))
    return float(np.mean(mask))


# ----------------------------------------------------------------------
# Q7 — value of shipped goods between two nations
# ----------------------------------------------------------------------
def _q7_text(params):
    return """
sort[supp_nation asc, cust_nation asc, lyear asc](
 project[<supp_nation : supp_nation, cust_nation : cust_nation,
          lyear : lyear, sum(project[volume](%%group)) : revenue>](
  nest[supp_nation, cust_nation, lyear](
   project[<supplier.nation.name : supp_nation,
            order.cust.nation.name : cust_nation,
            year(shipdate) : lyear, %(rev)s : volume>](
    select[>=(shipdate, date("%(d1)s")), <=(shipdate, date("%(d2)s")),
           or(and(=(supplier.nation.name, "%(n1)s"),
                  =(order.cust.nation.name, "%(n2)s")),
              and(=(supplier.nation.name, "%(n2)s"),
                  =(order.cust.nation.name, "%(n1)s")))](Item)))))
""" % {"rev": _REVENUE, "d1": params["d1"], "d2": params["d2"],
       "n1": params["nation1"], "n2": params["nation2"]}


def _q7_selectivity(dataset, params):
    from ..monet.atoms import date_to_days
    item = dataset.tables["item"]
    lo, hi = date_to_days(params["d1"]), date_to_days(params["d2"])
    return float(np.mean((item["shipdate"] >= lo)
                         & (item["shipdate"] <= hi)))


# ----------------------------------------------------------------------
# Q8 — market share change of a nation for a part type in a region
# ----------------------------------------------------------------------
def _q8_text(params):
    return """
sort[oyear asc](
 project[<oyear : oyear,
          /(sum(project[ifthenelse(=(snation, "%(nation)s"),
                                   volume, 0.0)](%%group)),
            sum(project[volume](%%group))) : mkt_share>](
  nest[oyear](
   project[<year(order.orderdate) : oyear, %(rev)s : volume,
            supplier.nation.name : snation>](
    select[=(part.type, "%(type)s"),
           =(order.cust.nation.region.name, "%(region)s"),
           >=(order.orderdate, date("%(d1)s")),
           <=(order.orderdate, date("%(d2)s"))](Item)))))
""" % {"rev": _REVENUE, "nation": params["nation"],
       "type": params["type"], "region": params["region"],
       "d1": params["d1"], "d2": params["d2"]}


def _q8_selectivity(dataset, params):
    types = dataset.tables["part"]["type"][dataset.tables["item"]["part"]]
    return float(np.mean(types == params["type"]))


# ----------------------------------------------------------------------
# Q9 — profit per nation and year for parts of a colour
# ----------------------------------------------------------------------
def _q9_text(params):
    return """
sort[nation asc, oyear desc](
 project[<nation : nation, oyear : oyear,
          sum(project[amount](%%group)) : profit>](
  nest[nation, oyear](
   project[<%%1.supplier.nation.name : nation,
            year(%%1.order.orderdate) : oyear,
            -(*(%%1.extendedprice, -(1.0, %%1.discount)),
              *(%%2.%%2.cost, %%1.quantity)) : amount>](
    join[<supplier, part>, <%%1, %%2.part>](
     select[contains(part.name, "%(colour)s")](Item),
     unnest[supplies](Supplier))))))
""" % {"colour": params["colour"]}


def _q9_selectivity(dataset, params):
    names = dataset.tables["part"]["name"][dataset.tables["item"]["part"]]
    colour = params["colour"]
    return float(np.mean([colour in n for n in names]))


# ----------------------------------------------------------------------
# Q10 — top 20 customers with problematic (returned) parts
# ----------------------------------------------------------------------
def _q10_text(params):
    return """
top[20](sort[revenue desc](
 project[<cust : cust, cust.name : c_name, cust.acctbal : c_acctbal,
          cust.nation.name : n_name,
          sum(project[%(rev)s](%%group)) : revenue>](
  nest[order.cust : cust](
   select[=(returnflag, 'R'), >=(order.orderdate, date("%(d1)s")),
          <(order.orderdate, date("%(d2)s"))](Item)))))
""" % {"rev": _REVENUE, "d1": params["d1"], "d2": params["d2"]}


def _q10_selectivity(dataset, params):
    from ..monet.atoms import date_to_days
    item = dataset.tables["item"]
    odates = dataset.tables["orders"]["orderdate"][item["order"]]
    lo, hi = date_to_days(params["d1"]), date_to_days(params["d2"])
    mask = ((item["returnflag"] == "R") & (odates >= lo) & (odates < hi))
    return float(np.mean(mask))


# ----------------------------------------------------------------------
# Q11 — significant stock per nation (two-phase: total then filter)
# ----------------------------------------------------------------------
def _q11_german_supplies(params):
    return ('select[=(%%1.nation.name, "%(nation)s")]'
            "(unnest[supplies](Supplier))" % params)


def _q11_total_text(params):
    return ("sum(project[*(%%2.cost, %%2.available)](%s))"
            % _q11_german_supplies(params))


def _q11_main_text(params):
    grouped = ("nest[part](project[<%%2.part : part, "
               "*(%%2.cost, %%2.available) : pvalue>](%s))"
               % _q11_german_supplies(params))
    return """
sort[stock desc](
 select[>(stock, 0.0)](
  project[<part : part, sum(project[pvalue](%%group)) : stock>](%(g)s)))
""" % {"g": grouped}


def _q11_texts(params):
    return [_q11_total_text(params), _q11_main_text(params)]


def _q11_plan(params):
    return LoweredQuery([
        MoaPhase(parse(_q11_total_text(params))),
        _scaled(0, float(params["fraction"])),
        _threshold_phase(_q11_main_text(params), 1)])


# ----------------------------------------------------------------------
# Q12 — cheap shipping modes affecting critical orders
# ----------------------------------------------------------------------
def _q12_text(params):
    urgent = ('or(=(order.orderpriority, "1-URGENT"), ' \
              '=(order.orderpriority, "2-HIGH"))')
    return """
sort[shipmode asc](
 project[<shipmode : shipmode, sum(project[high](%%group)) : high_count,
          sum(project[low](%%group)) : low_count>](
  nest[shipmode](
   project[<shipmode : shipmode,
            ifthenelse(%(urgent)s, 1, 0) : high,
            ifthenelse(%(urgent)s, 0, 1) : low>](
    select[or(=(shipmode, "%(m1)s"), =(shipmode, "%(m2)s")),
           <(commitdate, receiptdate), <(shipdate, commitdate),
           >=(receiptdate, date("%(d1)s")),
           <(receiptdate, date("%(d2)s"))](Item)))))
""" % {"urgent": urgent, "m1": params["mode1"], "m2": params["mode2"],
       "d1": params["d1"], "d2": params["d2"]}


def _q12_selectivity(dataset, params):
    from ..monet.atoms import date_to_days
    item = dataset.tables["item"]
    lo, hi = date_to_days(params["d1"]), date_to_days(params["d2"])
    mask = (((item["shipmode"] == params["mode1"])
             | (item["shipmode"] == params["mode2"]))
            & (item["commitdate"] < item["receiptdate"])
            & (item["shipdate"] < item["commitdate"])
            & (item["receiptdate"] >= lo) & (item["receiptdate"] < hi))
    return float(np.mean(mask))


# ----------------------------------------------------------------------
# Q13 — loss due to returned orders of a clerk (the paper's example)
# ----------------------------------------------------------------------
def _q13_text(params):
    return """
sort[year asc](
 project[<date : year, sum(project[revenue](%%2)) : loss>](
  nest[date](
   project[<year(order.orderdate) : date, %(rev)s : revenue>](
    select[=(order.clerk, "%(clerk)s"), =(returnflag, 'R')](Item)))))
""" % {"rev": _REVENUE, "clerk": params["clerk"]}


def _q13_selectivity(dataset, params):
    item = dataset.tables["item"]
    clerks = dataset.tables["orders"]["clerk"][item["order"]]
    mask = (clerks == params["clerk"]) & (item["returnflag"] == "R")
    return float(np.mean(mask))


# ----------------------------------------------------------------------
# Q14 — market change after a campaign date (promo revenue share)
# ----------------------------------------------------------------------
def _q14_items(params):
    return ('select[>=(shipdate, date("%(d1)s")), '
            '<(shipdate, date("%(d2)s"))](Item)' % params)


def _q14_promo_text(params):
    return ("sum(project[ifthenelse(startswith(part.type, \"PROMO\"), "
            "%s, 0.0)](%s))" % (_REVENUE, _q14_items(params)))


def _q14_total_text(params):
    return "sum(project[%s](%s))" % (_REVENUE, _q14_items(params))


def _q14_texts(params):
    return [_q14_promo_text(params), _q14_total_text(params)]


def _q14_plan(params):
    # 100 * promo / total, with x / 0 -> 0.0 (see eval_py)
    a = moa_ast
    share = a.BinOp("/", a.BinOp("*", a.Literal(100.0, "double"),
                                 PhaseRef(0)), PhaseRef(1))
    return LoweredQuery([MoaPhase(parse(_q14_promo_text(params))),
                         MoaPhase(parse(_q14_total_text(params))),
                         PyPhase(share)])


def _q14_selectivity(dataset, params):
    from ..monet.atoms import date_to_days
    item = dataset.tables["item"]
    lo, hi = date_to_days(params["d1"]), date_to_days(params["d2"])
    return float(np.mean((item["shipdate"] >= lo)
                         & (item["shipdate"] < hi)))


# ----------------------------------------------------------------------
# Q15 — identify the top supplier (two-phase: max revenue, then match)
# ----------------------------------------------------------------------
def _q15_revenue_set(params):
    return ("project[<supplier : supplier, "
            "sum(project[%(rev)s](%%group)) : total_revenue>]("
            "nest[supplier](select[>=(shipdate, date(\"%(d1)s\")), "
            "<(shipdate, date(\"%(d2)s\"))](Item)))"
            % {"rev": _REVENUE, "d1": params["d1"], "d2": params["d2"]})


def _q15_max_text(params):
    return "max(project[total_revenue](%s))" % _q15_revenue_set(params)


def _q15_main_text(params):
    return """
sort[s_name asc](
 project[<supplier.name : s_name, supplier.address : s_address,
          supplier.phone : s_phone, total_revenue : total_revenue>](
  select[>=(total_revenue, 0.0)](%(revs)s)))
""" % {"revs": _q15_revenue_set(params)}


def _q15_texts(params):
    return [_q15_max_text(params), _q15_main_text(params)]


def _q15_plan(params):
    # revenue >= max * (1 - 1e-9); no shipped items -> a NULL max,
    # which empties the main phase's select
    return LoweredQuery([
        MoaPhase(parse(_q15_max_text(params))),
        _scaled(0, 1 - 1e-9),
        _threshold_phase(_q15_main_text(params), 1)])


def _q15_selectivity(dataset, params):
    from ..monet.atoms import date_to_days
    item = dataset.tables["item"]
    lo, hi = date_to_days(params["d1"]), date_to_days(params["d2"])
    return float(np.mean((item["shipdate"] >= lo)
                         & (item["shipdate"] < hi)))


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def _q(number, comment, builder, selectivity, defaults):
    return TPCDQuery(number, comment, lambda params: [builder(params)],
                     None, selectivity, defaults)


QUERIES = {
    1: _q(1, "billing aggregates over the big table", _q1_text,
          _q1_selectivity, {"date": "1998-09-02"}),
    2: _q(2, "cheapest part supplier for a region", _q2_text, None,
          {"size": 15, "type": "BRASS", "region": "EUROPE"}),
    3: _q(3, "find top-10 valuable orders", _q3_text, _q3_selectivity,
          {"segment": "BUILDING", "date": "1995-03-15"}),
    4: _q(4, "priority assessment, customer satisfaction", _q4_text,
          _q4_selectivity, {"d1": "1993-07-01", "d2": "1993-10-01"}),
    5: _q(5, "revenue per local supplier", _q5_text, _q5_selectivity,
          {"region": "ASIA", "d1": "1994-01-01", "d2": "1995-01-01"}),
    6: _q(6, "benefits if discounts abolished", _q6_text,
          _q6_selectivity, {"d1": "1994-01-01", "d2": "1995-01-01",
                            "disc_lo": "0.05", "disc_hi": "0.07",
                            "qty": 24}),
    7: _q(7, "value of shipped goods between 2 nations", _q7_text,
          _q7_selectivity, {"nation1": "FRANCE", "nation2": "GERMANY",
                            "d1": "1995-01-01", "d2": "1996-12-31"}),
    8: _q(8, "part market share change for a region", _q8_text,
          _q8_selectivity, {"nation": "BRAZIL", "region": "AMERICA",
                            "type": "ECONOMY ANODIZED STEEL",
                            "d1": "1995-01-01", "d2": "1996-12-31"}),
    9: _q(9, "line of parts profit for year and nation", _q9_text,
          _q9_selectivity, {"colour": "green"}),
    10: _q(10, "top-20 customers with problematic parts", _q10_text,
           _q10_selectivity, {"d1": "1993-10-01", "d2": "1994-01-01"}),
    11: TPCDQuery(11, "significant stock per nation", _q11_texts,
                  _q11_plan, None,
                  {"nation": "GERMANY", "fraction": 0.0001}),
    12: _q(12, "cheap shipping affecting critical orders", _q12_text,
           _q12_selectivity, {"mode1": "MAIL", "mode2": "SHIP",
                              "d1": "1994-01-01", "d2": "1995-01-01"}),
    13: _q(13, "loss due to returned orders of a clerk", _q13_text,
           _q13_selectivity, {"clerk": "Clerk#000000001"}),
    14: TPCDQuery(14, "market change after a campaign date", _q14_texts,
                  _q14_plan, _q14_selectivity,
                  {"d1": "1995-09-01", "d2": "1995-10-01"}),
    15: TPCDQuery(15, "identify the top supplier", _q15_texts, _q15_plan,
                  _q15_selectivity,
                  {"d1": "1996-01-01", "d2": "1996-04-01"}),
}
