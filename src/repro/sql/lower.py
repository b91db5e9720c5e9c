"""Lowering: SQL AST -> MOA trees (phases) -> the existing pipeline.

The strategy mirrors how the hand-written Moa formulations in
:mod:`repro.tpcd.queries` express the TPC-D queries, so the emitted
plans produce bit-identical results to the Moa path (the bench gate
asserts checksum equality):

* Each FROM item starts as a *frame* (a MOA set expression + an
  anchor path per alias).  Foreign-key equi-conjuncts against a pure
  class extent dissolve that extent into the referencing frame —
  ``l_orderkey = o_orderkey`` becomes pointer navigation
  (``order.…``), the paper's whole point — iterated to fixpoint.
* Remaining single-frame predicates become one ``select[p1, …, pk]``
  per frame; cross-frame equi-conjuncts become real ``join``s (Q9);
  ``IN (select …)`` / ``EXISTS`` become semijoins (antijoins when
  negated), exactly the Moa Q3/Q4 shape.
* Uncorrelated scalar subqueries become earlier *phases* whose value
  is substituted as a typed literal (a
  :class:`~repro.moa.plan.Hole`) — the Q11/Q14/Q15 two-phase
  pattern.  Correlated aggregate subqueries on equality decorrelate
  into a group-by + join, the Moa Q2
  ``join[<%2.part, %2.cost>, <part, mincost>]`` shape.
* GROUP BY lowers to ``nest`` + a projection whose aggregate items
  run over the nested group (``sum(project[…](%group))``); HAVING
  becomes a select over the projected aggregates (Q11), falling back
  to a pre-projection select over the nest when it references an
  unprojected aggregate.

``_LOWERS`` at the bottom declares, node class by node class, which
handler owns each SQL AST node — asserted total against
``ast.NODE_CLASSES`` at import time (like ``mil._OPS``) and statically
by the analysis selfcheck.
"""

from ..errors import SqlUnsupportedError
from ..moa import ast as moa
from . import ast
from .binder import (Scope, check_comparable, derived_table, kind_of,
                     output_name)
from .catalog import TABLES
from ..moa.plan import Hole, LoweredQuery, MoaPhase, PhaseRef, PyPhase

_AGGS = ("sum", "count", "avg", "min", "max")

_OP_MAP = {"=": "=", "<>": "!=", "<": "<", "<=": "<=", ">": ">",
           ">=": ">=", "+": "+", "-": "-", "*": "*", "/": "/",
           "and": "and", "or": "or"}


def _flatten_and(expr, out):
    if isinstance(expr, ast.BinExpr) and expr.op == "and":
        _flatten_and(expr.left, out)
        _flatten_and(expr.right, out)
    else:
        out.append(expr)
    return out


def _path_expr(path):
    """Element-rooted navigation for an anchor+column path."""
    node = moa.Element()
    for step in path:
        node = moa.Pos(node, step) if isinstance(step, int) \
            else moa.Attr(node, step)
    return node


def _has_agg(expr):
    """Does the expression contain an aggregate call (not descending
    into subqueries, whose aggregates are their own)?"""
    if isinstance(expr, ast.FuncCall) and expr.name in _AGGS:
        return True
    if isinstance(expr, (ast.InSelect, ast.Exists, ast.ScalarSelect)):
        return False
    return any(_has_agg(c) for c in expr.children()
               if not isinstance(c, ast.SelectStmt))


class _Frame:
    """One connected piece of the FROM clause during lowering."""

    __slots__ = ("set", "anchors", "pure_class", "order", "pending")

    def __init__(self, set_expr, anchors, pure_class, order):
        self.set = set_expr
        self.anchors = dict(anchors)    # alias -> path prefix
        self.pure_class = pure_class    # class name while still Extent
        self.order = order              # min FROM position
        self.pending = []               # single-frame SQL predicates

    def prefix(self, step):
        """Re-anchor every alias after this frame became one side of a
        pair-producing operator (join)."""
        self.anchors = {alias: (step,) + path
                        for alias, path in self.anchors.items()}


class _Inspection:
    __slots__ = ("aliases", "has_outer", "has_subquery")

    def __init__(self):
        self.aliases = set()
        self.has_outer = False
        self.has_subquery = False


class _Lowering:
    """Lowers one SELECT statement (top level, derived table, or
    subquery) against a shared phase list."""

    def __init__(self, stmt, phases, parent=None):
        self.stmt = stmt
        self.phases = phases
        self.parent = parent            # enclosing _Lowering or None
        parent_scope = parent.scope if parent is not None else None
        self.scope = Scope(parent_scope)
        for item in stmt.from_items:
            if isinstance(item, ast.TableRef):
                self.scope.add_table_ref(item)
            else:
                self.scope.add(item.alias,
                               derived_table(item.select, self.scope))
        self.frames = []
        self.corr = []                  # (outer_sql_expr, inner_sql_expr)
        self.sub_preds = []
        self.join_edges = []
        self.leftover = []

    # ==================================================================
    # frames and conjunct classification
    # ==================================================================
    def _make_frames(self):
        for order, item in enumerate(self.stmt.from_items):
            if isinstance(item, ast.TableRef):
                table = TABLES[item.name]
                self.frames.append(_Frame(
                    table.base_set(), {item.alias: ()},
                    table.extent_class if table.is_pure_extent else None,
                    order))
            else:
                inner = _Lowering(item.select, self.phases, parent=None)
                self.frames.append(_Frame(
                    inner.lower_set(), {item.alias: ()}, None, order))

    def _frame_of_alias(self, alias):
        for frame in self.frames:
            if alias in frame.anchors:
                return frame
        raise SqlUnsupportedError("unknown table alias %r" % alias)

    def _inspect(self, expr, out=None):
        out = out if out is not None else _Inspection()
        if isinstance(expr, ast.ColumnRef):
            binding = self.scope.resolve(expr)
            if binding.outer:
                out.has_outer = True
            else:
                out.aliases.add(binding.alias)
            return out
        if isinstance(expr, (ast.InSelect, ast.Exists,
                             ast.ScalarSelect)):
            out.has_subquery = True
            if isinstance(expr, ast.InSelect):
                self._inspect(expr.expr, out)
            return out
        for child in expr.children():
            if not isinstance(child, ast.SelectStmt):
                self._inspect(child, out)
        return out

    def _frames_of(self, expr):
        info = self._inspect(expr)
        return {id(self._frame_of_alias(a)): self._frame_of_alias(a)
                for a in info.aliases}

    def build_frame(self):
        """The whole FROM/WHERE pipeline; returns the single merged
        frame (select/semijoin/join applied, nothing projected)."""
        self._make_frames()
        conjuncts = []
        if self.stmt.where is not None:
            _flatten_and(self.stmt.where, conjuncts)
        conjuncts = self._dissolve_foreign_keys(conjuncts)
        self._classify(conjuncts)
        self._apply_selects()
        self._apply_joins()
        self._apply_leftover()
        self._apply_sub_preds()
        if len(self.frames) > 1:
            raise SqlUnsupportedError(
                "cross join between %s (no join condition connects "
                "them)" % " and ".join(
                    sorted(a for f in self.frames for a in f.anchors)))
        return self.frames[0]

    # -- foreign-key dissolution ---------------------------------------
    def _dissolve_foreign_keys(self, conjuncts):
        remaining = list(conjuncts)
        changed = True
        while changed:
            changed = False
            for conjunct in list(remaining):
                if not (isinstance(conjunct, ast.BinExpr)
                        and conjunct.op == "="
                        and isinstance(conjunct.left, ast.ColumnRef)
                        and isinstance(conjunct.right, ast.ColumnRef)):
                    continue
                left = self.scope.resolve(conjunct.left)
                right = self.scope.resolve(conjunct.right)
                if left.outer or right.outer:
                    continue
                if self._try_dissolve(left, right) \
                        or self._try_dissolve(right, left):
                    remaining.remove(conjunct)
                    changed = True
        return remaining

    def _try_dissolve(self, fk, pk):
        """Dissolve pk's frame into fk's frame when pk IS the root key
        of a still-pure extent of the class fk references."""
        if not (fk.column.is_ref and pk.column.is_ref
                and fk.column.ref_class == pk.column.ref_class
                and pk.column.path == ()):
            return False
        pk_frame = self._frame_of_alias(pk.alias)
        fk_frame = self._frame_of_alias(fk.alias)
        if pk_frame is fk_frame:
            return False                # same frame: a plain predicate
        if pk_frame.pure_class != pk.column.ref_class:
            return False
        prefix = fk_frame.anchors[fk.alias] + fk.column.path
        for alias, path in pk_frame.anchors.items():
            fk_frame.anchors[alias] = prefix + path
        fk_frame.order = min(fk_frame.order, pk_frame.order)
        self.frames.remove(pk_frame)
        return True

    # -- classification ------------------------------------------------
    def _classify(self, conjuncts):
        for conjunct in conjuncts:
            info = self._inspect(conjunct)
            if info.has_outer:
                self._classify_correlation(conjunct)
                continue
            if info.has_subquery:
                self.sub_preds.append(conjunct)
                continue
            frames = {id(self._frame_of_alias(a)) for a in info.aliases}
            if len(frames) <= 1:
                frame = (self._frame_of_alias(next(iter(info.aliases)))
                         if info.aliases else self.frames[0])
                frame.pending.append(conjunct)
                continue
            if isinstance(conjunct, ast.BinExpr) and conjunct.op == "=":
                sides = [self._frames_of(conjunct.left),
                         self._frames_of(conjunct.right)]
                if all(len(s) == 1 for s in sides):
                    self.join_edges.append(conjunct)
                    continue
            self.leftover.append(conjunct)

    def _classify_correlation(self, conjunct):
        if self.parent is None:
            raise SqlUnsupportedError(
                "outer column reference outside a subquery: %s"
                % conjunct.render())
        if not (isinstance(conjunct, ast.BinExpr)
                and conjunct.op == "="):
            raise SqlUnsupportedError(
                "unsupported correlation shape %s (only equality "
                "conjuncts)" % conjunct.render())
        left_info = self._inspect(conjunct.left)
        right_info = self._inspect(conjunct.right)
        if left_info.has_outer and not left_info.aliases \
                and not right_info.has_outer:
            self.corr.append((conjunct.left, conjunct.right))
        elif right_info.has_outer and not right_info.aliases \
                and not left_info.has_outer:
            self.corr.append((conjunct.right, conjunct.left))
        else:
            raise SqlUnsupportedError(
                "unsupported correlation shape %s (each side must be "
                "wholly inner or wholly outer)" % conjunct.render())

    # -- per-frame selects, joins, leftovers ---------------------------
    def _apply_selects(self):
        for frame in self.frames:
            if not frame.pending:
                continue
            predicates = [self.lower_expr(p, frame)
                          for p in frame.pending]
            frame.set = moa.Select(frame.set, predicates)
            frame.pure_class = None
            frame.pending = []

    def _apply_joins(self):
        while self.join_edges:
            first = self.join_edges[0]
            frame_a = self._edge_frame(first.left)
            frame_b = self._edge_frame(first.right)
            left, right = (frame_a, frame_b) \
                if frame_a.order <= frame_b.order else (frame_b, frame_a)
            edges, rest = [], []
            for edge in self.join_edges:
                pair = {id(self._edge_frame(edge.left)),
                        id(self._edge_frame(edge.right))}
                (edges if pair == {id(left), id(right)}
                 else rest).append(edge)
            self.join_edges = rest
            left_keys, right_keys = [], []
            for edge in edges:
                l_expr, r_expr = edge.left, edge.right
                if self._edge_frame(l_expr) is not left:
                    l_expr, r_expr = r_expr, l_expr
                left_keys.append(self.lower_expr(l_expr, left))
                right_keys.append(self.lower_expr(r_expr, right))
            lkey = left_keys[0] if len(left_keys) == 1 \
                else moa.TupleCons([(k, None) for k in left_keys])
            rkey = right_keys[0] if len(right_keys) == 1 \
                else moa.TupleCons([(k, None) for k in right_keys])
            merged = _Frame(moa.Join(left.set, right.set, lkey, rkey),
                            {}, None, min(left.order, right.order))
            left.prefix(1)
            right.prefix(2)
            merged.anchors.update(left.anchors)
            merged.anchors.update(right.anchors)
            self.frames = [f for f in self.frames
                           if f is not left and f is not right]
            self.frames.append(merged)

    def _edge_frame(self, expr):
        frames = self._frames_of(expr)
        if len(frames) != 1:
            raise SqlUnsupportedError(
                "join condition side %s does not belong to one table"
                % expr.render())
        return next(iter(frames.values()))

    def _apply_leftover(self):
        for conjunct in self.leftover:
            frames = self._frames_of(conjunct)
            if len(frames) != 1:
                raise SqlUnsupportedError(
                    "predicate %s spans tables that are not joined"
                    % conjunct.render())
            frame = next(iter(frames.values()))
            frame.set = moa.Select(
                frame.set, [self.lower_expr(conjunct, frame)])
            frame.pure_class = None
        self.leftover = []

    # ==================================================================
    # subquery predicates
    # ==================================================================
    def _apply_sub_preds(self):
        for conjunct in self.sub_preds:
            self._apply_sub_pred(conjunct)
        self.sub_preds = []

    def _apply_sub_pred(self, conjunct):
        if isinstance(conjunct, ast.InSelect):
            return self._apply_membership(conjunct)
        if isinstance(conjunct, ast.Exists):
            return self._apply_membership(conjunct)
        if isinstance(conjunct, ast.UnExpr) and conjunct.op == "not" \
                and isinstance(conjunct.operand,
                               (ast.InSelect, ast.Exists)):
            flipped = conjunct.operand
            negated = type(flipped)(*_flip_args(flipped))
            return self._apply_membership(negated)
        if isinstance(conjunct, ast.BinExpr) \
                and conjunct.op in ("=", "<>", "<", "<=", ">", ">="):
            lhs, rhs, op = conjunct.left, conjunct.right, conjunct.op
            if isinstance(lhs, ast.ScalarSelect):
                lhs, rhs = rhs, lhs
                op = _MIRROR[op]
            if isinstance(rhs, ast.ScalarSelect) \
                    and not isinstance(lhs, ast.ScalarSelect):
                return self._apply_scalar_subquery(op, lhs, rhs)
        raise SqlUnsupportedError(
            "unsupported subquery predicate %s" % conjunct.render())

    def _apply_membership(self, pred):
        """``x [NOT] IN (select …)`` / ``[NOT] EXISTS`` -> (anti)semijoin."""
        select = pred.select
        inner = _Lowering(select, self.phases, parent=self)
        inner_frame = inner.build_frame()
        left_keys, right_keys, frame = [], [], None
        if isinstance(pred, ast.InSelect):
            frames = self._frames_of(pred.expr)
            if len(frames) != 1:
                raise SqlUnsupportedError(
                    "IN subject %s must belong to one table"
                    % pred.expr.render())
            frame = next(iter(frames.values()))
            if len(select.items) != 1 \
                    or isinstance(select.items[0], ast.Star):
                raise SqlUnsupportedError(
                    "IN subquery must produce exactly one column")
            left_keys.append(self.lower_expr(pred.expr, frame))
            right_keys.append(inner.lower_expr(
                select.items[0].expr, inner_frame))
        for outer_expr, inner_expr in inner.corr:
            outer_frames = self._frames_of(outer_expr)
            if frame is None and len(outer_frames) == 1:
                frame = next(iter(outer_frames.values()))
            if len(outer_frames) != 1 \
                    or next(iter(outer_frames.values())) is not frame:
                raise SqlUnsupportedError(
                    "correlated subquery references several tables")
            left_keys.append(self.lower_expr(outer_expr, frame))
            right_keys.append(inner.lower_expr(inner_expr, inner_frame))
        if frame is None or not left_keys:
            raise SqlUnsupportedError(
                "EXISTS subquery without correlation")
        lkey = left_keys[0] if len(left_keys) == 1 \
            else moa.TupleCons([(k, None) for k in left_keys])
        rkey = right_keys[0] if len(right_keys) == 1 \
            else moa.TupleCons([(k, None) for k in right_keys])
        frame.set = moa.Semijoin(frame.set, inner_frame.set, lkey, rkey,
                                 anti=pred.negated)
        frame.pure_class = None

    def _apply_scalar_subquery(self, op, lhs, sub):
        """``lhs op (select agg …)``: uncorrelated -> earlier phase +
        Hole literal; correlated on equality -> decorrelating group-by
        + join (the Moa Q2 shape)."""
        inner = _Lowering(sub.select, self.phases, parent=self)
        if len(sub.select.items) != 1 \
                or isinstance(sub.select.items[0], ast.Star):
            raise SqlUnsupportedError(
                "scalar subquery must produce exactly one column")
        if sub.select.group_by or sub.select.order_by \
                or sub.select.limit is not None:
            raise SqlUnsupportedError(
                "scalar subquery must be a plain aggregate query")
        item_expr = sub.select.items[0].expr
        if not _has_agg(item_expr):
            raise SqlUnsupportedError(
                "scalar subquery must aggregate (a single row cannot "
                "be guaranteed otherwise)")
        inner_frame = inner.build_frame()
        if not inner.corr:
            index = inner.scalar_phases(item_expr, inner_frame)
            atom = _atom_for(kind_of(item_expr, inner.scope))
            frames = self._frames_of(lhs)
            if len(frames) != 1:
                raise SqlUnsupportedError(
                    "subquery comparison subject %s must belong to "
                    "one table" % lhs.render())
            frame = next(iter(frames.values()))
            lowered = self.lower_expr(lhs, frame)
            frame.set = moa.Select(
                frame.set,
                [moa.BinOp(_OP_MAP[op], lowered, Hole(index, atom))])
            frame.pure_class = None
            return
        self._decorrelate(op, lhs, item_expr, inner, inner_frame)

    def _decorrelate(self, op, lhs, item_expr, inner, inner_frame):
        frames = self._frames_of(lhs)
        for outer_expr, _ in inner.corr:
            frames.update(self._frames_of(outer_expr))
        if len(frames) != 1:
            raise SqlUnsupportedError(
                "correlated subquery comparison spans several tables")
        frame = next(iter(frames.values()))
        keys = []
        for i, (_, inner_expr) in enumerate(inner.corr):
            keys.append((inner.lower_expr(inner_expr, inner_frame),
                         "_k%d" % (i + 1)))
        nest = moa.Nest(inner_frame.set, keys)
        nkeys = len(keys)
        value = inner.grouped_value(item_expr, inner_frame, nkeys)
        items = [(moa.Pos(moa.Element(), i + 1), "_k%d" % (i + 1))
                 for i in range(nkeys)]
        items.append((value, "_v"))
        grouped = moa.Project(nest, items)
        outer_keys = [self.lower_expr(e, frame)
                      for e, _ in inner.corr]
        group_keys = [moa.Attr(moa.Element(), "_k%d" % (i + 1))
                      for i in range(nkeys)]
        if op == "=":
            outer_keys.append(self.lower_expr(lhs, frame))
            group_keys.append(moa.Attr(moa.Element(), "_v"))
            lkey = outer_keys[0] if len(outer_keys) == 1 \
                else moa.TupleCons([(k, None) for k in outer_keys])
            rkey = group_keys[0] if len(group_keys) == 1 \
                else moa.TupleCons([(k, None) for k in group_keys])
            frame.set = moa.Join(frame.set, grouped, lkey, rkey)
            frame.prefix(1)
            frame.pure_class = None
            return
        lkey = outer_keys[0] if len(outer_keys) == 1 \
            else moa.TupleCons([(k, None) for k in outer_keys])
        rkey = group_keys[0] if len(group_keys) == 1 \
            else moa.TupleCons([(k, None) for k in group_keys])
        frame.set = moa.Join(frame.set, grouped, lkey, rkey)
        frame.prefix(1)
        frame.pure_class = None
        value_ref = moa.Attr(moa.Pos(moa.Element(), 2), "_v")
        frame.set = moa.Select(frame.set, [moa.BinOp(
            _OP_MAP[op], self.lower_expr(lhs, frame), value_ref)])

    def grouped_value(self, expr, frame, nkeys):
        """An expression over a nest tuple: aggregates run over the
        group (position ``nkeys+1``), arithmetic stays arithmetic."""
        if isinstance(expr, ast.FuncCall) and expr.name in _AGGS:
            return self._agg_over_group(expr, frame, nkeys)
        if isinstance(expr, (ast.NumberLit, ast.StringLit,
                             ast.DateLit)):
            return self._lower_literal(expr)
        if isinstance(expr, ast.BinExpr) \
                and expr.op in ("+", "-", "*", "/"):
            return moa.BinOp(
                _OP_MAP[expr.op],
                self.grouped_value(expr.left, frame, nkeys),
                self.grouped_value(expr.right, frame, nkeys))
        if isinstance(expr, ast.UnExpr) and expr.op == "-":
            return moa.UnOp("neg",
                            self.grouped_value(expr.operand, frame,
                                               nkeys))
        raise SqlUnsupportedError(
            "cannot aggregate expression %s over a group"
            % expr.render())

    def _agg_over_group(self, call, frame, nkeys):
        group = moa.Pos(moa.Element(), nkeys + 1)
        if call.name == "count":
            if len(call.args) == 1 and isinstance(call.args[0],
                                                  ast.Star):
                return moa.Aggregate("count", group)
            if len(call.args) != 1:
                raise SqlUnsupportedError("count() takes one argument")
            arg = self.lower_expr(call.args[0], frame)
            return moa.Aggregate("count",
                                 moa.Project(group, [(arg, None)]))
        if len(call.args) != 1 or isinstance(call.args[0], ast.Star):
            raise SqlUnsupportedError(
                "%s() takes exactly one expression" % call.name)
        arg = self.lower_expr(call.args[0], frame)
        return moa.Aggregate(call.name,
                             moa.Project(group, [(arg, None)]))

    # ==================================================================
    # expression lowering (over one frame's element)
    # ==================================================================
    def lower_expr(self, expr, frame):
        handler = _EXPR_DISPATCH.get(type(expr).__name__)
        if handler is None:
            raise SqlUnsupportedError(
                "expression %s is not supported here" % expr.render())
        return handler(self, expr, frame)

    def _lower_column(self, expr, frame):
        binding = self.scope.resolve(expr)
        if binding.outer:
            raise SqlUnsupportedError(
                "correlated column %s is only supported in equality "
                "conjuncts" % expr.render())
        anchor = frame.anchors.get(binding.alias)
        if anchor is None:
            raise SqlUnsupportedError(
                "column %s does not belong to this table expression"
                % expr.render())
        return _path_expr(anchor + binding.column.path)

    def _lower_literal(self, expr, frame=None):
        if isinstance(expr, ast.NumberLit):
            atom = "int" if isinstance(expr.value, int) else "double"
            return moa.Literal(expr.value, atom)
        if isinstance(expr, ast.StringLit):
            return moa.Literal(expr.value, "string")
        return moa.Literal(expr.days, "instant")

    def _operand(self, expr, other_kind, frame):
        """A comparison operand, coercing a one-char string literal to
        the ``char`` atom when compared against a char column, and an
        integral double literal to ``int`` against an int column (the
        kernel's select path coerces literals to the column atom, and
        30.0 must mean 30 there, not an AtomError)."""
        if other_kind == "char" and isinstance(expr, ast.StringLit) \
                and len(expr.value) == 1:
            return moa.Literal(expr.value, "char")
        if other_kind == "int" and isinstance(expr, ast.NumberLit) \
                and isinstance(expr.value, float):
            if expr.value != int(expr.value):
                raise SqlUnsupportedError(
                    "comparing the integer column in %r against the "
                    "non-integral literal %r — rewrite the bound as "
                    "an integer" % (expr.render(), expr.value))
            return moa.Literal(int(expr.value), "int")
        return self.lower_expr(expr, frame)

    def _lower_binexpr(self, expr, frame):
        op = expr.op
        if op in ("=", "<>", "<", "<=", ">", ">="):
            left_kind = kind_of(expr.left, self.scope)
            right_kind = kind_of(expr.right, self.scope)
            check_comparable(op, left_kind, right_kind, expr.render())
            return moa.BinOp(_OP_MAP[op],
                             self._operand(expr.left, right_kind, frame),
                             self._operand(expr.right, left_kind, frame))
        return moa.BinOp(_OP_MAP[op],
                         self.lower_expr(expr.left, frame),
                         self.lower_expr(expr.right, frame))

    def _lower_unexpr(self, expr, frame):
        if expr.op == "not":
            return moa.UnOp("not", self.lower_expr(expr.operand, frame))
        return moa.UnOp("neg", self.lower_expr(expr.operand, frame))

    def _lower_funccall(self, expr, frame):
        if expr.name in _AGGS:
            raise SqlUnsupportedError(
                "aggregate %s() is only allowed in the select list of "
                "a grouped or aggregate query (or HAVING)" % expr.name)
        raise SqlUnsupportedError("unknown function %r" % expr.name)

    def _lower_extract(self, expr, frame):
        if expr.field != "year":
            raise SqlUnsupportedError(
                "extract(%s ...) is not supported (only year)"
                % expr.field)
        return moa.Call("year", [self.lower_expr(expr.expr, frame)])

    def _lower_case(self, expr, frame):
        if expr.else_ is None:
            raise SqlUnsupportedError(
                "CASE without ELSE is not supported (no null atom)")
        node = self.lower_expr(expr.else_, frame)
        for cond, value in reversed(expr.whens):
            node = moa.Call("ifthenelse",
                            [self.lower_expr(cond, frame),
                             self.lower_expr(value, frame), node])
        return node

    def _lower_like(self, expr, frame):
        pattern = expr.pattern
        if "_" in pattern or "[" in pattern:
            raise SqlUnsupportedError(
                "LIKE pattern %r is not supported (only %%-wildcard "
                "prefix/suffix/containment shapes)" % pattern)
        subject = self.lower_expr(expr.expr, frame)
        if "%" not in pattern:
            node = moa.BinOp("=", subject,
                             moa.Literal(pattern, "string"))
        elif pattern.startswith("%") and pattern.endswith("%") \
                and len(pattern) > 2 and "%" not in pattern[1:-1]:
            node = moa.Call("contains",
                            [subject,
                             moa.Literal(pattern[1:-1], "string")])
        elif pattern.endswith("%") and "%" not in pattern[:-1]:
            node = moa.Call("startswith",
                            [subject,
                             moa.Literal(pattern[:-1], "string")])
        elif pattern.startswith("%") and "%" not in pattern[1:]:
            node = moa.Call("endswith",
                            [subject,
                             moa.Literal(pattern[1:], "string")])
        else:
            raise SqlUnsupportedError(
                "LIKE pattern %r is not supported (only %%-wildcard "
                "prefix/suffix/containment shapes)" % pattern)
        return moa.UnOp("not", node) if expr.negated else node

    def _lower_inlist(self, expr, frame):
        kind = kind_of(expr.expr, self.scope)
        node = None
        for value in expr.values:
            part = moa.BinOp("=", self.lower_expr(expr.expr, frame),
                             self._operand(value, kind, frame))
            node = part if node is None else moa.BinOp("or", node, part)
        if node is None:
            raise SqlUnsupportedError("IN () with an empty list")
        return moa.UnOp("not", node) if expr.negated else node

    def _reject_subquery_expr(self, expr, frame):
        raise SqlUnsupportedError(
            "subquery %s is only supported as a top-level WHERE/HAVING "
            "conjunct" % expr.render())

    def _reject_star_expr(self, expr, frame):
        raise SqlUnsupportedError("* is only valid as the whole select "
                                  "list or inside count(*)")

    # ==================================================================
    # scalar aggregate queries (no GROUP BY) -> phases
    # ==================================================================
    def scalar_phases(self, expr, frame):
        """Phases computing one scalar select item; returns the index
        of the phase holding the final value."""
        value = self._scalar_expr(expr, frame)
        if isinstance(value, PhaseRef):
            return value.index
        self.phases.append(PyPhase(value))
        return len(self.phases) - 1

    def _scalar_expr(self, expr, frame):
        if isinstance(expr, ast.FuncCall) and expr.name in _AGGS:
            self.phases.append(MoaPhase(self._agg_over_set(expr, frame)))
            return PhaseRef(len(self.phases) - 1)
        if isinstance(expr, (ast.NumberLit, ast.StringLit, ast.DateLit)):
            return self._lower_literal(expr)
        if isinstance(expr, ast.BinExpr) \
                and expr.op in ("+", "-", "*", "/"):
            return moa.BinOp(_OP_MAP[expr.op],
                             self._scalar_expr(expr.left, frame),
                             self._scalar_expr(expr.right, frame))
        if isinstance(expr, ast.UnExpr) and expr.op == "-":
            return moa.UnOp("neg", self._scalar_expr(expr.operand, frame))
        raise SqlUnsupportedError(
            "aggregate query select item %s must combine aggregates "
            "and literals arithmetically" % expr.render())

    def _agg_over_set(self, call, frame):
        if call.name == "count":
            if len(call.args) == 1 and isinstance(call.args[0], ast.Star):
                return moa.Aggregate("count", frame.set)
            if len(call.args) != 1:
                raise SqlUnsupportedError("count() takes one argument")
            arg = self.lower_expr(call.args[0], frame)
            return moa.Aggregate(
                "count", moa.Project(frame.set, [(arg, None)]))
        if len(call.args) != 1 or isinstance(call.args[0], ast.Star):
            raise SqlUnsupportedError(
                "%s() takes exactly one expression" % call.name)
        arg = self.lower_expr(call.args[0], frame)
        return moa.Aggregate(call.name,
                             moa.Project(frame.set, [(arg, None)]))

    # ==================================================================
    # grouped queries -> nest + project (+ having/sort/top)
    # ==================================================================
    def _lower_grouped(self, frame):
        stmt = self.stmt
        key_renders = {e.render(): i
                       for i, e in enumerate(stmt.group_by)}
        nest_keys = [(self.lower_expr(e, frame), "_g%d" % (i + 1))
                     for i, e in enumerate(stmt.group_by)]
        nkeys = len(nest_keys)
        tree = moa.Nest(frame.set, nest_keys)
        proj_items, names, item_renders = [], [], {}
        for item in stmt.items:
            if isinstance(item, ast.Star):
                raise SqlUnsupportedError(
                    "* select list with GROUP BY is not supported")
            name = item.alias if item.alias is not None \
                else output_name(item)
            proj_items.append(
                (self._grouped_item(item.expr, frame, key_renders,
                                    nkeys), name))
            names.append(name)
            item_renders[item.expr.render()] = name
        pre_pred = post_pred = None
        if stmt.having is not None:
            mark = len(self.phases)
            try:
                post_pred = self._having_post(stmt.having, item_renders,
                                              set(names))
            except _NoPostHaving:
                del self.phases[mark:]
                pre_pred = self._having_pre(stmt.having, frame,
                                            key_renders, nkeys)
        if pre_pred is not None:
            tree = moa.Select(tree, [pre_pred])
        tree = moa.Project(tree, proj_items)
        if post_pred is not None:
            tree = moa.Select(tree, [post_pred])
        if stmt.order_by:
            sort_keys = []
            for expr, desc in stmt.order_by:
                name = self._order_post_name(expr, names, item_renders)
                if name is None:
                    raise SqlUnsupportedError(
                        "ORDER BY %s must name an output column of the "
                        "grouped query" % expr.render())
                sort_keys.append((moa.Attr(moa.Element(), name), desc))
            tree = moa.Sort(tree, sort_keys)
        if stmt.limit is not None:
            tree = moa.Top(tree, stmt.limit)
        return tree

    def _grouped_item(self, expr, frame, key_renders, nkeys):
        index = key_renders.get(expr.render())
        if index is not None:
            return moa.Pos(moa.Element(), index + 1)
        if isinstance(expr, ast.FuncCall) and expr.name in _AGGS:
            return self._agg_over_group(expr, frame, nkeys)
        if isinstance(expr, (ast.NumberLit, ast.StringLit, ast.DateLit)):
            return self._lower_literal(expr)
        if isinstance(expr, ast.BinExpr) \
                and expr.op in ("+", "-", "*", "/"):
            return moa.BinOp(_OP_MAP[expr.op],
                             self._grouped_item(expr.left, frame,
                                                key_renders, nkeys),
                             self._grouped_item(expr.right, frame,
                                                key_renders, nkeys))
        if isinstance(expr, ast.UnExpr) and expr.op == "-":
            return moa.UnOp("neg",
                            self._grouped_item(expr.operand, frame,
                                               key_renders, nkeys))
        raise SqlUnsupportedError(
            "select item %s is neither a GROUP BY key nor an aggregate"
            % expr.render())

    def _having_post(self, expr, item_renders, names):
        """HAVING over the *projected* tuple (the Moa Q11 shape:
        select[...](project(nest))); raises _NoPostHaving when the
        predicate mentions an unprojected aggregate."""
        name = item_renders.get(expr.render())
        if name is not None:
            return moa.Attr(moa.Element(), name)
        if isinstance(expr, ast.ColumnRef) and expr.table is None \
                and expr.column in names:
            return moa.Attr(moa.Element(), expr.column)
        if isinstance(expr, (ast.NumberLit, ast.StringLit, ast.DateLit)):
            return self._lower_literal(expr)
        if isinstance(expr, ast.ScalarSelect):
            return self._having_hole(expr)
        if isinstance(expr, ast.BinExpr):
            return moa.BinOp(_OP_MAP[expr.op],
                             self._having_post(expr.left, item_renders,
                                               names),
                             self._having_post(expr.right, item_renders,
                                               names))
        if isinstance(expr, ast.UnExpr):
            op = "not" if expr.op == "not" else "neg"
            return moa.UnOp(op, self._having_post(expr.operand,
                                                  item_renders, names))
        raise _NoPostHaving(expr.render())

    def _having_pre(self, expr, frame, key_renders, nkeys):
        """HAVING over the nest tuple, before projection — for
        predicates on aggregates that are not output columns."""
        if isinstance(expr, ast.BinExpr) and expr.op in (
                "and", "or", "=", "<>", "<", "<=", ">", ">="):
            return moa.BinOp(_OP_MAP[expr.op],
                             self._having_pre(expr.left, frame,
                                              key_renders, nkeys),
                             self._having_pre(expr.right, frame,
                                              key_renders, nkeys))
        if isinstance(expr, ast.UnExpr) and expr.op == "not":
            return moa.UnOp("not", self._having_pre(expr.operand, frame,
                                                    key_renders, nkeys))
        if isinstance(expr, ast.ScalarSelect):
            return self._having_hole(expr)
        return self._grouped_item(expr, frame, key_renders, nkeys)

    def _having_hole(self, sub):
        """An uncorrelated aggregate subquery compared against in
        HAVING: computed as earlier phases, substituted as a Hole."""
        select = sub.select
        if len(select.items) != 1 \
                or isinstance(select.items[0], ast.Star):
            raise SqlUnsupportedError(
                "scalar subquery must produce exactly one column")
        if select.group_by or select.order_by or select.limit is not None:
            raise SqlUnsupportedError(
                "scalar subquery must be a plain aggregate query")
        item_expr = select.items[0].expr
        if not _has_agg(item_expr):
            raise SqlUnsupportedError(
                "scalar subquery must aggregate (a single row cannot "
                "be guaranteed otherwise)")
        inner = _Lowering(select, self.phases, parent=self)
        inner_frame = inner.build_frame()
        if inner.corr:
            raise SqlUnsupportedError(
                "correlated scalar subquery in HAVING is not supported")
        index = inner.scalar_phases(item_expr, inner_frame)
        return Hole(index, _atom_for(kind_of(item_expr, inner.scope)))

    # ==================================================================
    # plain (ungrouped, non-aggregate) queries -> project (+ sort/top)
    # ==================================================================
    def _lower_plain(self, frame):
        stmt = self.stmt
        if len(stmt.items) == 1 and isinstance(stmt.items[0], ast.Star):
            sql_items = self._expand_star()
        else:
            sql_items = []
            for item in stmt.items:
                if isinstance(item, ast.Star):
                    raise SqlUnsupportedError(
                        "* mixed with other select items")
                name = item.alias if item.alias is not None \
                    else output_name(item)
                sql_items.append((item.expr, name))
        names = [name for _e, name in sql_items]
        item_renders = {e.render(): name for e, name in sql_items}
        pre_sort_keys = post_sort_keys = None
        if stmt.order_by:
            post_sort_keys = []
            for expr, desc in stmt.order_by:
                name = self._order_post_name(expr, names, item_renders)
                if name is None:
                    post_sort_keys = None
                    break
                post_sort_keys.append(
                    (moa.Attr(moa.Element(), name), desc))
            if post_sort_keys is None:
                pre_sort_keys = [(self.lower_expr(e, frame), d)
                                 for e, d in stmt.order_by]
        base = frame.set
        if pre_sort_keys is not None:
            base = moa.Sort(base, pre_sort_keys)
        tree = moa.Project(base, [(self.lower_expr(e, frame), name)
                                  for e, name in sql_items])
        if post_sort_keys is not None:
            tree = moa.Sort(tree, post_sort_keys)
        if stmt.limit is not None:
            tree = moa.Top(tree, stmt.limit)
        return tree

    def _expand_star(self):
        """``select *``: every column of every FROM item, in order."""
        out = []
        for from_item in self.stmt.from_items:
            alias = from_item.alias
            table = self.scope.tables[alias]
            for col_name in table.columns:
                out.append((ast.ColumnRef(alias, col_name), col_name))
        return out

    def _order_post_name(self, expr, names, item_renders):
        if isinstance(expr, ast.NumberLit) \
                and isinstance(expr.value, int):
            if 1 <= expr.value <= len(names):
                return names[expr.value - 1]
            raise SqlUnsupportedError(
                "ORDER BY position %d is out of range" % expr.value)
        if isinstance(expr, ast.ColumnRef) and expr.table is None \
                and expr.column in names:
            return expr.column
        return item_renders.get(expr.render())

    # ==================================================================
    # set-valued entry (top level, derived tables, subquery frames)
    # ==================================================================
    def lower_set(self):
        if not self.stmt.group_by:
            for item in self.stmt.items:
                if not isinstance(item, ast.Star) \
                        and _has_agg(item.expr):
                    raise SqlUnsupportedError(
                        "aggregate query without GROUP BY is scalar — "
                        "not usable as a table")
            if self.stmt.having is not None:
                raise SqlUnsupportedError(
                    "HAVING without GROUP BY is not supported")
        frame = self.build_frame()
        if self.stmt.group_by:
            return self._lower_grouped(frame)
        return self._lower_plain(frame)


class _NoPostHaving(Exception):
    """Internal: the HAVING predicate cannot be expressed over the
    projected tuple; fall back to a pre-projection select."""


_MIRROR = {"=": "=", "<>": "<>", "<": ">", "<=": ">=",
           ">": "<", ">=": "<="}


def _flip_args(pred):
    if isinstance(pred, ast.InSelect):
        return (pred.expr, pred.select, not pred.negated)
    return (pred.select, not pred.negated)


def _atom_for(kind):
    if kind in ("int", "double", "string", "char", "instant"):
        return kind
    raise SqlUnsupportedError(
        "a scalar subquery of kind %r cannot become a literal" % kind)


def lower_sql(stmt):
    """Lower a bound SQL AST to a :class:`~repro.moa.plan.LoweredQuery`."""
    if not isinstance(stmt, ast.SelectStmt):
        raise SqlUnsupportedError("only SELECT statements are supported")
    phases = []
    top = _Lowering(stmt, phases, parent=None)
    scalar = not stmt.group_by and any(
        _has_agg(item.expr) for item in stmt.items
        if not isinstance(item, ast.Star))
    if scalar:
        if len(stmt.items) != 1 or isinstance(stmt.items[0], ast.Star):
            raise SqlUnsupportedError(
                "aggregate query without GROUP BY must have exactly "
                "one select item")
        if stmt.order_by or stmt.limit is not None \
                or stmt.having is not None:
            raise SqlUnsupportedError(
                "ORDER BY / LIMIT / HAVING make no sense on a scalar "
                "aggregate query")
        frame = top.build_frame()
        top.scalar_phases(stmt.items[0].expr, frame)
    else:
        phases.append(MoaPhase(top.lower_set()))
    return LoweredQuery(phases)


_EXPR_DISPATCH = {
    "ColumnRef": _Lowering._lower_column,
    "NumberLit": _Lowering._lower_literal,
    "StringLit": _Lowering._lower_literal,
    "DateLit": _Lowering._lower_literal,
    "BinExpr": _Lowering._lower_binexpr,
    "UnExpr": _Lowering._lower_unexpr,
    "FuncCall": _Lowering._lower_funccall,
    "Extract": _Lowering._lower_extract,
    "CaseExpr": _Lowering._lower_case,
    "LikeExpr": _Lowering._lower_like,
    "InList": _Lowering._lower_inlist,
    "InSelect": _Lowering._reject_subquery_expr,
    "Exists": _Lowering._reject_subquery_expr,
    "ScalarSelect": _Lowering._reject_subquery_expr,
    "Star": _Lowering._reject_star_expr,
}

#: SQL AST node class name -> the lowering code that owns it.  Must
#: cover ast.NODE_CLASSES exactly (checked here and, statically, by
#: the analysis selfcheck's SQL-totality lint).
_LOWERS = {
    "SelectStmt": lower_sql,
    "SelectItem": _Lowering._lower_plain,
    "Star": _Lowering._expand_star,
    "TableRef": _Lowering._make_frames,
    "DerivedTable": _Lowering._make_frames,
    "ColumnRef": _Lowering._lower_column,
    "NumberLit": _Lowering._lower_literal,
    "StringLit": _Lowering._lower_literal,
    "DateLit": _Lowering._lower_literal,
    "BinExpr": _Lowering._lower_binexpr,
    "UnExpr": _Lowering._lower_unexpr,
    "FuncCall": _Lowering._lower_funccall,
    "Extract": _Lowering._lower_extract,
    "CaseExpr": _Lowering._lower_case,
    "LikeExpr": _Lowering._lower_like,
    "InList": _Lowering._lower_inlist,
    "InSelect": _Lowering._apply_membership,
    "Exists": _Lowering._apply_membership,
    "ScalarSelect": _Lowering._apply_scalar_subquery,
}

assert set(_LOWERS) == {cls.__name__ for cls in ast.NODE_CLASSES}, \
    "lowering does not cover the SQL AST exactly"
