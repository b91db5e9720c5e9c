"""The query plan every front-end lowers to, and its executor.

A plan (:class:`LoweredQuery`) is an ordered list of *phases*; the
query's result is the last phase's value.  Each phase is either

* a ``moa`` phase — a MOA set or aggregate tree, possibly containing
  :class:`Hole` placeholders to be filled with the scalar results of
  earlier phases (as typed literals), compiled resolve -> rewrite ->
  (budget check) -> MIL; or
* a ``py`` phase — scalar arithmetic combining earlier phase results
  in Python, e.g. Q14's ``100.0 * promo / total`` (no MIL operator
  works on two scalars).

Front-ends only translate into this shape: Moa text becomes a
one-phase plan (:func:`moa_plan`), SQL lowers through
:mod:`repro.sql.lower`, and each TPC-D query builds its plan from its
parameters (:meth:`repro.tpcd.queries.TPCDQuery.plan`).
:class:`PreparedPlan` binds a plan to a database: hole-free phases
compile once (and pass admission budgets once); holed phases
re-resolve per execution after their literals are known.  The query
service caches prepared plans per worker (:mod:`repro.server.tasks`).

Scalars follow SQL's NULL rules: an aggregate over no rows (``max``
of nothing) is ``None``, ``py`` arithmetic on ``None`` is ``None``,
and a ``select`` comparison against a ``None`` hole is never true, so
that selection is empty (see :func:`fill_holes`).
"""

from ..errors import SqlUnsupportedError
from . import ast as moa_ast
from .parser import parse
from .rewriter import rewrite
from .typecheck import resolve

_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")


class Hole(moa_ast.Node):
    """Placeholder for the scalar result of an earlier phase; replaced
    by a typed :class:`~repro.moa.ast.Literal` before resolution."""

    __slots__ = ("index", "atom_name")

    def __init__(self, index, atom_name):
        self.index = index
        self.atom_name = atom_name

    def render(self):
        return "$%d" % self.index


class PhaseRef(moa_ast.Node):
    """Reference to an earlier phase's value inside a ``py`` phase."""

    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index

    def render(self):
        return "$%d" % self.index


class MoaPhase:
    __slots__ = ("tree",)
    kind = "moa"

    def __init__(self, tree):
        self.tree = tree

    @property
    def has_holes(self):
        return any(isinstance(n, Hole) for n in moa_ast.walk(self.tree))

    def render(self):
        return self.tree.render()


class PyPhase:
    """Scalar combination of earlier phases: a tree of PhaseRef,
    Literal, BinOp(+,-,*,/) and UnOp(neg) nodes."""

    __slots__ = ("expr",)
    kind = "py"

    def __init__(self, expr):
        self.expr = expr

    def render(self):
        return self.expr.render()


class LoweredQuery:
    """Ordered phases; the last phase's value is the query result."""

    __slots__ = ("phases",)

    def __init__(self, phases):
        self.phases = list(phases)

    def render(self):
        return "\n".join("phase %d [%s]: %s" % (i, p.kind, p.render())
                         for i, p in enumerate(self.phases))


def moa_plan(text):
    """The one-phase plan of a Moa query text."""
    return LoweredQuery([MoaPhase(parse(text))])


# ----------------------------------------------------------------------
# structure-preserving MOA tree copies (hole filling and placement)
# ----------------------------------------------------------------------
def substitute(node, replace):
    """A copy of the MOA tree ``node`` in which every node for which
    ``replace(node)`` returns a node is swapped for that node."""
    swapped = replace(node)
    if swapped is not None:
        return swapped
    clone = object.__new__(type(node))
    for name in type(node).__slots__:
        setattr(clone, name, _substitute_field(getattr(node, name),
                                               replace))
    return clone


def _substitute_field(value, replace):
    if isinstance(value, moa_ast.Node):
        return substitute(value, replace)
    if isinstance(value, (list, tuple)):
        return type(value)(_substitute_field(item, replace)
                           for item in value)
    return value


def fill_holes(tree, values):
    """A copy of ``tree`` with every Hole replaced by a Literal.

    A hole whose value is NULL (``None``) may only be an operand of a
    comparison conjunct of a ``select``: there the comparison is never
    true, so the conjunct becomes ``<(x, x)`` over its other operand,
    which no element satisfies, and the selection is empty.  A NULL
    hole anywhere else raises :class:`SqlUnsupportedError`.
    """
    def is_null(node):
        return isinstance(node, Hole) and values[node.index] is None

    def conjunct(predicate):
        if not isinstance(predicate, moa_ast.BinOp):
            return substitute(predicate, replace)
        if predicate.op == "and":
            return moa_ast.BinOp("and", conjunct(predicate.left),
                                 conjunct(predicate.right))
        if predicate.op in _COMPARISONS and \
                is_null(predicate.left) != is_null(predicate.right):
            other = predicate.left if is_null(predicate.right) \
                else predicate.right
            return moa_ast.BinOp("<", substitute(other, replace),
                                 substitute(other, replace))
        return substitute(predicate, replace)

    def replace(node):
        if isinstance(node, Hole):
            return moa_ast.Literal(_coerce(values[node.index],
                                           node.atom_name),
                                   node.atom_name)
        if isinstance(node, moa_ast.Select):
            return moa_ast.Select(substitute(node.input, replace),
                                  [conjunct(p) for p in node.predicates])
        return None

    return substitute(tree, replace)


def _coerce(value, atom_name):
    if value is None:
        raise SqlUnsupportedError(
            "a scalar subquery produced no value (empty input)")
    if atom_name == "double":
        return float(value)
    if atom_name in ("int", "long"):
        return int(value)
    return value


# ----------------------------------------------------------------------
# py-phase evaluation
# ----------------------------------------------------------------------
def eval_py(expr, values):
    a = moa_ast
    if isinstance(expr, PhaseRef):
        value = values[expr.index]
        if value is None:
            return None
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return int(value)
        try:
            return float(value)
        except (TypeError, ValueError):
            return value
    if isinstance(expr, a.Literal):
        return expr.value
    if isinstance(expr, a.BinOp):
        left = eval_py(expr.left, values)
        right = eval_py(expr.right, values)
        if left is None or right is None:
            return None                 # NULL in, NULL out
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            # Q14's convention: x / 0 -> 0.0, not an error
            return left / right if right else 0.0
        raise SqlUnsupportedError("py phase cannot apply %r" % expr.op)
    if isinstance(expr, a.UnOp) and expr.op == "neg":
        operand = eval_py(expr.operand, values)
        return None if operand is None else -operand
    raise SqlUnsupportedError("py phase cannot evaluate %r" % expr)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
class PreparedPlan:
    """A plan bound to a database, ready to re-execute.

    Hole-free moa phases are compiled (resolve + rewrite) once here —
    and budget-checked once, so a rejected plan never gets cached.
    Holed phases are re-resolved (and re-checked) per run once their
    literals are known; they are tiny scalar-threshold queries, the
    heavy phases have no holes.

    ``db`` needs only ``schema``, ``flat`` and ``run_compiled``.
    """

    def __init__(self, db, lowered, budget=None, catalog=None):
        self.db = db
        self.lowered = lowered
        self._budget = budget
        self._catalog = catalog
        self._compiled = [
            self._compile(phase.tree)
            if phase.kind == "moa" and not phase.has_holes else None
            for phase in lowered.phases]

    def _compile(self, tree):
        resolved = resolve(tree, self.db.schema)
        compiled = rewrite(resolved, self.db.flat)
        if self._budget is not None:
            from ..analysis.verify import check_program
            check_program(compiled.program, catalog=self._catalog,
                          budget=self._budget)
        return compiled

    def run(self):
        values = []
        for phase, compiled in zip(self.lowered.phases, self._compiled):
            if phase.kind == "py":
                values.append(eval_py(phase.expr, values))
                continue
            if compiled is None:
                compiled = self._compile(fill_holes(phase.tree, values))
            values.append(self.db.run_compiled(compiled))
        return values[-1]
