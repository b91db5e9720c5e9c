"""Structure functions: the physical-to-logical mapping (section 3.3).

A structured MOA value is represented by a set of BATs plus a
composition of *structure functions*; this module implements that
composition as :class:`Rep` trees.  The paper's functions map directly:

* ``SET(A, S)``   -> :class:`SetRep` (index BAT ``A`` + inner rep ``S``)
* ``SET(A)``      -> :class:`SetRep` with an *inline* inner rep (the
  optimisation for simple element values: the index tail IS the value)
* ``TUPLE(...)``  -> :class:`TupleRep` over synchronous field reps
* ``OBJECT(...)`` -> :class:`ObjectRep` (ids are the object oids;
  attribute BATs are found through the kernel catalog)
* head-unique ``BAT[oid, tau]``  -> :class:`AtomRep`
* head-unique ``BAT[oid, oid]`` referencing class X -> :class:`RefRep`

Rep *sources* are either concrete BATs or MIL variables
(:class:`~repro.monet.mil.Var`); :func:`materialize` resolves variables
through a MIL environment and rebuilds the logical value — the upward
gray arrow of the paper's Figure 6.  Object values materialise as
:class:`~repro.moa.values.Ref` (identity semantics), which keeps the
cyclic TPC-D schema finite.
"""

from ..errors import MOAError
from ..monet.mil import Var
from .values import Bag, Ref, Row


class Rep:
    """Abstract structure-function node."""

    def render(self):
        raise NotImplementedError

    def __repr__(self):
        return self.render()


class AtomRep(Rep):
    """Identified value set of base-type values: BAT[id, value]."""

    __slots__ = ("source", "atom_name")

    def __init__(self, source, atom_name):
        self.source = source
        self.atom_name = atom_name

    def render(self):
        return "ATOM(%s)" % _render_source(self.source)


class RefRep(Rep):
    """Identified value set of object references: BAT[id, oid]."""

    __slots__ = ("source", "class_name")

    def __init__(self, source, class_name):
        self.source = source
        self.class_name = class_name

    def render(self):
        return "REF(%s -> %s)" % (_render_source(self.source),
                                  self.class_name)


class ObjectRep(Rep):
    """Objects of a class: element ids ARE the object oids."""

    __slots__ = ("class_name",)

    def __init__(self, class_name):
        self.class_name = class_name

    def render(self):
        return "OBJECT(%s)" % self.class_name


class InlineAtomRep(Rep):
    """Inner rep of the SET(A) optimisation: the id IS the value."""

    __slots__ = ("atom_name",)

    def __init__(self, atom_name):
        self.atom_name = atom_name

    def render(self):
        return "VALUE(%s)" % self.atom_name


class InlineRefRep(Rep):
    """SET(A) over object references: the id IS the referenced oid."""

    __slots__ = ("class_name",)

    def __init__(self, class_name):
        self.class_name = class_name

    def render(self):
        return "VALUEREF(%s)" % self.class_name


class TupleRep(Rep):
    """TUPLE / OBJECT structure function: synchronous field reps."""

    __slots__ = ("fields",)

    def __init__(self, fields):
        self.fields = list(fields)

    def field(self, name):
        for field_name, rep in self.fields:
            if field_name == name:
                return rep
        raise MOAError("tuple rep has no field %r" % name)

    def field_at(self, position):
        if not 1 <= position <= len(self.fields):
            raise MOAError("tuple rep position %d out of range" % position)
        return self.fields[position - 1][1]

    def render(self):
        return "TUPLE(%s)" % ", ".join(
            "%s=%s" % (name, rep.render()) for name, rep in self.fields)


class SetRep(Rep):
    """SET structure function: index BAT[owner, elem] + inner rep."""

    __slots__ = ("index", "inner")

    def __init__(self, index, inner):
        self.index = index
        self.inner = inner

    def render(self):
        return "SET(%s, %s)" % (_render_source(self.index),
                                self.inner.render())


class ViaRep(Rep):
    """Identifier remapping: map BAT[new_id, old_id] over an inner rep.

    Produced by joins/unnests, which mint fresh pair ids and must view
    existing reps through the pair -> original-element mapping.
    """

    __slots__ = ("map_source", "inner")

    def __init__(self, map_source, inner):
        self.map_source = map_source
        self.inner = inner

    def render(self):
        return "VIA(%s, %s)" % (_render_source(self.map_source),
                                self.inner.render())


class Mirrored:
    """A rep source that is the mirror view of another source.

    Extents are stored ``[oid, void]`` (paper section 6) but serve as
    SET indexes ``[owner, elem]`` through their mirror; mirroring is
    free in Monet, so this wrapper just defers it to resolve time.
    """

    __slots__ = ("source",)

    def __init__(self, source):
        self.source = source


def resolve_source(source, resolver):
    """Resolve a rep source (Var / BAT / Mirrored) to a BAT."""
    if isinstance(source, Mirrored):
        return resolve_source(source.source, resolver).mirror()
    return resolver(source)


def rename_sources(node, renames):
    """A copy of the rep tree ``node`` with every :class:`Var` source
    named in ``renames`` replaced by a Var of the new name; subtrees
    with nothing to rename are shared, not copied."""
    if isinstance(node, Var):
        new_name = renames.get(node.name)
        return node if new_name is None else Var(new_name)
    if isinstance(node, (list, tuple)):
        items = [rename_sources(item, renames) for item in node]
        if all(new is old for new, old in zip(items, node)):
            return node
        return type(node)(items)
    if not isinstance(node, (Rep, Mirrored)):
        return node
    values = {name: rename_sources(getattr(node, name), renames)
              for name in type(node).__slots__}
    if all(values[name] is getattr(node, name) for name in values):
        return node
    clone = object.__new__(type(node))
    for name, value in values.items():
        setattr(clone, name, value)
    return clone


def _render_source(source):
    if isinstance(source, Mirrored):
        return "mirror(%s)" % _render_source(source.source)
    if isinstance(source, Var):
        return source.name
    if source is None:
        return "-"
    return getattr(source, "name", None) or "<bat>"


# ----------------------------------------------------------------------
# materialization (the upward arrow of Figure 6)
# ----------------------------------------------------------------------
class Materializer:
    """Rebuilds logical values from a rep tree.

    ``resolver(source)`` maps a rep source (Var or BAT) to a BAT;
    ``schema``/``catalog_get`` serve ObjectRep attribute lookups when
    deep materialisation is requested (sessions use shallow Refs).
    """

    def __init__(self, resolver):
        self.resolver = resolver

    # -- id -> value maps ------------------------------------------------
    def value_map(self, rep):
        """dict element-id -> logical value for an inner rep."""
        if isinstance(rep, AtomRep):
            bat = resolve_source(rep.source, self.resolver)
            return dict(bat.to_pairs())
        if isinstance(rep, RefRep):
            bat = resolve_source(rep.source, self.resolver)
            return {identifier: Ref(rep.class_name, oid)
                    for identifier, oid in bat.to_pairs()}
        if isinstance(rep, ObjectRep):
            return _IdentityMap(lambda oid: Ref(rep.class_name, oid))
        if isinstance(rep, InlineAtomRep):
            return _IdentityMap(lambda value: value)
        if isinstance(rep, InlineRefRep):
            return _IdentityMap(lambda oid: Ref(rep.class_name, oid))
        if isinstance(rep, TupleRep):
            field_maps = [(name, self.value_map(field_rep))
                          for name, field_rep in rep.fields]
            return _TupleMap(field_maps)
        if isinstance(rep, SetRep):
            index = resolve_source(rep.index, self.resolver)
            inner = self.value_map(rep.inner)
            grouped = {}
            for owner, elem in index.to_pairs():
                grouped.setdefault(owner, Bag()).add(inner[elem])
            return _SetMap(grouped)
        if isinstance(rep, ViaRep):
            mapping = resolve_source(rep.map_source, self.resolver)
            inner = self.value_map(rep.inner)
            return {new_id: inner[old_id]
                    for new_id, old_id in mapping.to_pairs()}
        raise MOAError("cannot materialize rep %r" % rep)

    def top_level(self, rep):
        """Materialise a top-level SET rep into an ordered value list.

        The order follows the index BAT's BUN order, which is how the
        flattened engine carries ORDER BY information.
        """
        if not isinstance(rep, SetRep):
            raise MOAError("top-level result must be a SET rep, got %r"
                           % rep)
        index = resolve_source(rep.index, self.resolver)
        inner = self.value_map(rep.inner)
        return [inner[elem] for _owner, elem in index.to_pairs()]


class _IdentityMap:
    """Lazy id->value map where the value is a function of the id."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, key):
        return self.fn(key)

    def get(self, key, default=None):
        return self.fn(key)


class _TupleMap:
    """Lazy id->Row map over synchronous field maps."""

    __slots__ = ("field_maps",)

    def __init__(self, field_maps):
        self.field_maps = field_maps

    def __getitem__(self, key):
        return Row([(name, mapping[key])
                    for name, mapping in self.field_maps])


class _SetMap:
    """id->Bag map where absent owners own the empty bag."""

    __slots__ = ("grouped",)

    def __init__(self, grouped):
        self.grouped = grouped

    def __getitem__(self, key):
        value = self.grouped.get(key)
        return value if value is not None else Bag()


def materialize(rep, resolver):
    """Materialise a top-level set rep; see :class:`Materializer`."""
    return Materializer(resolver).top_level(rep)
