"""Storage-schema declarations: each of the paper's four schemas as data.

The evaluation stores one DWARF under four schemas (Tables 1/3, Fig. 4).
What differs between them is declarative: which tables hold the
registry, the nodes, the cells and the node↔cell relation, what each
column stores, which columns are indexed, and which engine runs them.
So each schema is written down once as a frozen :class:`SchemaMapping`,
and the access code is derived from it — DDL, prepared INSERTs and
key DELETEs and store/load by :class:`~repro.mapping.base.CubeMapper`,
the stored-query walk's cell reads by :mod:`repro.mapping.stored_query`,
the declaration check by :mod:`repro.analysis.mapping_check`.

A column's **role** names what it stores: a field of the flat
:class:`~repro.mapping.base.NodeRecord` / ``CellRecord`` the
transformation emits (``cell_id``, ``key_text``, ``measure``,
``parent_node_id``, ``pointer_node_id``, ``is_leaf``, ``is_root_cell``,
``children_cell_ids``, ...), ``schema_id`` for the stored cube's id, or
the column's own name in the registry, dimension and epoch tables.

The **relation kind** says where the node↔cell relation lives:

* :data:`SET` — node rows carry their cells' ids in ``set<int>``
  columns (NoSQL-DWARF);
* :data:`LINK` — link tables hold one row per node→cell and per
  cell→node edge (MySQL-DWARF);
* :data:`PARENT` — there are no node rows; each cell carries its parent
  and pointer node ids (NoSQL-Min, MySQL-Min).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

SET = "set"
LINK = "link"
PARENT = "parent"


class Column(NamedTuple):
    name: str
    #: The DDL spelling, e.g. ``"set<int>"`` or ``"BOOLEAN NOT NULL"``.
    type: str
    role: str


class Table(NamedTuple):
    name: str
    columns: Tuple[Column, ...]
    #: A composite primary key; empty means the first column alone.
    key: Tuple[str, ...] = ()
    #: Columns carrying a secondary index.
    indexes: Tuple[str, ...] = ()

    def column(self, role: str) -> Optional[str]:
        """The name of the column storing ``role``, or None."""
        for column in self.columns:
            if column.role == role:
                return column.name
        return None

    def ddl(self) -> str:
        parts = [f"{column.name} {column.type}" for column in self.columns]
        if self.key:
            parts.append(f"PRIMARY KEY ({', '.join(self.key)})")
        else:
            parts[0] += " PRIMARY KEY"
        return f"CREATE TABLE IF NOT EXISTS {self.name} ({', '.join(parts)})"

    @property
    def written(self) -> Tuple[Column, ...]:
        """The columns an INSERT sets: all but ``size_as_bytes``, which
        only the size probe's UPDATE writes."""
        return tuple(c for c in self.columns if c.role != "size_as_bytes")

    @property
    def key_columns(self) -> Tuple[Column, ...]:
        """The primary-key columns, in key order."""
        by_name = {column.name: column for column in self.columns}
        return tuple(by_name[name] for name in self.key) or self.columns[:1]

    def insert(self) -> str:
        names = [column.name for column in self.written]
        return (
            f"INSERT INTO {self.name} ({', '.join(names)}) "
            f"VALUES ({', '.join('?' * len(names))})"
        )

    def delete(self) -> str:
        """The DELETE of one row by its whole primary key."""
        where = " AND ".join(f"{column.name} = ?" for column in self.key_columns)
        return f"DELETE FROM {self.name} WHERE {where}"


class Types(NamedTuple):
    """A backend's DDL spellings for the shared tables' columns."""

    integer: str
    boolean: str
    text: str
    #: Dimension, table, schema and measure names.
    name: str
    #: Aggregate-function names.
    short: str


class Backend(NamedTuple):
    """What a mapper needs to know about one engine family."""

    label: str
    #: ``CREATE <namespace_kind> IF NOT EXISTS``.
    namespace_kind: str
    #: ``space(engine, name)`` -> the keyspace / database object.
    space: Callable
    #: Suffix of a statement that filters on a non-key column.
    filtering: str
    #: ``settle(space)`` after TRUNCATE: drop the commit / redo log.
    settle: Callable
    #: Tables count block-cache hits a fetch can report.
    block_cache: bool
    types: Types


CQL = Backend(
    label="cql",
    namespace_kind="KEYSPACE",
    space=lambda engine, name: engine.keyspace(name),
    filtering=" ALLOW FILTERING",
    settle=lambda space: space.clear_commit_log(),
    block_cache=True,
    types=Types("int", "boolean", "text", "text", "text"),
)

SQL = Backend(
    label="sql",
    namespace_kind="DATABASE",
    space=lambda engine, name: engine.database(name),
    filtering="",
    settle=lambda space: space.checkpoint(),
    block_cache=False,
    types=Types("INT", "BOOLEAN", "TEXT", "VARCHAR(64)", "VARCHAR(16)"),
)


def _named(pairs) -> Tuple[Column, ...]:
    return tuple(Column(name, type_, name) for name, type_ in pairs)


def registry_table(name: str, backend: Backend, dwarf: bool) -> Table:
    """The schema/cube registry (Table 1-A, Table 3).  The DWARF schemas
    also keep the traversal entry node and the ``is_cube`` flag."""
    t = backend.types
    pairs = [
        ("id", t.integer), ("node_count", t.integer), ("cell_count", t.integer),
        ("size_as_mb", t.integer), ("size_as_bytes", t.integer),
    ]
    if dwarf:
        pairs += [("entry_node_id", t.integer), ("is_cube", t.boolean)]
    return Table(name, _named(pairs))


def dimension_table(name: str, backend: Backend) -> Table:
    """The dimension registry that makes ``load`` self-contained
    (:func:`~repro.mapping.base.schema_to_rows`)."""
    t = backend.types
    return Table(name, _named([
        ("id", t.integer), ("schema_id", t.integer), ("position", t.integer),
        ("name", t.name), ("dimension_table", t.name), ("schema_name", t.name),
        ("measure", t.name), ("aggregator", t.short),
    ]))


def epoch_table(name: str, backend: Backend) -> Table:
    """The maintained-cube epoch registry (:mod:`repro.mapping.incremental`)."""
    t = backend.types
    return Table(name, _named([
        ("id", t.integer), ("epoch", t.integer), ("base_id", t.integer),
        ("delta_ids", t.text), ("retired_ids", t.text), ("pending_id", t.integer),
    ]))


@dataclass(frozen=True, eq=False)
class SchemaMapping:
    """One storage schema of the paper, declared once."""

    #: The paper's label, e.g. ``"NoSQL-DWARF"``.
    name: str
    backend: Backend
    #: The default keyspace / database.
    namespace: str
    relation: str
    registry: Table
    cells: Table
    dimensions: Table
    epochs: Table
    nodes: Optional[Table] = None
    #: LINK only: the node→cell and cell→node link tables.
    links: Tuple[Table, ...] = ()

    @property
    def label(self) -> str:
        """Plan-cache label prefix, e.g. ``"nosql_dwarf"``."""
        return self.name.lower().replace("-", "_")

    @property
    def tables(self) -> Tuple[Table, ...]:
        """Every table, in DDL (and TRUNCATE) order."""
        return tuple(
            table
            for table in (self.registry, self.nodes, self.cells, *self.links,
                          self.dimensions, self.epochs)
            if table is not None
        )

    @property
    def stored_tables(self) -> Tuple[Table, ...]:
        """The tables ``store`` writes, in INSERT order."""
        return self.tables[:-1]

    def link(self, role: str) -> Optional[Table]:
        """The link table storing ``role``, or None."""
        return next((link for link in self.links if link.column(role)), None)
