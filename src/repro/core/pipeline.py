"""The end-to-end cube construction pipeline (paper Fig. overview, §1–4).

``CubeConstructionPipeline`` chains the whole system: harvested XML/JSON
documents → ETL (records → fact tuples) → DWARF construction → storage
through a bi-directional mapper, and back (reload a stored cube into
memory for querying).  It also exposes the incremental path the paper's
conclusion motivates: build a delta cube from a new stream window and
merge it into the standing cube.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.errors import PipelineError
from repro.core.schema import CubeSchema


class PipelineReport:
    """What one :meth:`CubeConstructionPipeline.run` did."""

    __slots__ = (
        "n_documents", "n_records", "n_facts", "n_nodes", "n_cells",
        "schema_id", "stored_mb",
    )

    def __init__(self, n_documents, n_records, n_facts, n_nodes, n_cells,
                 schema_id, stored_mb) -> None:
        self.n_documents = n_documents
        self.n_records = n_records
        self.n_facts = n_facts
        self.n_nodes = n_nodes
        self.n_cells = n_cells
        self.schema_id = schema_id
        self.stored_mb = stored_mb

    def __repr__(self) -> str:
        return (
            f"PipelineReport(docs={self.n_documents}, records={self.n_records}, "
            f"facts={self.n_facts}, nodes={self.n_nodes}, cells={self.n_cells}, "
            f"schema_id={self.schema_id}, stored_mb={self.stored_mb})"
        )


class CubeConstructionPipeline:
    """Documents in, stored DWARF cube out.

    Parameters
    ----------
    etl:
        An :class:`~repro.etl.pipeline.EtlPipeline` bound to the cube
        schema (the smart-city modules ship ready-made ones).
    mapper:
        A :class:`~repro.mapping.base.CubeMapper`; ``install()`` is called
        lazily on first use.  ``None`` keeps cubes in memory only.
    coalesce:
        Suffix coalescing toggle, passed to the DWARF builder.
    workers:
        Construction worker count for the partitioned parallel builder.
        ``None`` resolves via :func:`repro.dwarf.parallel.resolve_workers`
        (``REPRO_WORKERS`` > CPU count); ``1`` pins the classic serial
        scan.
    """

    def __init__(self, etl, mapper=None, coalesce: bool = True,
                 workers: Optional[int] = None) -> None:
        self.etl = etl
        self.mapper = mapper
        self.coalesce = coalesce
        self.workers = workers
        self._installed = False
        self.last_cube = None

    @property
    def schema(self) -> CubeSchema:
        return self.etl.mapping.schema

    # ------------------------------------------------------------------
    def build(self, documents: Iterable):
        """Documents → in-memory DWARF cube (no storage)."""
        from repro.dwarf.parallel import ParallelDwarfBuilder

        facts = self.etl.extract(documents)
        if len(facts) == 0:
            raise PipelineError("no fact tuples extracted from the documents")
        builder = ParallelDwarfBuilder(
            self.schema, coalesce=self.coalesce, workers=self.workers
        )
        cube = builder.build(facts)
        self.last_cube = cube
        return cube

    def run(self, documents: Iterable, is_cube: bool = False) -> PipelineReport:
        """The full paper pipeline: build the cube and store it."""
        cube = self.build(documents)
        schema_id = None
        stored_mb = None
        if self.mapper is not None:
            self._ensure_installed()
            schema_id = self.mapper.store(cube, is_cube=is_cube)
            stored_mb = self.mapper.info(schema_id).size_as_mb
        stats = cube.stats
        return PipelineReport(
            n_documents=self.etl.n_documents,
            n_records=self.etl.n_records,
            n_facts=cube.n_source_tuples,
            n_nodes=stats.node_count,
            n_cells=stats.cell_count,
            schema_id=schema_id,
            stored_mb=stored_mb,
        )

    def update(self, documents: Iterable):
        """Incremental maintenance: merge a delta window into the last cube.

        Builds a small DWARF over ``documents`` and merges it with
        :attr:`last_cube` (paper §7: "our current focus is on cube
        updates").  Returns the merged cube, which becomes the new
        standing cube.
        """
        from repro.dwarf.builder import DwarfBuilder, merge_cubes

        if self.last_cube is None:
            return self.build(documents)
        facts = self.etl.extract(documents)
        if len(facts) == 0:
            return self.last_cube
        delta = DwarfBuilder(self.schema, coalesce=self.coalesce).build(facts)
        self.last_cube = merge_cubes(self.last_cube, delta)
        return self.last_cube

    def reload(self, schema_id: int):
        """Rebuild a stored cube from the mapper (the reverse direction)."""
        if self.mapper is None:
            raise PipelineError("pipeline has no mapper to reload from")
        self._ensure_installed()
        return self.mapper.load(schema_id)

    def _ensure_installed(self) -> None:
        if not self._installed:
            self.mapper.install()
            self._installed = True

    def __repr__(self) -> str:
        mapper_name = self.mapper.name if self.mapper is not None else None
        return (
            f"CubeConstructionPipeline(schema={self.schema.name!r}, "
            f"mapper={mapper_name!r})"
        )
