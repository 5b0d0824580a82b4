"""Data streams, windows and micro-batch tailing.

The paper maintains cubes over *periods* of a stream (one day, one week,
one month, ...).  A :class:`DocumentStream` is an ordered source of
documents; :func:`window_by_count` and :func:`window_by_period` cut it
into batches that the pipeline turns into per-period cubes.

The incremental path tails the stream instead of windowing it wholesale:
a :class:`FeedTailer` consumes bounded :class:`MicroBatch` slices from a
(possibly still growing) stream, tracking a resumable **offset** (count
of documents consumed, the position a restarted tailer seeks back to)
and a **watermark** (the highest document sequence number delivered so
far, the "caught up to" point the merge scheduler reads).
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Iterator, List, Optional, Union

from repro.etl.documents import DocumentBatch, SourceDocument
from repro.telemetry import get_registry, get_tracer

_REGISTRY = get_registry()
_M_BATCHES = _REGISTRY.counter(
    "ingest_batches_total", "micro-batches delivered by feed tailers"
)
_M_TAILED = _REGISTRY.counter(
    "ingest_documents_total", "documents delivered through micro-batches"
)

#: Default micro-batch bound when ``REPRO_INGEST_BATCH`` is unset.
DEFAULT_INGEST_BATCH = 64


def resolve_ingest_batch(batch_size: Optional[int] = None) -> int:
    """Micro-batch bound: explicit argument > ``REPRO_INGEST_BATCH`` > 64.

    Malformed values fall back to the default and non-positive ones to
    1, as for every integer ``REPRO_*`` knob.
    """
    if batch_size is None:
        env = os.environ.get("REPRO_INGEST_BATCH", "").strip()
        if env:
            try:
                batch_size = int(env)
            except ValueError:
                batch_size = DEFAULT_INGEST_BATCH
        else:
            batch_size = DEFAULT_INGEST_BATCH
    return max(1, int(batch_size))


class DocumentStream:
    """An ordered, replayable stream of source documents."""

    def __init__(self, documents: Iterable[SourceDocument]) -> None:
        self._documents: List[SourceDocument] = list(documents)

    def __iter__(self) -> Iterator[SourceDocument]:
        return iter(self._documents)

    def __len__(self) -> int:
        return len(self._documents)

    def batch(self) -> DocumentBatch:
        return DocumentBatch(self._documents)

    def extend(self, documents: Iterable[SourceDocument]) -> None:
        """Append newly harvested documents (models a live, growing feed)."""
        self._documents.extend(documents)

    def slice(self, start: int, stop: int) -> List[SourceDocument]:
        """Documents in ``[start, stop)`` — the tailer's read primitive."""
        return self._documents[start:stop]

    def __repr__(self) -> str:
        return f"DocumentStream({len(self)} documents)"


class MicroBatch:
    """One bounded slice of a tailed stream.

    Iterating yields the documents; ``start_offset``/``end_offset`` frame
    the slice in the stream and ``watermark`` is the highest document
    ``sequence`` in the batch (the event-time frontier it advances).
    """

    __slots__ = ("index", "start_offset", "end_offset", "watermark", "documents")

    def __init__(
        self,
        index: int,
        start_offset: int,
        end_offset: int,
        watermark: int,
        documents: List[SourceDocument],
    ) -> None:
        self.index = index
        self.start_offset = start_offset
        self.end_offset = end_offset
        self.watermark = watermark
        self.documents = documents

    def __iter__(self) -> Iterator[SourceDocument]:
        return iter(self.documents)

    def __len__(self) -> int:
        return len(self.documents)

    def __repr__(self) -> str:
        return (
            f"MicroBatch(#{self.index}, offsets "
            f"[{self.start_offset}, {self.end_offset}), "
            f"watermark={self.watermark}, {len(self.documents)} documents)"
        )


class FeedTailer:
    """Tail a :class:`DocumentStream` in bounded micro-batches.

    ``poll()`` returns the next :class:`MicroBatch` (at most
    ``batch_size`` documents) or ``None`` when the tailer has caught up
    with the stream; a stream that grows (``DocumentStream.extend``)
    makes the next ``poll()`` productive again.  The tailer is resumable:
    persist :attr:`offset` and hand it back as ``offset=`` to continue
    exactly where a previous tailer stopped.
    """

    def __init__(
        self,
        stream: Union[DocumentStream, Iterable[SourceDocument]],
        batch_size: Optional[int] = None,
        offset: int = 0,
    ) -> None:
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        if not isinstance(stream, DocumentStream):
            # Accept any ordered document container (DocumentBatch, list);
            # only a DocumentStream can grow underneath the tailer.
            stream = DocumentStream(stream)
        self.stream = stream
        self.batch_size = resolve_ingest_batch(batch_size)
        self._offset = offset
        self._watermark = -1
        self._n_batches = 0

    # ------------------------------------------------------------------
    @property
    def offset(self) -> int:
        """Documents consumed so far — persist this to resume the tail."""
        return self._offset

    @property
    def watermark(self) -> int:
        """Highest document sequence delivered (-1 before the first batch)."""
        return self._watermark

    @property
    def lag(self) -> int:
        """Documents available but not yet delivered."""
        return max(0, len(self.stream) - self._offset)

    def seek(self, offset: int) -> None:
        """Reposition the tail (resume from a persisted offset)."""
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        self._offset = offset

    # ------------------------------------------------------------------
    def poll(self) -> Optional[MicroBatch]:
        """The next bounded micro-batch, or ``None`` when caught up."""
        with get_tracer().span(
            "ingest.poll", offset=self._offset, batch_size=self.batch_size
        ):
            start = self._offset
            stop = min(start + self.batch_size, len(self.stream))
            if stop <= start:
                return None
            documents = self.stream.slice(start, stop)
            self._offset = stop
            for document in documents:
                if document.sequence > self._watermark:
                    self._watermark = document.sequence
            batch = MicroBatch(
                index=self._n_batches,
                start_offset=start,
                end_offset=stop,
                watermark=self._watermark,
                documents=documents,
            )
            self._n_batches += 1
        _M_BATCHES.inc()
        _M_TAILED.inc(len(documents))
        return batch

    def __iter__(self) -> Iterator[MicroBatch]:
        """Drain every currently available micro-batch."""
        while True:
            batch = self.poll()
            if batch is None:
                return
            yield batch

    def __repr__(self) -> str:
        return (
            f"FeedTailer(offset={self._offset}, batch_size={self.batch_size}, "
            f"lag={self.lag})"
        )


def window_by_count(
    stream: Iterable[SourceDocument], batch_size: int
) -> Iterator[DocumentBatch]:
    """Cut a stream into consecutive batches of ``batch_size`` documents."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    current = DocumentBatch()
    for document in stream:
        current.append(document)
        if len(current) == batch_size:
            yield current
            current = DocumentBatch()
    if len(current):
        yield current


def window_by_period(
    stream: Iterable[SourceDocument],
    period_of: Callable[[SourceDocument], object],
) -> Iterator[DocumentBatch]:
    """Cut a stream into batches sharing ``period_of(document)``.

    Documents must arrive period-ordered (true of harvested feeds); a
    change in the period value closes the current window.
    """
    current = DocumentBatch()
    current_period: Optional[object] = None
    for document in stream:
        period = period_of(document)
        if current_period is not None and period != current_period and len(current):
            yield current
            current = DocumentBatch()
        current_period = period
        current.append(document)
    if len(current):
        yield current
