"""Chunked, columnar, content-addressed on-disk range traces.

Every engine in the stack consumes *range traces* — parallel
``starts``/``sizes`` arrays — and until now a trace had to exist as one
in-memory numpy pair, capping trace length at RAM and forcing whole-array
pickling to reach worker processes.  This module is the streaming
alternative: a single flat file holding the trace as a sequence of
fixed-size **chunks**, each chunk two independently encoded columns,
plus a JSON footer index, so that

* writers stream a trace of any length in bounded memory
  (:class:`ChunkedTraceWriter` buffers one chunk);
* readers (:class:`ChunkedTrace`) hand out one chunk's arrays at a time —
  the whole file is mapped with ``mmap`` on open, and with the ``raw``
  codec a chunk read is one copy out of the map, with no inflate;
* worker processes attach by **path**: a job ships the file path plus the
  footer-indexed offsets (a few hundred bytes), not the arrays, and the
  OS page cache shares the backing pages across every attached process;
* content is verifiable: each chunk records a blake2b digest of its raw
  column bytes (checked on every read), and the trace as a whole gets a
  content identity composed from the chunk digests (checked against the
  footer on open).

File layout::

    MAGIC | chunk 0 blob | chunk 1 blob | ... | footer JSON | u64 len | MAGIC

Each chunk blob is the ``starts`` column followed by the ``sizes``
column, each either raw little-endian int64 bytes (codec ``raw``) or
zlib-compressed (codec ``zlib``, the default — range traces compress
3-6x).  The footer records, per chunk, the file offset, the encoded byte
length of each column, the range count, and the chunk digest.

Identity: :attr:`ChunkedTrace.digest` is a blake2b over the ordered
per-chunk digests and range counts.  Two files holding the same ranges in
the same chunk geometry share a digest regardless of codec; re-chunking
changes it (the digest addresses the *store object*, not the abstract
sequence — exact-sequence equality across geometries would need a full
decode anyway).  :attr:`ChunkedTrace.trace_id` formats it like
:func:`repro.cache.sweep.trace_digest` (``chunked=<24 hex>``) for use as
a checkpoint/store key.

Every malformed-file condition — truncation, flipped bytes, bad magic,
foreign JSON — surfaces as :class:`~repro.errors.TraceError` naming the
offending path.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import tempfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.errors import TraceError

#: Leading and trailing file magic (8 bytes each).
MAGIC = b"RPROCHT1"

#: Format version written into every footer.
FORMAT_VERSION = 1

#: Default ranges per chunk.  At int64 x 2 columns this is 4 MiB of raw
#: chunk payload — large enough that per-chunk engine overhead (carried
#: LRU state splicing, one value sort per batch) stays a few percent,
#: small enough that a reader's working set is trivially bounded.
DEFAULT_CHUNK_RANGES = 1 << 18

#: Column encodings.  ``zlib`` (default) trades a cheap inflate per read
#: for 3-6x smaller files; ``raw`` reads are zero-copy views of the mmap.
CODECS = ("zlib", "raw")

_COLUMNS = ("starts", "sizes")
_DTYPE = np.dtype("<i8")
_TAIL = struct.Struct("<Q8s")  # footer length + trailing magic


def _chunk_digest(starts_bytes: bytes, sizes_bytes: bytes) -> str:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(starts_bytes)
    digest.update(sizes_bytes)
    return digest.hexdigest()


def _combine_digests(chunks: list[dict]) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        digest.update(int(chunk["n"]).to_bytes(8, "little"))
        digest.update(bytes.fromhex(chunk["digest"]))
    return digest.hexdigest()


class ChunkedTraceWriter:
    """Stream a range trace into a chunked file in bounded memory.

    ``append`` accepts arrays of any length; full chunks are encoded and
    flushed as they fill, so writer residency is one chunk regardless of
    trace length.  ``close`` (or the context manager) writes the footer;
    an interrupted write leaves a file with no trailing magic, which
    :class:`ChunkedTrace` rejects as truncated.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        chunk_ranges: int = DEFAULT_CHUNK_RANGES,
        codec: str = "zlib",
    ):
        if chunk_ranges < 1:
            raise TraceError(
                f"chunk_ranges must be >= 1, got {chunk_ranges}"
            )
        if codec not in CODECS:
            raise TraceError(
                f"unknown chunk codec {codec!r}; expected one of {CODECS}"
            )
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.chunk_ranges = chunk_ranges
        self.codec = codec
        self._file = open(self.path, "wb")
        self._file.write(MAGIC)
        self._offset = len(MAGIC)
        self._chunks: list[dict] = []
        self._buf_starts: list[np.ndarray] = []
        self._buf_sizes: list[np.ndarray] = []
        self._buffered = 0
        self._closed = False

    # -- context manager ------------------------------------------------

    def __enter__(self) -> "ChunkedTraceWriter":
        return self

    def __exit__(self, exc_type, *exc: object) -> None:
        if exc_type is None:
            self.close()
        else:  # leave a recognizably truncated file, release the handle
            self._file.close()
            self._closed = True

    # -- writing --------------------------------------------------------

    def append(
        self,
        starts: Sequence[int] | np.ndarray,
        sizes: Sequence[int] | np.ndarray,
    ) -> None:
        """Append ranges; flushes every chunk that fills."""
        if self._closed:
            raise TraceError(f"{self.path}: writer is closed")
        starts_arr = np.ascontiguousarray(starts, dtype=_DTYPE)
        sizes_arr = np.ascontiguousarray(sizes, dtype=_DTYPE)
        if starts_arr.shape != sizes_arr.shape or starts_arr.ndim != 1:
            raise TraceError(
                "starts and sizes must be equal-length 1-d sequences"
            )
        if len(sizes_arr) and int(sizes_arr.min()) <= 0:
            bad = int(sizes_arr[sizes_arr <= 0][0])
            raise TraceError(f"range size must be positive, got {bad}")
        pos = 0
        total = len(starts_arr)
        while pos < total:
            take = min(self.chunk_ranges - self._buffered, total - pos)
            self._buf_starts.append(starts_arr[pos : pos + take])
            self._buf_sizes.append(sizes_arr[pos : pos + take])
            self._buffered += take
            pos += take
            if self._buffered == self.chunk_ranges:
                self._flush_chunk()

    def _flush_chunk(self) -> None:
        if not self._buffered:
            return
        starts = np.concatenate(self._buf_starts)
        sizes = np.concatenate(self._buf_sizes)
        self._buf_starts.clear()
        self._buf_sizes.clear()
        self._buffered = 0
        raw_starts = starts.tobytes()
        raw_sizes = sizes.tobytes()
        if self.codec == "zlib":
            enc_starts = zlib.compress(raw_starts, 1)
            enc_sizes = zlib.compress(raw_sizes, 1)
        else:
            enc_starts, enc_sizes = raw_starts, raw_sizes
        self._chunks.append(
            {
                "offset": self._offset,
                "n": len(starts),
                "nbytes": [len(enc_starts), len(enc_sizes)],
                "digest": _chunk_digest(raw_starts, raw_sizes),
            }
        )
        self._file.write(enc_starts)
        self._file.write(enc_sizes)
        self._offset += len(enc_starts) + len(enc_sizes)

    def close(self) -> Path:
        """Flush the partial chunk, write the footer, seal the file."""
        if self._closed:
            return self.path
        self._flush_chunk()
        footer = {
            "version": FORMAT_VERSION,
            "kind": "ranges",
            "codec": self.codec,
            "columns": list(_COLUMNS),
            "dtype": _DTYPE.str,
            "chunk_ranges": self.chunk_ranges,
            "n_ranges": sum(c["n"] for c in self._chunks),
            "digest": _combine_digests(self._chunks),
            "chunks": self._chunks,
        }
        blob = json.dumps(footer, separators=(",", ":")).encode()
        self._file.write(blob)
        self._file.write(_TAIL.pack(len(blob), MAGIC))
        self._file.flush()
        os.fsync(self._file.fileno())
        self._file.close()
        self._closed = True
        return self.path


def write_chunked(
    path: str | Path,
    starts: Sequence[int] | np.ndarray,
    sizes: Sequence[int] | np.ndarray,
    *,
    chunk_ranges: int = DEFAULT_CHUNK_RANGES,
    codec: str = "zlib",
) -> "ChunkedTrace":
    """Write one in-memory trace to a chunked file and open it back."""
    with ChunkedTraceWriter(
        path, chunk_ranges=chunk_ranges, codec=codec
    ) as writer:
        writer.append(starts, sizes)
    return ChunkedTrace(path)


@contextmanager
def spilled_trace(
    trace: "tuple[Sequence[int], Sequence[int]] | ChunkedTrace",
) -> Iterator["ChunkedTrace"]:
    """Yield ``trace`` as an open :class:`ChunkedTrace`, spilling if needed.

    This is how a trace reaches a worker process: jobs ship the file's
    ``(path, digest)`` and the worker maps it.  A ``ChunkedTrace`` passes
    through unchanged.  An in-memory ``(starts, sizes)`` pair is written
    to a temporary **one-chunk**, ``codec="raw"`` file, so a worker
    reads the whole trace in one verified chunk and runs the same single
    ``simulate`` call as the in-memory path.  The temporary file is
    unlinked on every exit path, including worker faults and exceptions.
    """
    if isinstance(trace, ChunkedTrace):
        yield trace
        return
    starts, sizes = trace
    fd, path = tempfile.mkstemp(prefix="repro-spill-", suffix=".rcht")
    os.close(fd)
    try:
        with write_chunked(
            path,
            starts,
            sizes,
            chunk_ranges=max(1, len(starts)),
            codec="raw",
        ) as ctrace:
            yield ctrace
    finally:
        os.unlink(path)


class ChunkedTrace:
    """Reader over a chunked trace file (mmap on attach).

    Cheap to construct (one mmap + one footer parse), picklable by path,
    safe to share across processes: workers receiving a
    :class:`ChunkedTrace` re-open the file on attach, so a job ships a
    path and the footer geometry instead of the arrays.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        try:
            self._file = open(self.path, "rb")
        except OSError as exc:
            raise TraceError(
                f"{self.path}: cannot open chunked trace: {exc}"
            ) from exc
        try:
            self._map: mmap.mmap | None = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
        except ValueError:  # zero-length file cannot be mapped
            self._map = None
        self._footer = self._load_footer()
        self.codec: str = self._footer["codec"]
        self.n_ranges: int = int(self._footer["n_ranges"])
        self.chunk_ranges: int = int(self._footer["chunk_ranges"])
        self._chunks: list[dict] = self._footer["chunks"]
        #: Exclusive cumulative range counts, chunk i covers
        #: [bounds[i], bounds[i+1]).
        self._bounds = np.concatenate(
            ([0], np.cumsum([c["n"] for c in self._chunks]))
        ).astype(np.int64)
        self.digest: str = self._footer["digest"]
        if self.digest != _combine_digests(self._chunks):
            raise TraceError(
                f"{self.path}: footer digest does not match chunk index "
                "(corrupt footer)"
            )

    # -- footer ---------------------------------------------------------

    def _load_footer(self) -> dict:
        data = self._map
        if data is None or len(data) < len(MAGIC) + _TAIL.size:
            raise TraceError(
                f"{self.path}: truncated chunked trace (no footer)"
            )
        if data[: len(MAGIC)] != MAGIC:
            raise TraceError(
                f"{self.path}: not a chunked trace file (bad magic)"
            )
        footer_len, tail_magic = _TAIL.unpack(data[-_TAIL.size :])
        if tail_magic != MAGIC:
            raise TraceError(
                f"{self.path}: truncated chunked trace (missing trailer)"
            )
        end = len(data) - _TAIL.size
        start = end - footer_len
        if start < len(MAGIC):
            raise TraceError(
                f"{self.path}: corrupt chunked trace (footer length "
                f"{footer_len} exceeds file)"
            )
        try:
            footer = json.loads(bytes(data[start:end]))
        except ValueError as exc:
            raise TraceError(
                f"{self.path}: corrupt chunked trace footer: {exc}"
            ) from exc
        if not isinstance(footer, dict) or footer.get("kind") != "ranges":
            raise TraceError(
                f"{self.path}: not a range-trace chunk store"
            )
        if footer.get("version") != FORMAT_VERSION:
            raise TraceError(
                f"{self.path}: unsupported chunk-store version "
                f"{footer.get('version')} (expected {FORMAT_VERSION})"
            )
        if footer.get("codec") not in CODECS:
            raise TraceError(
                f"{self.path}: unknown chunk codec {footer.get('codec')!r}"
            )
        try:
            for chunk in footer["chunks"]:
                offset = int(chunk["offset"])
                nbytes = sum(int(b) for b in chunk["nbytes"])
                if offset < len(MAGIC) or offset + nbytes > start:
                    raise TraceError(
                        f"{self.path}: chunk at offset {offset} extends "
                        "past the footer (truncated or corrupt index)"
                    )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(
                f"{self.path}: malformed chunk index: {exc}"
            ) from exc
        return footer

    # -- identity -------------------------------------------------------

    @property
    def trace_id(self) -> str:
        """Checkpoint/store identity (``chunked=<24 hex>``)."""
        return f"chunked={self.digest[:24]}"

    @property
    def n_chunks(self) -> int:
        return len(self._chunks)

    def __len__(self) -> int:
        return self.n_ranges

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChunkedTrace({str(self.path)!r}, ranges={self.n_ranges}, "
            f"chunks={self.n_chunks}, codec={self.codec!r})"
        )

    # -- pickling: re-open by path on attach ----------------------------

    def __getstate__(self) -> dict:
        return {"path": str(self.path), "digest": self.digest}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["path"])
        if self.digest != state["digest"]:
            raise TraceError(
                f"{self.path}: content changed between shipping and "
                f"attach (digest {self.digest[:12]}... != "
                f"{state['digest'][:12]}...)"
            )

    # -- reading --------------------------------------------------------

    def _column_bytes(self, index: int) -> tuple[bytes, bytes]:
        chunk = self._chunks[index]
        offset = int(chunk["offset"])
        n_starts, n_sizes = (int(b) for b in chunk["nbytes"])
        assert self._map is not None  # empty files have no chunks
        view = memoryview(self._map)
        enc_starts = view[offset : offset + n_starts]
        enc_sizes = view[offset + n_starts : offset + n_starts + n_sizes]
        if self.codec == "zlib":
            try:
                return zlib.decompress(enc_starts), zlib.decompress(enc_sizes)
            except zlib.error as exc:
                raise TraceError(
                    f"{self.path}: chunk {index} is corrupt "
                    f"(inflate failed: {exc})"
                ) from exc
        return bytes(enc_starts), bytes(enc_sizes)

    def chunk(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Decode one chunk into ``(starts, sizes)`` int64 arrays.

        The chunk digest is verified on every read, so a flipped byte
        anywhere in the payload raises :class:`~repro.errors.TraceError`
        instead of feeding garbage to a simulator.
        """
        if not 0 <= index < len(self._chunks):
            raise TraceError(
                f"{self.path}: chunk index {index} out of range "
                f"0..{len(self._chunks) - 1}"
            )
        raw_starts, raw_sizes = self._column_bytes(index)
        chunk = self._chunks[index]
        n = int(chunk["n"])
        if len(raw_starts) != n * _DTYPE.itemsize or len(
            raw_sizes
        ) != n * _DTYPE.itemsize:
            raise TraceError(
                f"{self.path}: chunk {index} payload length mismatch "
                "(truncated or corrupt)"
            )
        if _chunk_digest(raw_starts, raw_sizes) != chunk["digest"]:
            raise TraceError(
                f"{self.path}: chunk {index} digest mismatch "
                "(corrupt payload)"
            )
        starts = np.frombuffer(raw_starts, dtype=_DTYPE)
        sizes = np.frombuffer(raw_sizes, dtype=_DTYPE)
        return starts, sizes

    def iter_chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield every chunk's ``(starts, sizes)`` in trace order."""
        for index in range(len(self._chunks)):
            yield self.chunk(index)

    def window(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Ranges ``[lo, hi)`` of the trace, reading only covering chunks.

        This is the interval-sampling access path: a sampled run touches
        the handful of chunks its windows overlap, not the whole file.
        """
        if not 0 <= lo <= hi <= self.n_ranges:
            raise TraceError(
                f"{self.path}: window [{lo}, {hi}) outside trace of "
                f"{self.n_ranges} ranges"
            )
        if lo == hi:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        first = int(np.searchsorted(self._bounds, lo, side="right")) - 1
        last = int(np.searchsorted(self._bounds, hi, side="left"))
        starts_parts, sizes_parts = [], []
        for index in range(first, last):
            starts, sizes = self.chunk(index)
            base = int(self._bounds[index])
            a = max(0, lo - base)
            b = min(len(starts), hi - base)
            starts_parts.append(starts[a:b])
            sizes_parts.append(sizes[a:b])
        if len(starts_parts) == 1:
            return starts_parts[0], sizes_parts[0]
        return np.concatenate(starts_parts), np.concatenate(sizes_parts)

    def materialize(self) -> tuple[np.ndarray, np.ndarray]:
        """Decode the whole trace into memory (tests and small traces)."""
        if not self._chunks:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        return self.window(0, self.n_ranges)

    def verify(self) -> None:
        """Full streaming integrity check (every chunk digest)."""
        for index in range(len(self._chunks)):
            self.chunk(index)

    def close(self) -> None:
        """Release the mapping and file handle (reads fail afterwards)."""
        if self._map is not None:
            self._map.close()
            self._map = None
        self._file.close()

    def __enter__(self) -> "ChunkedTrace":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
