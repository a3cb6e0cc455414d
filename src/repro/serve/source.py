"""Feed sources: following a growing trace file, plus a test double.

The daemon's input is a **line feed**: one non-negative rate per line in
plain text, ``#`` comments and blank lines skipped, and a final ``END``
line marking feed completion (the streaming predictor's truncated tail
windows only exist once the series end is known — see
:meth:`~repro.serve.engine.StreamingProvisioner.finalize`).

:class:`TailFileSource` follows the file like ``tail -f``: it remembers
its byte offset (checkpointed by the daemon, so a resume re-reads
nothing), treats a trailing line without a newline as *incomplete* (a
write in progress — wait, don't guess), and degrades typed on malformed
complete lines: each bad record becomes a
:class:`~repro.workload.trace.TraceIngestError` carrying the feed path,
line number and byte offset, returned to the caller rather than raised,
so one corrupt record never stops the stream.  Each complete line is
first handed to ``float()`` as bytes; only lines it refuses, and
negative or non-finite values, take the decode-strip-check path (see
:meth:`TailFileSource.poll` for why both paths agree).

:class:`MemorySource` replays a pre-chunked sample list — the property
tests' deterministic stand-in.

:func:`append_feed` is the producer-side helper (used by tests, the
serve smoke and the README quickstart); it honours the
``feed-torn-write`` fault site by leaving its final record half-written.
"""

from __future__ import annotations

import io
import math
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from .. import faults
from ..workload.trace import TraceIngestError

__all__ = [
    "FeedChunk",
    "TailFileSource",
    "MemorySource",
    "append_feed",
    "END_SENTINEL",
]

#: Feed-completion marker: a line holding exactly this token.
END_SENTINEL = "END"


class FeedChunk:
    """One poll's worth of feed: samples, rejected records, end flag."""

    __slots__ = ("samples", "rejected", "finished")

    def __init__(
        self,
        samples: List[float],
        rejected: List[TraceIngestError],
        finished: bool,
    ):
        self.samples = samples
        self.rejected = rejected
        self.finished = finished

    def __bool__(self) -> bool:
        return bool(self.samples or self.rejected or self.finished)


#: How many characters of a rejected line its error message quotes.
_QUOTE_CHARS = 64


def _quote(text: str, nbytes: int) -> str:
    """``text`` quoted for an error message, cut to ``_QUOTE_CHARS``."""
    if len(text) <= _QUOTE_CHARS:
        return repr(text)
    return f"{text[:_QUOTE_CHARS]!r}... ({nbytes}-byte line)"


def _parse_line(
    text: str, nbytes: int, path: Path, line_no: int, offset: int
) -> Tuple[Optional[float], Optional[TraceIngestError]]:
    """One stripped feed line of ``nbytes`` bytes -> (sample, None) |
    (None, typed error) | (None, None) for skippable lines."""
    if not text or text.startswith("#"):
        return None, None
    try:
        value = float(text)
    except ValueError:
        return None, TraceIngestError(
            f"{path}: malformed feed record {_quote(text, nbytes)} "
            f"(line {line_no}, byte offset {offset})"
        )
    if not (value == value) or value in (float("inf"), float("-inf")):
        return None, TraceIngestError(
            f"{path}: non-finite rate {_quote(text, nbytes)} "
            f"(line {line_no}, byte offset {offset})"
        )
    if value < 0:
        return None, TraceIngestError(
            f"{path}: negative rate {_quote(text, nbytes)} "
            f"(line {line_no}, byte offset {offset})"
        )
    return value, None


class TailFileSource:
    """Follow a growing line feed from a (checkpointable) byte offset."""

    def __init__(
        self,
        path: Union[str, Path],
        offset: int = 0,
        line_no: int = 0,
        name: str = "serve",
    ):
        self.path = Path(path)
        self.offset = int(offset)
        self.line_no = int(line_no)  # complete lines consumed (diagnostics)
        self.name = name
        self.finished = False
        self._polls = 0

    def state(self) -> dict:
        return {"offset": self.offset, "line_no": self.line_no}

    def poll(self) -> FeedChunk:
        """Read every *complete* line appended since the last poll.

        A torn trailing line (no newline yet) is left for a later poll;
        the offset only ever advances past complete lines.  A feed file
        shrinking below the offset is a producer bug the daemon cannot
        reason about — typed, raised.

        Each line's bytes go to ``float()`` first, and a value in
        ``[0, inf)`` is kept as is.  That is exact: ``float()`` on bytes
        accepts only ASCII syntax and strips only ASCII whitespace,
        which ``str.strip()`` removes too, so an accepted line decodes
        and strips to the text the slow path would parse to the same
        float.  Everything else — comments, blanks, ``END``, non-ASCII
        digits or spaces, malformed, negative or non-finite records —
        takes the slow path: decode, strip, check ``END``, then
        :func:`_parse_line`.
        """
        poll_index = self._polls
        self._polls += 1
        if self.finished:
            return FeedChunk([], [], True)
        if faults.check("feed-stall", self.name, attempt=poll_index):
            return FeedChunk([], [], False)  # the feed "produced" nothing
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            return FeedChunk([], [], False)  # producer not started yet
        if size < self.offset:
            raise TraceIngestError(
                f"{self.path}: feed truncated below byte offset "
                f"{self.offset} (now {size} bytes)"
            )
        if size == self.offset:
            return FeedChunk([], [], False)
        with open(self.path, "rb") as fh:
            fh.seek(self.offset)
            data = fh.read(size - self.offset)
        # An incomplete trailing record waits for its newline.
        end = data.rfind(b"\n") + 1
        if not end:
            return FeedChunk([], [], False)
        samples: List[float] = []
        rejected: List[TraceIngestError] = []
        keep = samples.append
        inf = math.inf
        lines = io.BytesIO(data[:end])
        for line_no, line in enumerate(lines, self.line_no + 1):
            try:
                value = float(line)
                if 0.0 <= value < inf:
                    keep(value)
                    continue
            except ValueError:
                pass
            text = line[:-1].decode("utf-8", errors="replace").strip()
            if text == END_SENTINEL:
                self.finished = True
                self.line_no = line_no
                self.offset += lines.tell()
                return FeedChunk(samples, rejected, True)
            line_offset = self.offset + lines.tell() - len(line)
            value, err = _parse_line(
                text, len(line) - 1, self.path, line_no, line_offset
            )
            if err is not None:
                rejected.append(err)
            elif value is not None:
                keep(value)
        self.line_no = line_no
        self.offset += end
        return FeedChunk(samples, rejected, False)


class MemorySource:
    """Replay pre-chunked samples — the deterministic test double.

    Each poll yields the next chunk; after the last chunk the source
    reports completion (``end=True``, the default) or keeps returning
    empty chunks like a stalled feed.
    """

    def __init__(
        self,
        chunks: Sequence[Sequence[float]],
        end: bool = True,
        name: str = "serve",
    ):
        self._chunks = [list(c) for c in chunks]
        self._end = end
        self._next = 0
        self.name = name
        self.finished = False
        self._polls = 0

    def state(self) -> dict:
        return {"offset": self._next, "line_no": self._next}

    def poll(self) -> FeedChunk:
        poll_index = self._polls
        self._polls += 1
        if self.finished:
            return FeedChunk([], [], True)
        if faults.check("feed-stall", self.name, attempt=poll_index):
            return FeedChunk([], [], False)
        if self._next < len(self._chunks):
            chunk = self._chunks[self._next]
            self._next += 1
            return FeedChunk(list(chunk), [], False)
        if self._end:
            self.finished = True
            return FeedChunk([], [], True)
        return FeedChunk([], [], False)


def append_feed(
    path: Union[str, Path],
    values: Sequence[float],
    end: bool = False,
    attempt: int = 0,
) -> int:
    """Append rate records (and optionally the ``END`` marker) to a feed.

    Returns the bytes written.  Honours the ``feed-torn-write`` fault
    site (keyed by the feed path): when armed, the final record of this
    call is cut in half mid-line with no newline — the torn write a
    crashed producer leaves behind.
    """
    path = Path(path)
    lines = [f"{float(v):.6f}\n" for v in values]
    if end:
        lines.append(END_SENTINEL + "\n")
    data = "".join(lines).encode("ascii")
    if lines and faults.check("feed-torn-write", str(path), attempt=attempt):
        keep = len(data) - len(lines[-1].encode("ascii")) // 2 - 1
        data = data[:max(keep, 0)]
    with open(path, "ab") as fh:
        fh.write(data)
        fh.flush()
    return len(data)
