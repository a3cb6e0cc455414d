"""Feed sources: tail-following, torn trailing lines, typed rejection
of malformed records, END sentinel, checkpointable offsets, and the
bytes-first parser pinned against the per-line loop it replaced."""

from __future__ import annotations

import struct
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import (
    END_SENTINEL,
    FeedChunk,
    MemorySource,
    TailFileSource,
    append_feed,
)
from repro.workload.trace import TraceIngestError

pytestmark = pytest.mark.quick


class TestTailFileSource:
    def test_missing_file_is_not_an_error(self, tmp_path):
        src = TailFileSource(tmp_path / "feed.txt")
        chunk = src.poll()
        assert chunk.samples == [] and not chunk.finished and not chunk

    def test_reads_appended_records_across_polls(self, tmp_path):
        feed = tmp_path / "feed.txt"
        src = TailFileSource(feed)
        append_feed(feed, [1.5, 2.5])
        assert src.poll().samples == [1.5, 2.5]
        append_feed(feed, [3.5])
        assert src.poll().samples == [3.5]
        assert src.poll().samples == []

    def test_trailing_line_without_newline_waits(self, tmp_path):
        feed = tmp_path / "feed.txt"
        feed.write_text("1.0\n2.")  # torn write in progress
        src = TailFileSource(feed)
        chunk = src.poll()
        assert chunk.samples == [1.0] and chunk.rejected == []
        with open(feed, "a") as fh:
            fh.write("5\n")  # the producer finishes the record
        assert src.poll().samples == [2.5]

    def test_comments_and_blanks_skipped(self, tmp_path):
        feed = tmp_path / "feed.txt"
        feed.write_text("# header\n\n 4.0 \n")
        assert TailFileSource(feed).poll().samples == [4.0]

    @pytest.mark.parametrize("bad", ["not-a-rate", "inf", "nan", "-3.0"])
    def test_malformed_record_rejected_typed_with_offsets(self, tmp_path, bad):
        feed = tmp_path / "feed.txt"
        feed.write_text(f"1.0\n{bad}\n2.0\n")
        chunk = TailFileSource(feed).poll()
        # The stream survives: good samples flow around the bad record.
        assert chunk.samples == [1.0, 2.0]
        assert len(chunk.rejected) == 1
        err = chunk.rejected[0]
        assert isinstance(err, TraceIngestError)
        assert "line 2" in str(err) and "byte offset 4" in str(err)
        assert str(feed) in str(err)

    def test_end_sentinel_finishes_feed(self, tmp_path):
        feed = tmp_path / "feed.txt"
        append_feed(feed, [1.0], end=True)
        src = TailFileSource(feed)
        chunk = src.poll()
        assert chunk.samples == [1.0] and chunk.finished
        assert src.poll().finished  # stays finished

    def test_truncated_feed_raises_typed(self, tmp_path):
        feed = tmp_path / "feed.txt"
        append_feed(feed, [1.0, 2.0])
        src = TailFileSource(feed)
        src.poll()
        feed.write_text("1.0\n")  # producer rewrote the file shorter
        with pytest.raises(TraceIngestError, match="truncated below"):
            src.poll()

    def test_state_round_trip_reads_nothing_twice(self, tmp_path):
        feed = tmp_path / "feed.txt"
        append_feed(feed, [1.0, 2.0])
        src = TailFileSource(feed)
        src.poll()
        state = src.state()
        append_feed(feed, [3.0], end=True)
        resumed = TailFileSource(feed, **state)
        chunk = resumed.poll()
        assert chunk.samples == [3.0] and chunk.finished


# -- the per-line loop the bytes-first parser replaced -------------------
# Kept verbatim as the reference (``_parse_line`` renamed): decode every
# line, strip it, check END, then parse the text.


def _reference_parse_line(
    raw: str, path: Path, line_no: int, offset: int
) -> Tuple[Optional[float], Optional[TraceIngestError]]:
    """One complete feed line -> (sample, None) | (None, typed error) |
    (None, None) for skippable lines."""
    text = raw.strip()
    if not text or text.startswith("#"):
        return None, None
    try:
        value = float(text)
    except ValueError:
        return None, TraceIngestError(
            f"{path}: malformed feed record {text!r} "
            f"(line {line_no}, byte offset {offset})"
        )
    if not (value == value) or value in (float("inf"), float("-inf")):
        return None, TraceIngestError(
            f"{path}: non-finite rate {text!r} "
            f"(line {line_no}, byte offset {offset})"
        )
    if value < 0:
        return None, TraceIngestError(
            f"{path}: negative rate {text!r} "
            f"(line {line_no}, byte offset {offset})"
        )
    return value, None


class _ReferenceTail:
    def __init__(self, path: Path):
        self.path = path
        self.offset = 0
        self.line_no = 0
        self.finished = False

    def state(self) -> dict:
        return {"offset": self.offset, "line_no": self.line_no}

    def poll(self) -> FeedChunk:
        if self.finished:
            return FeedChunk([], [], True)
        size = self.path.stat().st_size
        if size == self.offset:
            return FeedChunk([], [], False)
        with open(self.path, "rb") as fh:
            fh.seek(self.offset)
            data = fh.read(size - self.offset)
        samples: List[float] = []
        rejected: List[TraceIngestError] = []
        pos = 0
        while True:
            nl = data.find(b"\n", pos)
            if nl < 0:
                break  # incomplete trailing record: wait for its newline
            raw = data[pos:nl].decode("utf-8", errors="replace")
            line_offset = self.offset + pos
            pos = nl + 1
            self.line_no += 1
            if raw.strip() == END_SENTINEL:
                self.finished = True
                self.offset += pos
                return FeedChunk(samples, rejected, True)
            value, err = _reference_parse_line(
                raw, self.path, self.line_no, line_offset
            )
            if err is not None:
                rejected.append(err)
            elif value is not None:
                samples.append(value)
        self.offset += pos
        return FeedChunk(samples, rejected, False)


#: Line fragments: valid numbers in every spelling ``float`` takes,
#: values out of range, malformed text, comments, blanks, END variants,
#: whitespace ``float`` on bytes strips or refuses, and non-ASCII bytes
#: (invalid UTF-8, Arabic-Indic and fullwidth digits, NBSP, em space).
_FRAGMENTS = [
    b"1.000000", b"0", b"42", b"3e2", b".5", b"5.", b"+7", b"1_000",
    b"0.0", b"-0.0", b"1e-320", b"1.7976931348623157e308",
    b"nan", b"-nan", b"inf", b"-inf", b"Infinity", b"1e400", b"-1e400",
    b"-3.0", b"-1", b"1__0", b"_1", b"1_", b"abc", b"1.0.0", b"0x10",
    b"1,5", b"#", b"# comment", b"", b" ", b"\t", b"\r", b"\x0b",
    b"\x0c", b"\x1c", b"\x1f", b"END", b" END ", b"end", b"\x00",
    b"\xff", b"\xe2\x82", b"\xd9\xa1\xd9\xa2", b"\xef\xbc\x91",
    b"\xc2\xa0", b"\xe2\x80\x83", b"\xc2\x85",
]
_LINE = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=3).map(b"".join),
    st.sampled_from([b"END", b"\tEND\r"]),  # END mid-chunk, lines after
)


def _view(chunk: FeedChunk):
    """A chunk as comparable data; samples bitwise, so -0.0 keeps its sign."""
    return (
        [struct.pack("<d", v) for v in chunk.samples],
        [str(e) for e in chunk.rejected],
        chunk.finished,
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bytes_first_parser_matches_reference_loop(data):
    lines = data.draw(st.lists(_LINE, max_size=40))
    feed = b"".join(line + b"\n" for line in lines)
    feed += data.draw(_LINE)  # a torn tail when non-empty
    cuts = data.draw(st.lists(st.integers(0, len(feed)), max_size=6))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "feed.txt"
        path.write_bytes(b"")
        new, ref = TailFileSource(path), _ReferenceTail(path)
        done = 0
        for cut in sorted(cuts) + [len(feed)]:
            with open(path, "ab") as fh:
                fh.write(feed[done:cut])
            done = cut
            assert _view(new.poll()) == _view(ref.poll())
            assert new.state() == ref.state()
            assert new.finished == ref.finished


class TestMemorySource:
    def test_replays_chunks_then_ends(self):
        src = MemorySource([[1.0, 2.0], [], [3.0]])
        assert src.poll().samples == [1.0, 2.0]
        assert src.poll().samples == []
        assert src.poll().samples == [3.0]
        assert src.poll().finished
        assert src.poll().finished

    def test_end_false_stalls_instead(self):
        src = MemorySource([[1.0]], end=False)
        src.poll()
        chunk = src.poll()
        assert not chunk.finished and chunk.samples == []


class TestAppendFeed:
    def test_end_flag_writes_sentinel(self, tmp_path):
        feed = tmp_path / "feed.txt"
        append_feed(feed, [], end=True)
        assert feed.read_text() == END_SENTINEL + "\n"

    def test_returns_bytes_written(self, tmp_path):
        feed = tmp_path / "feed.txt"
        n = append_feed(feed, [1.0])
        assert n == feed.stat().st_size == len("1.000000\n")
