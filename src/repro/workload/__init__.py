"""Workload substrate: load traces, synthetic generators, sliding maxima.

The paper's scheduler consumes nothing but a per-second series of the
application performance metric.  This package provides the
:class:`~repro.workload.trace.LoadTrace` container, composable synthetic
patterns (:mod:`~repro.workload.patterns`), the World-Cup-98-shaped
generator used for the Fig. 5 reproduction
(:mod:`~repro.workload.worldcup`), and the sliding-window maxima the
look-ahead predictor is built on (:mod:`~repro.workload.sliding`).
"""

from .sliding import lookahead_max, trailing_max
from .trace import SECONDS_PER_DAY, LoadTrace, TraceError, TraceIngestError
from .wc98format import read_records, read_trace, records_to_trace, write_records
from .worldcup import PAPER_DAYS, MatchEvent, WorldCupSynthesizer, synthesize

__all__ = [
    "LoadTrace",
    "TraceError",
    "TraceIngestError",
    "SECONDS_PER_DAY",
    "lookahead_max",
    "trailing_max",
    "WorldCupSynthesizer",
    "MatchEvent",
    "synthesize",
    "PAPER_DAYS",
    "read_records",
    "read_trace",
    "records_to_trace",
    "write_records",
]
