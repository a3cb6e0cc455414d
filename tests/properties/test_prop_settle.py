"""Bit-identity properties of the energy meter's settle.

The two-phase replay settles its ledger in two steps.  The journal walk
(:meth:`EnergyMeter.record_batch_windows`) turns journaled ``set_power``
transitions and window markers into per-machine pending streams, and the
fold (:meth:`EnergyMeter._fold`) adds each stream to its machine's
total, constant runs included.  Both must reproduce the per-second
``set_power`` chain float for float: the walk whatever mix of constant
(Python ``float``) and gathered (array) draw columns its windows carry,
the fold whatever the running total and the constant.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.energy import _FOLD_BLOCK, EnergyMeter

#: The property suites pin the bit-identity contracts cheaply; they are
#: part of the `quick` iteration subset (benchmarks/run_quick.py).
pytestmark = pytest.mark.quick

#: Constant draws, with repeats across kernels and a negative zero
#: (equal to ``0.0``, but a different draw).
CONSTS = (12.5, 97.25, 0.1, 3.0, 0.0, -0.0)

#: Journals at most this many seconds long are also replayed through a
#: per-second ``set_power`` meter; longer ones use the explicit chain.
PER_SECOND_MAX = 4000


def _hexes(mapping):
    return {key: float.hex(value) for key, value in mapping.items()}


@st.composite
def settle_journals(draw):
    """Kernels with evaluated windows, and a time-ordered journal.

    Returns ``(initial, journal, end)``: ``initial`` maps the
    machines powered before the journal opens to their power at ``t=0``,
    and ``journal`` holds ``("set", machine_id, power, now)`` transitions
    and ``("mark", bundle)`` markers, where ``bundle`` is what
    ``record_batch_windows``'s resolver returns.  Every marker of one
    kernel shares its ``draws`` tuple and ``inverse`` objects, and its
    offsets follow the kernel's markers in time order, as the evaluate
    pass lays them out, but for an occasional one-element skip.
    """
    mids = [f"m{i}" for i in range(draw(st.integers(2, 4)))]
    initial = {
        mid: draw(st.sampled_from(CONSTS + (40.0,)))
        for mid in draw(st.lists(st.sampled_from(mids), unique=True))
    }
    kernels = []
    for _ in range(draw(st.integers(1, 3))):
        members = tuple(
            draw(st.lists(st.sampled_from(mids), min_size=1, unique=True))
        )
        # ``None`` marks a gathered (array) column.
        kinds = [
            draw(st.one_of(st.none(), st.sampled_from(CONSTS)))
            for _ in members
        ]
        kernels.append((members, kinds))
    long_run = draw(st.booleans()) and draw(st.booleans())

    # Lay the visits out in time: each visit is one or more adjacent
    # markers of one kernel, with transitions between its markers (on
    # a window machine, mid-window) and between visits.
    t = draw(st.integers(0, 3))
    plan = []  # ("set", mid, power, now) | ("mark", kernel, n, t0)
    n_visits = draw(st.integers(1, 6))
    long_at = draw(st.integers(0, n_visits - 1)) if long_run else -1
    for v in range(n_visits):
        k = draw(st.integers(0, len(kernels) - 1))
        members = kernels[k][0]
        lengths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
        if v == long_at:
            lengths[0] = _FOLD_BLOCK + draw(st.integers(1, 400))
        for i, n in enumerate(lengths):
            if i:
                fracs = draw(st.lists(
                    st.sampled_from((0.0, 0.25, 0.5, 1.0)), max_size=2
                ))
                for frac in sorted(fracs):
                    plan.append((
                        "set", draw(st.sampled_from(members)),
                        draw(st.sampled_from(CONSTS + (55.0,))),
                        t - 1 + frac,
                    ))
            plan.append(("mark", k, n, t))
            t += n
        # Between visits: adjacent (no gap), or a gap with transitions.
        if draw(st.booleans()):
            gap = draw(st.integers(1, 5))
            fracs = draw(
                st.lists(st.sampled_from((0.0, 0.5, 1.0, 2.5)), max_size=3)
            )
            for frac in sorted(min(f, gap + 1) for f in fracs):
                plan.append((
                    "set", draw(st.sampled_from(mids)),
                    draw(st.sampled_from(CONSTS + (55.0,))),
                    t - 1 + frac,
                ))
            t += gap

    # Evaluate each kernel once over all its seconds, like the evaluate
    # pass: array columns are unique values plus one shared gather index
    # (or, without compression, the full series).
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    # Offsets normally follow each other; a skip leaves a kernel's next
    # marker adjacent in time but not in offset.
    skips = [draw(st.sampled_from((0, 0, 1))) for _ in plan]
    windows = []
    for k, (members, kinds) in enumerate(kernels):
        total = sum(
            e[2] + skip for e, skip in zip(plan, skips)
            if e[0] == "mark" and e[1] == k
        )
        n_unique = draw(st.integers(1, 6))
        compress = draw(st.booleans())
        inverse = rng.integers(0, n_unique, total) if compress else None
        size = n_unique if compress else total
        pool = rng.uniform(0.0, 500.0, n_unique)
        draws = tuple(
            pool[rng.integers(0, n_unique, size)] if c is None else c
            for c in kinds
        )
        windows.append([draws, inverse, 0])
    journal = []
    for e, skip in zip(plan, skips):
        if e[0] == "set":
            journal.append(e)
            continue
        _, k, n, t0 = e
        draws, inverse, off = windows[k]
        off += skip
        journal.append(("mark", (kernels[k][0], draws, inverse, off, n, t0)))
        windows[k][2] = off + n
    return initial, journal, t + 2


def _column(draw_, inverse, off, n):
    """A window's per-second series for one machine."""
    if type(draw_) is float:
        return np.full(n, draw_)
    if inverse is None:
        return draw_[off:off + n]
    return draw_[inverse[off:off + n]]


def _chain_totals(initial, journal, end):
    """Each machine's total as one explicit ``np.cumsum`` chain.

    The elements are exactly the terms the per-second ``set_power``
    chain adds: each transition's ``power * (now - since)``, and inside
    a window ``power * 1.0``, which is the previous second's power.
    """
    state = {mid: [p, 0.0] for mid, p in initial.items()}
    elements = {}

    def close(mid, now):
        rec = state.get(mid)
        if rec is not None:
            elements.setdefault(mid, []).append([rec[0] * (now - rec[1])])

    for entry in journal:
        if entry[0] == "set":
            _, mid, power, now = entry
            close(mid, now)
            state[mid] = [power, now]
            continue
        members, draws, inverse, off, n, t0 = entry[1]
        for mid, draw_ in zip(members, draws):
            series = _column(draw_, inverse, off, n)
            close(mid, t0)
            elements.setdefault(mid, []).append(series[:-1])
            state[mid] = [series[-1], t0 + n - 1]
    for mid in state:
        close(mid, end)
    return {
        mid: np.cumsum(np.concatenate([[0.0], *parts])).item(-1)
        for mid, parts in elements.items()
    }


def _per_second_totals(initial, journal, end):
    """The specification: one live ``set_power`` per machine per second."""
    meter = EnergyMeter()
    for mid, power in initial.items():
        meter.set_power(mid, power, 0.0)
    for entry in journal:
        if entry[0] == "set":
            meter.set_power(*entry[1:])
            continue
        members, draws, inverse, off, n, t0 = entry[1]
        for mid, draw_ in zip(members, draws):
            for k, power in enumerate(_column(draw_, inverse, off, n)):
                meter.set_power(mid, float(power), t0 + k)
    meter.finalize(end)
    return meter


def _walked(initial, journal, end):
    """The two-phase path: journal, walk, fold."""
    meter = EnergyMeter()
    for mid, power in initial.items():
        meter.set_power(mid, power, 0.0)
    bundles = []
    meter.begin_batch()
    for entry in journal:
        if entry[0] == "set":
            meter.set_power(*entry[1:])
        else:
            meter.batch_mark(len(bundles))
            bundles.append(entry[1])
    meter.record_batch_windows(bundles.__getitem__)
    meter.finalize(end)
    return meter


class TestJournalWalkProperty:
    @settings(max_examples=60, deadline=None)
    @given(settle_journals())
    def test_walk_matches_per_second_chain(self, case):
        """Windows mixing constant and gathered columns, several machines
        per marker, equal constants in consecutive windows of different
        kernels, consecutive markers of one window with transitions on a
        window machine between them, and runs longer than one fold
        block: every total equals the per-second chain's bit for bit."""
        initial, journal, end = case
        walked = _walked(initial, journal, end)
        want = _chain_totals(initial, journal, end)
        assert _hexes(walked._totals) == _hexes(want)
        seconds = sum(e[1][4] for e in journal if e[0] == "mark")
        if seconds <= PER_SECOND_MAX:
            spec = _per_second_totals(initial, journal, end)
            assert _hexes(spec._totals) == _hexes(want)
            assert _hexes(walked._power_now) == _hexes(spec._power_now)
            assert walked._since == spec._since

    def test_window_continues_only_at_the_next_offset(self):
        """Two markers of one window, adjacent in time but not in offset
        (one gathered element skipped): the second starts a new run."""
        draws = (np.array([1.0, 2.0, 4.0, 8.0, 16.0]),)
        journal = [
            ("mark", (("m",), draws, None, 0, 2, 0)),
            ("mark", (("m",), draws, None, 3, 2, 2)),
        ]
        walked = _walked({}, journal, 6)
        spec = _per_second_totals({}, journal, 6)
        assert _hexes(walked._totals) == _hexes(spec._totals)
        assert walked._power_now == spec._power_now == {"m": 16.0}

    def test_signed_zero_constants_stay_apart(self):
        """A ``-0.0`` column after an adjacent ``0.0`` one is a new run:
        the machine's power afterwards is the later zero, sign included."""
        journal = [
            ("mark", (("m",), (0.0,), None, 0, 3, 0)),
            ("mark", (("m",), (-0.0,), None, 0, 2, 3)),
        ]
        walked = _walked({}, journal, 5)
        spec = _per_second_totals({}, journal, 5)
        assert _hexes(walked._power_now) == _hexes(spec._power_now)
        assert float.hex(walked._power_now["m"]) == "-0x0.0p+0"


def _cumsum_repeat(s, c, n):
    """``s`` then ``n`` adds of ``c``, as one ``np.cumsum`` chain."""
    return float.hex(np.cumsum(np.r_[s, np.full(n, c)])[-1])


def _fold_repeat(s, c, n):
    return float.hex(EnergyMeter._fold(s, [(c, None, n)]))


#: Run lengths: short ones, the fold block's edges, and up to 10**6.
run_lengths = st.one_of(
    st.integers(1, 64),
    st.sampled_from(
        (_FOLD_BLOCK - 1, _FOLD_BLOCK, _FOLD_BLOCK + 1, 10**5, 10**6)
    ),
    st.integers(1, 10**6),
)


@st.composite
def binade_totals(draw):
    """``(s, u, e)``: a total ``s`` in ``[2**e, 2**(e+1))``, its ulp ``u``."""
    e = draw(st.integers(-30, 60))
    u = math.ldexp(1.0, e - 52)
    mantissa = draw(
        st.one_of(
            st.integers(2**52, 2**53 - 1),
            # the binade's top few floats
            st.integers(2**53 - 8, 2**53 - 1),
            st.sampled_from((2**52, 2**52 + 1)),
        )
    )
    return math.ldexp(float(mantissa), e - 52), u, e


class TestConstantRunProperty:
    """A constant run settles to the cumsum chain's last element."""

    @settings(max_examples=150, deadline=None)
    @given(binade_totals(), st.integers(0, 2**20), run_lengths)
    def test_ties_to_even(self, total, q, n):
        """``c = (q + 1/2) * ulp``: every add is a tie, rounded to even,
        from odd and even totals alike."""
        s, u, _ = total
        c = (q + 0.5) * u
        assert _fold_repeat(s, c, n) == _cumsum_repeat(s, c, n)

    @settings(max_examples=150, deadline=None)
    @given(
        binade_totals(),
        st.integers(0, 2**12),
        st.sampled_from((0.0, 0.125, 0.25, 0.499, 0.501, 0.75, 0.999)),
        run_lengths,
    )
    def test_non_tie_increments(self, total, q, frac, n):
        """``c = (q + frac) * ulp``: the same multiple of the ulp every
        step inside a binade, stepping across binade edges."""
        s, u, _ = total
        c = (q + frac) * u
        if c > 0.0:
            assert _fold_repeat(s, c, n) == _cumsum_repeat(s, c, n)

    @settings(max_examples=100, deadline=None)
    @given(
        binade_totals(),
        st.integers(1, 8),
        st.sampled_from((0.5, 1.0, 1.5, 2.0, 2.5, 3.0)),
        run_lengths,
    )
    def test_binade_tops(self, total, j, mult, n):
        """Totals just below ``2**(e+1)``, where the next adds cross into
        the binade whose ulp is twice as large."""
        _, u, e = total
        s = math.ldexp(1.0, e + 1) - j * u
        c = mult * u
        assert _fold_repeat(s, c, n) == _cumsum_repeat(s, c, n)

    @settings(max_examples=100, deadline=None)
    @given(
        binade_totals(),
        st.sampled_from((0.5, 0.25, 0.5 - 2**-20, 2**-30)),
        run_lengths,
    )
    def test_absorbed_increments(self, total, frac, n):
        """``c <= ulp/2``: every add is absorbed (a half-ulp tie only
        when the total is odd, and then once)."""
        s, u, _ = total
        c = frac * u
        assert _fold_repeat(s, c, n) == _cumsum_repeat(s, c, n)

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            st.just(0.0),
            st.just(-0.0),
            st.sampled_from((5e-324, 2.5e-308, 2.2250738585072014e-308)),
            st.sampled_from((math.inf, -math.inf, math.nan)),
            st.floats(-1e6, 1e12),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        st.one_of(
            st.just(0.0),
            st.just(-0.0),
            st.sampled_from((5e-324, 1e-310, 2.2250738585072014e-308)),
            st.sampled_from((math.inf, math.nan)),
            st.floats(0.0, 1e4),
            st.floats(0.0, 1e300),
        ),
        run_lengths,
    )
    def test_edge_inputs(self, s, c, n):
        """``s = 0``, ``c = 0``, negative totals, subnormal and
        non-finite values, and sums that overflow."""
        with np.errstate(over="ignore", invalid="ignore"):
            assert _fold_repeat(s, c, n) == _cumsum_repeat(s, c, n)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.0, 1e10),
        st.floats(0.0, 600.0),
        run_lengths,
        st.floats(0.0, 600.0),
    )
    def test_runs_between_other_pieces(self, s, c, n, x):
        """A run between scalar terms and a gathered window: the fold
        settles what precedes it before the run, in stream order."""
        values = np.array([x, c, 1.5])
        inverse = np.array([0, 2, 1, 1, 0])
        pieces = [x, (values, inverse, 5), (c, None, n), x, (c, None, 3)]
        chain = np.concatenate(
            [[s, x], values[inverse], np.full(n, c), [x], np.full(3, c)]
        )
        got = EnergyMeter._fold(s, pieces)
        assert float.hex(got) == float.hex(np.cumsum(chain)[-1])
