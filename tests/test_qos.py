"""QoS elements against hand arithmetic and brute-force 1 ns-tick oracles."""

import random

import pytest

from dsnetsim.qos import (
    RED_MEAN_PKT_TIME_NS, TOKEN_SCALE, ClassQueue, Color, QosConfigError, RedParams,
    RedState, SrtcmMeter, SrtcmParams, TokenBucket,
    QosProfile, default_red_params, strict_priority_select,
)
from dsnetsim.rng import PURPOSE_RED


# --------------------------------------------------------------------------
# token bucket

def test_refill_caps_at_capacity():
    # tokens=200, C=700, r=100 B/s, dt=5 s -> 200+500 then cap at 700
    st = []
    b = TokenBucket(700, 100, st)
    st[b.i] = 200 * TOKEN_SCALE
    b.refill(st, 5 * 10**9)
    assert st[b.i] == 700 * TOKEN_SCALE


def test_zero_dt_is_identity():
    st = []
    b = TokenBucket(700, 100, st)
    st[b.i] = 123456789
    b.refill(st, 0)
    assert st[b.i] == 123456789


def test_full_bucket_stays_full():
    st = []
    b = TokenBucket(700, 100, st)
    b.refill(st, 10**12)
    assert st[b.i] == 700 * TOKEN_SCALE


def test_take_success_and_shortfall():
    st = []
    b = TokenBucket(1000, 100, st)
    assert b.take(st, 600)
    assert st[b.i] == 400 * TOKEN_SCALE
    assert not b.take(st, 500)
    assert st[b.i] == 400 * TOKEN_SCALE


def test_earliest_ready_arithmetic():
    # tokens=0, r=1000 B/s, needed=500 -> now + 5*10^8 ns
    st = []
    b = TokenBucket(1000, 1000, st)
    st[b.i] = 0
    assert b.earliest_ready_ns(st, 500, now_ns=0) == 5 * 10**8
    assert b.earliest_ready_ns(st, 500, now_ns=7) == 7 + 5 * 10**8


def test_earliest_ready_boundary_is_now():
    st = []
    b = TokenBucket(1000, 1000, st)
    st[b.i] = 500 * TOKEN_SCALE
    assert b.earliest_ready_ns(st, 500, now_ns=42) == 42


def test_earliest_ready_rounds_a_partial_nanosecond_up():
    # a 1-byte deficit at 3 B/s takes 333,333,333.3 ns: the bucket holds
    # the packet's tokens only from the next whole nanosecond on
    st = []
    b = TokenBucket(1000, 3, st)
    st[b.i], st[b.i + 1] = 499 * TOKEN_SCALE, 10  # refilled at t = 10
    ready = b.earliest_ready_ns(st, 500, now_ns=10)
    assert ready == 10 + 333_333_334
    early = st.copy()
    b.refill(early, ready - 1)
    assert not b.take(early, 500)
    b.refill(st, ready)
    assert b.take(st, 500)


def test_oversized_request_is_config_error():
    st = []
    b = TokenBucket(1000, 1000, st)
    with pytest.raises(QosConfigError):
        b.earliest_ready_ns(st, 1001, now_ns=0)


def test_periodic_refill_amount():
    # tokens=0, r=10^9 B/s, interval=10^3 ns -> 1000 bytes
    st = []
    b = TokenBucket(10**6, 10**9, st)
    st[b.i] = 0
    b.add_scaled(st, 10**9 * 10**3)
    assert st[b.i] == 1000 * TOKEN_SCALE


def test_periodic_refill_caps():
    st = []
    b = TokenBucket(1000, 10**9, st)
    b.add_scaled(st, 10**9 * 10**6)
    assert st[b.i] == 1000 * TOKEN_SCALE


def test_elements_append_their_numbers_after_what_the_list_holds():
    st = ["x"]
    b = TokenBucket(700, 100, st)
    m = SrtcmMeter(SrtcmParams(100, 2000, 3000), st)
    q = ClassQueue(1000, st)
    r = RedState(RedParams(100, 200, 0.1), st)
    assert [b.i, m.i, q.i, r.i] == [1, 3, 6, 8]
    assert st == ["x", 700 * TOKEN_SCALE, 0, 2000 * TOKEN_SCALE, 3000 * TOKEN_SCALE, 0,
                  0, 0, 0.0, 0]


class TickBucket:
    """Eager 1 ns-stepped reference bucket (the brute-force oracle)."""

    def __init__(self, capacity_bytes, rate_Bps, start_full=True):
        self.cap = capacity_bytes * TOKEN_SCALE
        self.rate = rate_Bps
        self.tokens = self.cap if start_full else 0
        self.now = 0

    def advance_to(self, t):
        while self.now < t:
            self.tokens = min(self.cap, self.tokens + self.rate)
            self.now += 1

    def take(self, size_bytes):
        need = size_bytes * TOKEN_SCALE
        if self.tokens >= need:
            self.tokens -= need
            return True
        return False


def test_lazy_refill_matches_tick_oracle_bit_for_bit():
    rnd = random.Random(1234)
    st = []
    lazy = TokenBucket(4000, 777, st)
    st[lazy.i] = 0
    oracle = TickBucket(4000, 777, start_full=False)
    now = 0
    for _ in range(3000):
        now += rnd.randint(0, 50)
        lazy.refill(st, now)
        oracle.advance_to(now)
        assert st[lazy.i] == oracle.tokens
        size = rnd.randint(1, 2000)
        assert lazy.take(st, size) == oracle.take(size)
        assert st[lazy.i] == oracle.tokens
        assert 0 <= st[lazy.i] <= lazy.capacity_bytes * TOKEN_SCALE


# --------------------------------------------------------------------------
# srTCM

def test_srtcm_green_consumes_committed():
    st = []
    m = SrtcmMeter(SrtcmParams(100, 2000, 2000), st)
    st[m.i + 1] = 0
    assert m.mark(st, 1400, 0) == Color.GREEN
    assert st[m.i] == 600 * TOKEN_SCALE


def test_srtcm_yellow_consumes_excess():
    st = []
    m = SrtcmMeter(SrtcmParams(100, 1000, 1500), st)
    assert m.mark(st, 1400, 0) == Color.YELLOW
    assert st[m.i] == 1000 * TOKEN_SCALE
    assert st[m.i + 1] == 100 * TOKEN_SCALE


def test_srtcm_red_leaves_buckets_unchanged():
    st = []
    m = SrtcmMeter(SrtcmParams(100, 1000, 1000), st)
    st[m.i] = 0
    st[m.i + 1] = 0
    st[m.i + 2] = 5
    assert m.mark(st, 1, 5) == Color.RED
    assert st[m.i] == 0 and st[m.i + 1] == 0


def test_srtcm_colors_at_the_exact_token_boundary():
    """RFC 2697: a packet is GREEN when the committed tokens are at least its
    size, else YELLOW when the excess tokens are. Refills bring each bucket
    to exactly the packet's size: 700 B of tokens fill the 200 B committed
    bucket and spill 500 B into the excess one."""
    st = []
    m = SrtcmMeter(SrtcmParams(100, 200, 1000), st)
    st[m.i] = st[m.i + 1] = 0
    assert m.mark(st, 500, 7 * 10**9) == Color.YELLOW
    assert st[m.i] == 200 * TOKEN_SCALE and st[m.i + 1] == 0
    assert m.mark(st, 200, 7 * 10**9) == Color.GREEN
    assert st[m.i] == 0 and st[m.i + 1] == 0


class TickSrtcm:
    """Eager 1 ns-stepped srTCM reference: cir feeds tc, overflow spills te."""

    def __init__(self, params):
        self.p = params
        self.tc = params.cbs_bytes * TOKEN_SCALE
        self.te = params.ebs_bytes * TOKEN_SCALE
        self.now = 0

    def advance_to(self, t):
        cbs = self.p.cbs_bytes * TOKEN_SCALE
        ebs = self.p.ebs_bytes * TOKEN_SCALE
        while self.now < t:
            new_tc = min(cbs, self.tc + self.p.cir_Bps)
            spill = self.p.cir_Bps - (new_tc - self.tc)
            self.tc = new_tc
            self.te = min(ebs, self.te + spill)
            self.now += 1

    def mark(self, size):
        need = size * TOKEN_SCALE
        if self.tc >= need:
            self.tc -= need
            return Color.GREEN
        if self.te >= need:
            self.te -= need
            return Color.YELLOW
        return Color.RED


def test_srtcm_matches_tick_oracle():
    rnd = random.Random(99)
    params = SrtcmParams(cir_Bps=321, cbs_bytes=3000, ebs_bytes=5000)
    st = []
    lazy = SrtcmMeter(params, st)
    oracle = TickSrtcm(params)
    now = 0
    for _ in range(3000):
        now += rnd.randint(0, 40)
        oracle.advance_to(now)
        size = rnd.randint(1, 2500)
        assert lazy.mark(st, size, now) == oracle.mark(size)
        assert st[lazy.i] == oracle.tc
        assert st[lazy.i + 1] == oracle.te


# --------------------------------------------------------------------------
# class queues / strict priority

class _P:
    def __init__(self, size):
        self.size = size


def _queue_with_bytes(st, nbytes, capacity=64 * 1024):
    """A queue whose numbers are appended to ``st``, holding one packet of
    ``nbytes`` (none for 0); returns the queue and its packet list."""
    q = ClassQueue(capacity, st)
    packets = []
    if nbytes:
        q.push(st, packets, _P(nbytes))
    return q, packets


def test_strict_priority_picks_first_non_empty():
    st = []
    pkts = [_queue_with_bytes(st, n)[1] for n in (0, 300, 100)]
    assert strict_priority_select(pkts) == 1


def test_strict_priority_all_empty():
    assert strict_priority_select([_queue_with_bytes([], 0)[1]] * 3) is None


def test_strict_priority_class_zero_wins():
    st = []
    pkts = [_queue_with_bytes(st, n)[1] for n in (10, 300)]
    assert strict_priority_select(pkts) == 0


def test_queue_byte_bound():
    st = []
    q = ClassQueue(1000, st)
    assert q.fits(st, 1000)
    assert not q.fits(st, 1001)
    q.push(st, [], _P(600))
    assert q.fits(st, 400)
    assert not q.fits(st, 401)


# --------------------------------------------------------------------------
# early-drop (RED)

class StubRng:
    """Stands in for an LP's ``CursorRng``: every draw is ``value``, and
    ``calls`` records the (purpose, cursor) of each draw taken."""

    def __init__(self, value=0.5):
        self.value = value
        self.calls = []

    def uniform_at(self, purpose, cursor):
        self.calls.append((purpose, cursor))
        return self.value


def test_red_below_min_always_enqueues():
    st = []
    s = RedState(RedParams(5000, 15000, 0.1), st)
    q, _ = _queue_with_bytes(st, 100)
    for i in range(50):
        assert s.decide(st, q, q.fits(st, 100), i + 1, StubRng(0.0), i) is True
    assert st[s.i + 1] == 0


def test_red_at_or_above_max_always_drops():
    st = []
    s = RedState(RedParams(5000, 15000, 0.1), st)
    st[s.i] = 20000.0
    q, _ = _queue_with_bytes(st, 20000, capacity=64 * 1024)
    for i in range(50):
        assert s.decide(st, q, q.fits(st, 100), i + 1, StubRng(0.999), i) is False


def test_red_worked_example_drops():
    # min=5000, max=15000, max_p=0.1, avg'=10000, count=0, rand=0.04:
    # p_b = 0.1 * (10000-5000)/(15000-5000) = 0.05; count=0 -> p_a = p_b;
    # rand < p_a (0.04 < 0.05) -> Drop
    w = 0.002
    st = []
    s = RedState(RedParams(5000, 15000, 0.1, weight=w), st)
    st[s.i] = 10000.0
    q, _ = _queue_with_bytes(st, 10000)  # EWMA fixpoint keeps avg' = 10000
    rng = StubRng(0.04)
    assert s.decide(st, q, q.fits(st, 100), 10, rng, 7) is False
    assert rng.calls == [(PURPOSE_RED, 7)]  # the draw at the arrival's cursor
    assert st[s.i] == pytest.approx(10000.0)
    assert st[s.i + 1] == 0


def test_red_full_queue_forces_drop():
    st = []
    s = RedState(RedParams(5000, 15000, 0.1), st)
    q, _ = _queue_with_bytes(st, 900, capacity=1000)
    assert s.decide(st, q, q.fits(st, 200), 1, StubRng(0.999), 0) is False


def test_red_count_raises_drop_probability():
    # p_a = p_b / (1 - count*p_b) grows with the enqueue streak
    p = RedParams(5000, 15000, 0.1, weight=0.002)
    probs = []
    for count in (0, 5, 9):
        # find the decision boundary by bisection on rand
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = (lo + hi) / 2
            st = []
            q, _ = _queue_with_bytes(st, 10000)
            t = RedState(p, st)
            st[t.i] = 10000.0
            st[t.i + 1] = count
            if not t.decide(st, q, q.fits(st, 100), 1, StubRng(mid), 0):
                lo = mid
            else:
                hi = mid
        probs.append(lo)
    assert probs[0] < probs[1] < probs[2]


def test_red_matches_formula_oracle():
    rnd = random.Random(5)
    p = RedParams(2000, 8000, 0.2, weight=0.01)
    st = []
    s = RedState(p, st)
    q = ClassQueue(16 * 1024, st)
    packets = []

    avg = 0.0
    count = 0
    now = 0
    for _ in range(4000):
        now += rnd.randint(1, 400)
        size = rnd.randint(200, 1500)
        rand = rnd.random()
        # independent reference computation
        byte_length, empty_since_ns = st[q.i], st[q.i + 1]
        if byte_length + size > q.capacity_bytes:
            expect = False
            count = 0
        else:
            if byte_length == 0 and now > empty_since_ns:
                avg *= (1.0 - p.weight) ** ((now - empty_since_ns) / RED_MEAN_PKT_TIME_NS)
            avg = (1.0 - p.weight) * avg + p.weight * byte_length
            if avg < p.min_th_bytes:
                expect, count = True, 0
            elif avg >= p.max_th_bytes:
                expect, count = False, 0
            else:
                p_b = p.max_p * (avg - p.min_th_bytes) / (p.max_th_bytes - p.min_th_bytes)
                denom = 1.0 - count * p_b
                p_a = 1.0 if denom <= 0 else min(1.0, p_b / denom)
                if rand < p_a:
                    expect, count = False, 0
                else:
                    expect, count = True, count + 1
        got = s.decide(st, q, q.fits(st, size), now, StubRng(rand), 0)
        assert got is expect
        assert st[s.i] == pytest.approx(avg, abs=1e-9)
        assert st[s.i + 1] == count
        if got:
            q.push(st, packets, _P(size))
        # random service keeps the queue moving
        while packets and rnd.random() < 0.5:
            q.pop(st, packets, now)


@pytest.mark.parametrize("idle_ns", [0, 1, 250, 10**9])
def test_red_idle_shortcut_leaves_what_the_full_path_leaves(idle_ns):
    # a queue that has never held a byte: the average is 0.0, and the decay
    # and the EWMA, computed here as decide's full path computes them,
    # leave it at 0.0, below min_th, so the packet is enqueued
    p = RedParams(1, 15000, 0.1, weight=0.002)
    st = []
    s = RedState(p, st)
    q = ClassQueue(64 * 1024, st)
    st[q.i + 1] = 500
    now = 500 + idle_ns
    avg = st[s.i]
    if now > st[q.i + 1]:
        avg *= (1.0 - p.weight) ** (idle_ns / RED_MEAN_PKT_TIME_NS)
    avg = (1.0 - p.weight) * avg + p.weight * st[q.i]
    assert avg == 0.0 and avg < p.min_th_bytes
    rng = StubRng()
    for _ in range(3):
        assert s.decide(st, q, q.fits(st, 1400), now, rng, 0) is True
        assert st[s.i] == avg and type(st[s.i]) is float
        assert st[s.i + 1] == 0
    assert rng.calls == []  # no random value is drawn


def test_red_with_min_th_zero_runs_the_full_path_on_an_idle_queue():
    # avg 0.0 is not below a min_th of 0, so the decision is by chance
    # (at p_a = 0): the draw is taken and the enqueue streak grows
    st = []
    s = RedState(RedParams(0, 15000, 0.1), st)
    q = ClassQueue(64 * 1024, st)
    rng = StubRng(0.5)
    for n in range(1, 4):
        assert s.decide(st, q, q.fits(st, 1400), n * 1000, rng, n) is True
        assert st[s.i + 1] == n
    assert rng.calls == [(PURPOSE_RED, 1), (PURPOSE_RED, 2), (PURPOSE_RED, 3)]
    assert st[s.i] == 0.0


def test_red_on_a_drained_queue_takes_the_decay_path():
    p = RedParams(5000, 15000, 0.1, weight=0.002)
    st = []
    s = RedState(p, st)
    q = ClassQueue(64 * 1024, st)
    packets = []
    q.push(st, packets, _P(1400))
    rng = StubRng()
    assert s.decide(st, q, q.fits(st, 1400), 100, rng, 0) is True
    held = st[s.i]
    assert held == p.weight * 1400
    q.pop(st, packets, 200)  # the queue drains at 200 ns
    now = 5_200
    decayed = held * (1.0 - p.weight) ** ((now - 200) / RED_MEAN_PKT_TIME_NS)
    expect = (1.0 - p.weight) * decayed + p.weight * 0
    assert s.decide(st, q, q.fits(st, 1400), now, rng, 1) is True
    assert st[s.i] == expect
    assert 0.0 < st[s.i] < (1.0 - p.weight) * held
    assert rng.calls == []  # no random value is drawn


def test_red_param_validation():
    with pytest.raises(QosConfigError):
        RedParams(100, 100, 0.1)
    with pytest.raises(QosConfigError):
        RedParams(100, 200, 1.5)
    with pytest.raises(QosConfigError):
        RedParams(100, 200, 0.1, weight=0.0)


# --------------------------------------------------------------------------
# classifier: the profile's table of the class of each DS value

def test_classifier_lookup_and_default():
    classes = QosProfile({46: 0, 26: 1, 0: 2}, default_class=2, num_classes=3).classes
    assert classes[46] == 0
    assert classes[26] == 1
    assert classes[0] == 2
    assert classes[33] == 2  # unmapped -> default


def test_classifier_covers_all_ds_values():
    classes = QosProfile({46: 0, 26: 1, 0: 2}, default_class=2, num_classes=3).classes
    assert len(classes) == 64
    assert set(classes) <= {0, 1, 2}


def test_classifier_validation():
    with pytest.raises(QosConfigError, match="DS value 64 out of range"):
        QosProfile({64: 0}, 0, 3)
    with pytest.raises(QosConfigError, match="class 3 out of range"):
        QosProfile({0: 3}, 0, 3)
    with pytest.raises(QosConfigError, match="default class out of range"):
        QosProfile({}, 5, 3)


@pytest.mark.parametrize("num_classes, ef, other", [(1, 0, 0), (2, 0, 1)])
def test_default_classifier_fits_one_or_two_classes(num_classes, ef, other):
    """The default map is capped at the last class: one class takes every DS
    value, and two send DS 46 to class 0 and the rest to class 1."""
    classes = QosProfile(num_classes=num_classes).classes
    assert classes[46] == ef
    assert set(classes[:46] + classes[47:]) == {other}


def test_default_classifier_of_three_classes_is_unchanged():
    classes = QosProfile(num_classes=3).classes
    assert (classes[46], classes[26], classes[0], classes[33]) == (0, 1, 2, 2)


def test_a_classifier_class_out_of_range_names_the_ds_value_and_the_classes():
    with pytest.raises(QosConfigError,
                       match=r"^DS value 26: class 2 out of range, the classes are 0\.\.1$"):
        QosProfile({46: 0, 26: 2}, num_classes=2)


# --------------------------------------------------------------------------
# profile


@pytest.mark.parametrize("kwargs, name", [
    (dict(srtcm=[SrtcmParams(10**6, 2000, 3000)] * 2), "srtcm"),
], ids=["two-srtcm-for-three-classes"])
def test_profile_lists_need_one_entry_per_class(kwargs, name):
    # a short list would build and then fail the run with IndexError; red
    # is given per color for every class, so only srtcm is a per-class list
    with pytest.raises(QosConfigError, match=rf"^{name} list must have one entry per class$"):
        QosProfile(**kwargs)


def test_red_row_applies_to_every_class():
    """``red`` gives each color's dropper once, for every class; a color it
    leaves out takes the default for the queue capacity."""
    green = RedParams(100, 200, 0.5)
    profile = QosProfile(red={Color.GREEN: green})
    assert profile.num_classes == 3
    defaults = [default_red_params(profile.queues[0].capacity_bytes, c) for c in Color]
    assert [[r.params for r in row] for row in profile.red] == [[green, *defaults[1:]]] * 3
    # one dropper, with its own numbers, per (class, color)
    offsets = [r.i for row in profile.red for r in row]
    assert len(set(offsets)) == 9


def test_red_keys_must_be_colors():
    with pytest.raises(QosConfigError, match=r"^red keys must be colors"):
        QosProfile(red={"green": RedParams(100, 200, 0.5)})
