"""QoS elements against hand arithmetic and brute-force 1 ns-tick oracles."""

import random

import pytest

from dsnetsim.qos import (
    TOKEN_SCALE, Classifier, ClassQueue, Color, QosConfigError, RedParams,
    RedState, SrtcmMeter, SrtcmParams, TokenBucket, DROP, ENQUEUE,
    periodic_refill_amount_scaled, strict_priority_select,
)


# --------------------------------------------------------------------------
# token bucket

def test_refill_caps_at_capacity():
    # tokens=200, C=700, r=100 B/s, dt=5 s -> 200+500 then cap at 700
    b = TokenBucket(700, 100, start_full=False)
    b.tokens_scaled = 200 * TOKEN_SCALE
    b.refill(5 * 10**9)
    assert b.tokens == 700


def test_zero_dt_is_identity():
    b = TokenBucket(700, 100)
    b.tokens_scaled = 123456789
    b.refill(0)
    assert b.tokens_scaled == 123456789


def test_full_bucket_stays_full():
    b = TokenBucket(700, 100)
    b.refill(10**12)
    assert b.tokens == 700


def test_take_success_and_shortfall():
    b = TokenBucket(1000, 100)
    assert b.take(600)
    assert b.tokens == 400
    assert not b.take(500)
    assert b.tokens == 400


def test_earliest_ready_arithmetic():
    # tokens=0, r=1000 B/s, needed=500 -> now + 5*10^8 ns
    b = TokenBucket(1000, 1000, start_full=False)
    assert b.earliest_ready_ns(500, now_ns=0) == 5 * 10**8
    assert b.earliest_ready_ns(500, now_ns=7) == 7 + 5 * 10**8


def test_earliest_ready_boundary_is_now():
    b = TokenBucket(1000, 1000, start_full=False)
    b.tokens_scaled = 500 * TOKEN_SCALE
    assert b.earliest_ready_ns(500, now_ns=42) == 42


def test_oversized_request_is_config_error():
    b = TokenBucket(1000, 1000)
    with pytest.raises(QosConfigError):
        b.earliest_ready_ns(1001, now_ns=0)


def test_periodic_refill_amount():
    # tokens=0, r=10^9 B/s, interval=10^3 ns -> 1000 bytes
    b = TokenBucket(10**6, 10**9, start_full=False)
    b.add_scaled(periodic_refill_amount_scaled(10**9, 10**3))
    assert b.tokens == 1000


def test_periodic_refill_caps():
    b = TokenBucket(1000, 10**9)
    b.add_scaled(periodic_refill_amount_scaled(10**9, 10**6))
    assert b.tokens == 1000


class TickBucket:
    """Eager 1 ns-stepped reference bucket (the brute-force oracle)."""

    def __init__(self, capacity_bytes, rate_bps, start_full=True):
        self.cap = capacity_bytes * TOKEN_SCALE
        self.rate = rate_bps
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
    lazy = TokenBucket(4000, 777, start_full=False)
    oracle = TickBucket(4000, 777, start_full=False)
    now = 0
    for _ in range(3000):
        now += rnd.randint(0, 50)
        lazy.refill(now)
        oracle.advance_to(now)
        assert lazy.tokens_scaled == oracle.tokens
        size = rnd.randint(1, 2000)
        assert lazy.take(size) == oracle.take(size)
        assert lazy.tokens_scaled == oracle.tokens
        assert 0 <= lazy.tokens_scaled <= lazy.cap_scaled


# --------------------------------------------------------------------------
# srTCM

def test_srtcm_green_consumes_committed():
    m = SrtcmMeter(SrtcmParams(100, 2000, 2000))
    m.te_scaled = 0
    assert m.mark(1400, 0) == Color.GREEN
    assert m.tc_scaled == 600 * TOKEN_SCALE


def test_srtcm_yellow_consumes_excess():
    m = SrtcmMeter(SrtcmParams(100, 1000, 1500))
    assert m.mark(1400, 0) == Color.YELLOW
    assert m.tc_scaled == 1000 * TOKEN_SCALE
    assert m.te_scaled == 100 * TOKEN_SCALE


def test_srtcm_red_leaves_buckets_unchanged():
    m = SrtcmMeter(SrtcmParams(100, 1000, 1000))
    m.tc_scaled = 0
    m.te_scaled = 0
    m.last_update_ns = 5
    assert m.mark(1, 5) == Color.RED
    assert m.tc_scaled == 0 and m.te_scaled == 0


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
            new_tc = min(cbs, self.tc + self.p.cir_bps)
            spill = self.p.cir_bps - (new_tc - self.tc)
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
    params = SrtcmParams(cir_bps=321, cbs_bytes=3000, ebs_bytes=5000)
    lazy = SrtcmMeter(params)
    oracle = TickSrtcm(params)
    now = 0
    for _ in range(3000):
        now += rnd.randint(0, 40)
        oracle.advance_to(now)
        size = rnd.randint(1, 2500)
        assert lazy.mark(size, now) == oracle.mark(size)
        assert lazy.tc_scaled == oracle.tc
        assert lazy.te_scaled == oracle.te


# --------------------------------------------------------------------------
# class queues / strict priority

def _queue_with_bytes(nbytes, capacity=64 * 1024):
    class _P:
        def __init__(self, size):
            self.size = size
    q = ClassQueue(0, capacity)
    if nbytes:
        q.push(_P(nbytes))
    return q


def test_strict_priority_picks_first_non_empty():
    queues = [_queue_with_bytes(0), _queue_with_bytes(300), _queue_with_bytes(100)]
    assert strict_priority_select(queues) == 1


def test_strict_priority_all_empty():
    assert strict_priority_select([_queue_with_bytes(0)] * 3) is None


def test_strict_priority_class_zero_wins():
    queues = [_queue_with_bytes(10), _queue_with_bytes(300)]
    assert strict_priority_select(queues) == 0


def test_queue_byte_bound():
    q = ClassQueue(0, 1000)
    assert q.fits(1000)
    assert not q.fits(1001)
    q.push(type("P", (), {"size": 600})())
    assert q.fits(400)
    assert not q.fits(401)


# --------------------------------------------------------------------------
# early-drop (RED)

def test_red_below_min_always_enqueues():
    s = RedState(RedParams(5000, 15000, 0.1))
    q = _queue_with_bytes(100)
    for i in range(50):
        assert s.decide(q, q.fits(100), now_ns=i + 1, draw=lambda: 0.0) == ENQUEUE
    assert s.count == 0


def test_red_at_or_above_max_always_drops():
    s = RedState(RedParams(5000, 15000, 0.1))
    s.avg = 20000.0
    q = _queue_with_bytes(20000, capacity=64 * 1024)
    for i in range(50):
        assert s.decide(q, q.fits(100), now_ns=i + 1, draw=lambda: 0.999) == DROP


def test_red_worked_example_drops():
    # min=5000, max=15000, max_p=0.1, avg'=10000, count=0, rand=0.04:
    # p_b = 0.1 * (10000-5000)/(15000-5000) = 0.05; count=0 -> p_a = p_b;
    # rand < p_a (0.04 < 0.05) -> Drop
    w = 0.002
    s = RedState(RedParams(5000, 15000, 0.1, weight=w))
    s.avg = 10000.0
    q = _queue_with_bytes(10000)  # EWMA fixpoint keeps avg' = 10000
    assert s.decide(q, q.fits(100), now_ns=10, draw=lambda: 0.04) == DROP
    assert s.avg == pytest.approx(10000.0)
    assert s.count == 0


def test_red_full_queue_forces_drop():
    s = RedState(RedParams(5000, 15000, 0.1))
    q = _queue_with_bytes(900, capacity=1000)
    assert s.decide(q, q.fits(200), now_ns=1, draw=lambda: 0.999) == DROP


def test_red_count_raises_drop_probability():
    # p_a = p_b / (1 - count*p_b) grows with the enqueue streak
    p = RedParams(5000, 15000, 0.1, weight=0.002)
    probs = []
    for count in (0, 5, 9):
        q = _queue_with_bytes(10000)
        # find the decision boundary by bisection on rand
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = (lo + hi) / 2
            t = RedState(p)
            t.avg = 10000.0
            t.count = count
            if t.decide(q, q.fits(100), now_ns=1, draw=lambda: mid) == DROP:
                lo = mid
            else:
                hi = mid
        probs.append(lo)
    assert probs[0] < probs[1] < probs[2]


def test_red_matches_formula_oracle():
    rnd = random.Random(5)
    p = RedParams(2000, 8000, 0.2, weight=0.01, mean_pkt_time_ns=100)
    s = RedState(p)
    q = ClassQueue(0, 16 * 1024)

    avg = 0.0
    count = 0
    now = 0
    for _ in range(4000):
        now += rnd.randint(1, 400)
        size = rnd.randint(200, 1500)
        rand = rnd.random()
        # independent reference computation
        if q.byte_length + size > q.capacity_bytes:
            expect = DROP
            count = 0
        else:
            if q.byte_length == 0 and now > q.empty_since_ns:
                avg *= (1.0 - p.weight) ** ((now - q.empty_since_ns) / p.mean_pkt_time_ns)
            avg = (1.0 - p.weight) * avg + p.weight * q.byte_length
            if avg < p.min_th_bytes:
                expect, count = ENQUEUE, 0
            elif avg >= p.max_th_bytes:
                expect, count = DROP, 0
            else:
                p_b = p.max_p * (avg - p.min_th_bytes) / (p.max_th_bytes - p.min_th_bytes)
                denom = 1.0 - count * p_b
                p_a = 1.0 if denom <= 0 else min(1.0, p_b / denom)
                if rand < p_a:
                    expect, count = DROP, 0
                else:
                    expect, count = ENQUEUE, count + 1
        got = s.decide(q, q.fits(size), now, lambda: rand)
        assert got == expect
        assert s.avg == pytest.approx(avg, abs=1e-9)
        assert s.count == count
        if got == ENQUEUE:
            q.push(type("P", (), {"size": size})())
        # random service keeps the queue moving
        while q.packets and rnd.random() < 0.5:
            q.pop(now)


def test_red_param_validation():
    with pytest.raises(QosConfigError):
        RedParams(100, 100, 0.1)
    with pytest.raises(QosConfigError):
        RedParams(100, 200, 1.5)
    with pytest.raises(QosConfigError):
        RedParams(100, 200, 0.1, weight=0.0)


# --------------------------------------------------------------------------
# classifier

def test_classifier_lookup_and_default():
    c = Classifier({46: 0, 26: 1, 0: 2}, default_class=2, num_classes=3)
    assert c.classify(46) == 0
    assert c.classify(0) == 2
    assert c.classify(33) == 2  # unmapped -> default


def test_classifier_covers_all_ds_values():
    c = Classifier({46: 0, 26: 1, 0: 2}, default_class=2, num_classes=3)
    assert {c.classify(ds) for ds in range(64)} <= {0, 1, 2}


def test_classifier_validation():
    with pytest.raises(QosConfigError):
        Classifier({64: 0}, 0, 3)
    with pytest.raises(QosConfigError):
        Classifier({0: 3}, 0, 3)
    with pytest.raises(QosConfigError):
        Classifier({}, 5, 3)
