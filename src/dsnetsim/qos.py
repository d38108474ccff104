"""DiffServ traffic-conditioning elements: DSCP classifier, two-bucket
three-color meter/marker, per-color early-drop (RED) state, byte-bounded
class queues, strict-priority selection, and the egress token-bucket shaper.

Token quantities are kept as integers scaled by 1e9 (units of 1e-9 byte):
with integer rates in bytes/second and integer timestamps in nanoseconds,
``rate * dt_ns`` is exact, so lazy on-demand refill matches a brute-force
1 ns ticking bucket bit for bit. That exactness is what makes parallel and
sequential runs byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

TOKEN_SCALE = 10**9


class QosConfigError(Exception):
    pass


class Color(IntEnum):
    GREEN = 0
    YELLOW = 1
    RED = 2


# --------------------------------------------------------------------------
# token bucket

class TokenBucket:
    """Bucket with capacity C bytes, fill rate r bytes/second, lazy refill."""

    __slots__ = ("capacity_bytes", "rate_bps", "tokens_scaled", "last_update_ns")

    def __init__(self, capacity_bytes: int, rate_bps: int, start_full: bool = True):
        if capacity_bytes <= 0 or rate_bps <= 0:
            raise QosConfigError("bucket capacity and rate must be positive")
        self.capacity_bytes = capacity_bytes
        self.rate_bps = rate_bps  # bytes per second
        self.tokens_scaled = capacity_bytes * TOKEN_SCALE if start_full else 0
        self.last_update_ns = 0

    @property
    def tokens(self) -> float:
        return self.tokens_scaled / TOKEN_SCALE

    @property
    def cap_scaled(self) -> int:
        return self.capacity_bytes * TOKEN_SCALE

    def refill(self, now_ns: int):
        """Lazy refill to ``now_ns``; overflow is discarded."""
        dt = now_ns - self.last_update_ns
        assert dt >= 0, f"time regression in bucket refill ({now_ns} < {self.last_update_ns})"
        if dt:
            self.tokens_scaled = min(self.cap_scaled, self.tokens_scaled + self.rate_bps * dt)
            self.last_update_ns = now_ns

    def add_scaled(self, amount_scaled: int):
        """Periodic-tick refill path: add a fixed quantum, cap at capacity."""
        self.tokens_scaled = min(self.cap_scaled, self.tokens_scaled + amount_scaled)

    def take(self, size_bytes: int) -> bool:
        need = size_bytes * TOKEN_SCALE
        if self.tokens_scaled >= need:
            self.tokens_scaled -= need
            return True
        return False

    def earliest_ready_ns(self, size_bytes: int, now_ns: int) -> int:
        """Smallest t >= now with tokens(t) >= size, assuming lazy refill."""
        if size_bytes > self.capacity_bytes:
            raise QosConfigError(
                f"packet of {size_bytes} B can never pass a {self.capacity_bytes} B bucket"
            )
        deficit = size_bytes * TOKEN_SCALE - self.tokens_scaled
        if deficit <= 0:
            return now_ns
        return now_ns + -(-deficit // self.rate_bps)

    def clone(self) -> "TokenBucket":
        b = TokenBucket.__new__(TokenBucket)
        b.capacity_bytes = self.capacity_bytes
        b.rate_bps = self.rate_bps
        b.tokens_scaled = self.tokens_scaled
        b.last_update_ns = self.last_update_ns
        return b


def periodic_refill_amount_scaled(rate_bps: int, interval_ns: int) -> int:
    """Token quantum added per periodic tick, in scaled units."""
    return rate_bps * interval_ns


# --------------------------------------------------------------------------
# srTCM meter/marker

@dataclass(frozen=True)
class SrtcmParams:
    cir_bps: int  # committed information rate, bytes/second
    cbs_bytes: int  # committed burst size
    ebs_bytes: int  # excess burst size


class SrtcmMeter:
    """Single-rate three-color meter, color-blind mode.

    One rate feeds the committed bucket first; overflow spills into the
    excess bucket. Both buckets start full.
    """

    __slots__ = ("params", "tc_scaled", "te_scaled", "last_update_ns")

    def __init__(self, params: SrtcmParams):
        if params.cbs_bytes <= 0 and params.ebs_bytes <= 0:
            raise QosConfigError("srTCM needs cbs > 0 or ebs > 0")
        self.params = params
        self.tc_scaled = params.cbs_bytes * TOKEN_SCALE
        self.te_scaled = params.ebs_bytes * TOKEN_SCALE
        self.last_update_ns = 0

    def refill(self, now_ns: int):
        dt = now_ns - self.last_update_ns
        assert dt >= 0, "time regression in srTCM refill"
        if not dt:
            return
        added = self.params.cir_bps * dt
        cbs_s = self.params.cbs_bytes * TOKEN_SCALE
        ebs_s = self.params.ebs_bytes * TOKEN_SCALE
        new_tc = min(cbs_s, self.tc_scaled + added)
        spill = added - (new_tc - self.tc_scaled)
        self.tc_scaled = new_tc
        self.te_scaled = min(ebs_s, self.te_scaled + spill)
        self.last_update_ns = now_ns

    def mark(self, size_bytes: int, now_ns: int) -> Color:
        assert size_bytes > 0
        self.refill(now_ns)
        need = size_bytes * TOKEN_SCALE
        if self.tc_scaled >= need:
            self.tc_scaled -= need
            return Color.GREEN
        if self.te_scaled >= need:
            self.te_scaled -= need
            return Color.YELLOW
        return Color.RED

    def clone(self) -> "SrtcmMeter":
        m = SrtcmMeter.__new__(SrtcmMeter)
        m.params = self.params
        m.tc_scaled = self.tc_scaled
        m.te_scaled = self.te_scaled
        m.last_update_ns = self.last_update_ns
        return m


# --------------------------------------------------------------------------
# class queues

class ClassQueue:
    """Byte-bounded FIFO for one priority class (0 = highest priority)."""

    __slots__ = ("class_index", "capacity_bytes", "packets", "byte_length", "empty_since_ns")

    def __init__(self, class_index: int, capacity_bytes: int):
        self.class_index = class_index
        self.capacity_bytes = capacity_bytes
        self.packets: list = []
        self.byte_length = 0
        self.empty_since_ns = 0  # virtual time the queue last became empty

    def fits(self, size_bytes: int) -> bool:
        return self.byte_length + size_bytes <= self.capacity_bytes

    def push(self, pkt):
        self.packets.append(pkt)
        self.byte_length += pkt.size

    def head(self):
        return self.packets[0] if self.packets else None

    def pop(self, now_ns: int):
        pkt = self.packets.pop(0)
        self.byte_length -= pkt.size
        if not self.packets:
            self.empty_since_ns = now_ns
        return pkt

    def clone(self) -> "ClassQueue":
        q = ClassQueue.__new__(ClassQueue)
        q.class_index = self.class_index
        q.capacity_bytes = self.capacity_bytes
        q.packets = list(self.packets)
        q.byte_length = self.byte_length
        q.empty_since_ns = self.empty_since_ns
        return q


def strict_priority_select(queues: list[ClassQueue]) -> int | None:
    """Index of the lowest-numbered non-empty queue, or None."""
    for i, q in enumerate(queues):
        if q.packets:
            return i
    return None


# --------------------------------------------------------------------------
# early-drop (RED)

@dataclass(frozen=True)
class RedParams:
    min_th_bytes: int
    max_th_bytes: int
    max_p: float
    weight: float = 0.002
    # mean service time of one packet, used for the idle-period decay of the
    # average queue length
    mean_pkt_time_ns: int = 1_000

    def __post_init__(self):
        if not self.min_th_bytes < self.max_th_bytes:
            raise QosConfigError("RED requires min_th < max_th")
        if not 0.0 <= self.max_p <= 1.0:
            raise QosConfigError("RED max_p must be in [0, 1]")
        if not 0.0 < self.weight <= 1.0:
            raise QosConfigError("RED weight must be in (0, 1]")


ENQUEUE = "enqueue"
DROP = "drop"


class RedState:
    """EWMA average and drop bookkeeping for one (class, color) dropper."""

    __slots__ = ("params", "avg", "count")

    def __init__(self, params: RedParams):
        self.params = params
        self.avg = 0.0
        self.count = 0

    def decide(self, queue: ClassQueue, pkt_size: int, now_ns: int, rand: float) -> str:
        """Early-drop decision for one arriving packet.

        The queue-full check overrides everything; otherwise the EWMA
        average (with idle-period decay while the queue sat empty) selects
        between the enqueue / probabilistic / forced-drop regions.
        """
        p = self.params
        if not queue.fits(pkt_size):
            # tail drop: the dropper cannot admit what the queue cannot hold
            self.count = 0
            return DROP
        if queue.byte_length == 0 and now_ns > queue.empty_since_ns:
            idle = now_ns - queue.empty_since_ns
            m = idle / p.mean_pkt_time_ns
            self.avg *= (1.0 - p.weight) ** m
        self.avg = (1.0 - p.weight) * self.avg + p.weight * queue.byte_length
        if self.avg < p.min_th_bytes:
            self.count = 0
            return ENQUEUE
        if self.avg >= p.max_th_bytes:
            self.count = 0
            return DROP
        p_b = p.max_p * (self.avg - p.min_th_bytes) / (p.max_th_bytes - p.min_th_bytes)
        denom = 1.0 - self.count * p_b
        p_a = 1.0 if denom <= 0.0 else min(1.0, p_b / denom)
        if rand < p_a:
            self.count = 0
            return DROP
        self.count += 1
        return ENQUEUE

    def clone(self) -> "RedState":
        r = RedState.__new__(RedState)
        r.params = self.params
        r.avg = self.avg
        r.count = self.count
        return r


# --------------------------------------------------------------------------
# classifier

class Classifier:
    """DS field (0..63) -> priority class, with a default class."""

    __slots__ = ("mapping", "default_class", "num_classes")

    def __init__(self, mapping: dict[int, int], default_class: int, num_classes: int):
        for ds, cls in mapping.items():
            if not 0 <= ds <= 63:
                raise QosConfigError(f"DS value {ds} out of range")
            if not 0 <= cls < num_classes:
                raise QosConfigError(f"class {cls} out of range")
        if not 0 <= default_class < num_classes:
            raise QosConfigError("default class out of range")
        self.mapping = dict(mapping)
        self.default_class = default_class
        self.num_classes = num_classes

    def classify(self, ds: int) -> int:
        return self.mapping.get(ds, self.default_class)


# --------------------------------------------------------------------------
# per-tier QoS profile (configuration, immutable and shared)

DEFAULT_QUEUE_CAPACITY = 64 * 1024

# per-color dropper thresholds as fractions of the queue capacity
RED_DEFAULTS = {
    Color.GREEN: (0.25, 0.75, 0.02),
    Color.YELLOW: (0.125, 0.5, 0.1),
    Color.RED: (0.0, 0.25, 0.5),
}


@dataclass(frozen=True)
class QosProfile:
    """Everything needed to instantiate one egress pipeline."""

    classifier: Classifier
    srtcm: tuple[SrtcmParams, ...]  # one per class
    red: tuple[tuple[RedParams, ...], ...]  # [class][color]
    queue_capacity_bytes: int
    shaper_rate_bps: int  # bytes per second
    shaper_burst_bytes: int

    @property
    def num_classes(self) -> int:
        return len(self.srtcm)


def default_red_params(queue_capacity: int, color: Color,
                       mean_pkt_time_ns: int = 1_000) -> RedParams:
    lo, hi, max_p = RED_DEFAULTS[color]
    min_th = max(1, int(lo * queue_capacity)) if lo > 0 else 1
    max_th = int(hi * queue_capacity)
    return RedParams(min_th, max_th, max_p, mean_pkt_time_ns=mean_pkt_time_ns)


def make_profile(
    classifier_map: dict[int, int] | None = None,
    default_class: int | None = None,
    num_classes: int = 3,
    srtcm: list[SrtcmParams] | None = None,
    queue_capacity_bytes: int = DEFAULT_QUEUE_CAPACITY,
    shaper_rate_bps: int = 1_250_000_000,
    shaper_burst_bytes: int = 16 * 1024,
    red: list[list[RedParams]] | None = None,
) -> QosProfile:
    """Assemble a profile, filling unspecified pieces with defaults. The
    default class is the lowest-priority one, ``num_classes - 1``."""
    if default_class is None:
        default_class = num_classes - 1
    if classifier_map is None:
        # EF-style -> 0, AF-style -> 1, best effort -> 2
        classifier_map = {46: 0, 26: 1, 0: 2}
    if srtcm is None:
        srtcm = [
            SrtcmParams(cir_bps=shaper_rate_bps, cbs_bytes=32 * 1024, ebs_bytes=64 * 1024)
        ] * num_classes
    if red is None:
        red = [
            [default_red_params(queue_capacity_bytes, c) for c in Color]
            for _ in range(num_classes)
        ]
    return QosProfile(
        classifier=Classifier(classifier_map, default_class, num_classes),
        srtcm=tuple(srtcm),
        red=tuple(tuple(r) for r in red),
        queue_capacity_bytes=queue_capacity_bytes,
        shaper_rate_bps=shaper_rate_bps,
        shaper_burst_bytes=shaper_burst_bytes,
    )
