"""DiffServ traffic-conditioning elements: DSCP classifier, two-bucket
three-color meter/marker, per-color early-drop (RED) state, byte-bounded
class queues, strict-priority selection, and the egress token-bucket shaper.

Token quantities are kept as integers scaled by 1e9 (units of 1e-9 byte):
with integer rates in bytes/second and integer timestamps in nanoseconds,
``rate * dt_ns`` is exact, so lazy on-demand refill matches a brute-force
1 ns ticking bucket bit for bit. That exactness is what makes parallel and
sequential runs byte-identical.

Each stateful element (:class:`TokenBucket`, :class:`SrtcmMeter`,
:class:`ClassQueue`, :class:`RedState`) keeps its mutable numbers in a flat
list ``st`` from offset ``i`` on; the object itself holds only its
configuration, plus the packet list of a queue. A standalone element owns a
private list. An egress pipeline passes one shared list to all its
elements, which append their numbers to it, so the whole pipeline state is
one list of numbers plus one packet list per class, and saving it is a
list copy (see ``router.EgressPipeline``).
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


# the meter returns the colors as plain ints: a packet's color is an int
# field of its record, and reading an enum member costs more than the
# meter's arithmetic
_GREEN, _YELLOW, _RED = map(int, Color)


def st_field(offset: int, doc: str) -> property:
    """Read/write view of the number at ``st[i + offset]`` of an object
    whose numbers start at offset ``i`` of its state list ``st``."""

    def get(self):
        return self.st[self.i + offset]

    def set(self, value):
        self.st[self.i + offset] = value

    return property(get, set, doc=doc)


def _place(element, st: list | None, values: list):
    """Append an element's initial numbers to ``st`` (a new private list
    when None) and remember where they start."""
    element.st = st = [] if st is None else st
    element.i = len(st)
    st.extend(values)


# --------------------------------------------------------------------------
# token bucket

class TokenBucket:
    """Bucket with capacity C bytes, fill rate r bytes/second, lazy refill.

    State: ``st[i]`` tokens (scaled), ``st[i + 1]`` time of the last refill.
    """

    __slots__ = ("capacity_bytes", "rate_bps", "st", "i")

    tokens_scaled = st_field(0, "tokens, in units of 1e-9 byte")
    last_update_ns = st_field(1, "time of the last lazy refill")

    def __init__(self, capacity_bytes: int, rate_bps: int, start_full: bool = True,
                 st: list | None = None):
        if capacity_bytes <= 0 or rate_bps <= 0:
            raise QosConfigError("bucket capacity and rate must be positive")
        self.capacity_bytes = capacity_bytes
        self.rate_bps = rate_bps  # bytes per second
        _place(self, st, [capacity_bytes * TOKEN_SCALE if start_full else 0, 0])

    @property
    def tokens(self) -> float:
        return self.tokens_scaled / TOKEN_SCALE

    @property
    def cap_scaled(self) -> int:
        return self.capacity_bytes * TOKEN_SCALE

    def refill(self, now_ns: int):
        """Lazy refill to ``now_ns``; overflow is discarded."""
        st, i = self.st, self.i
        dt = now_ns - st[i + 1]
        assert dt >= 0, f"time regression in bucket refill ({now_ns} < {st[i + 1]})"
        if dt:
            st[i] = min(self.capacity_bytes * TOKEN_SCALE, st[i] + self.rate_bps * dt)
            st[i + 1] = now_ns

    def add_scaled(self, amount_scaled: int):
        """Periodic-tick refill path: add a fixed quantum, cap at capacity."""
        st, i = self.st, self.i
        st[i] = min(self.capacity_bytes * TOKEN_SCALE, st[i] + amount_scaled)

    def take(self, size_bytes: int) -> bool:
        st, i = self.st, self.i
        need = size_bytes * TOKEN_SCALE
        if st[i] >= need:
            st[i] -= need
            return True
        return False

    def earliest_ready_ns(self, size_bytes: int, now_ns: int) -> int:
        """Smallest t >= now with tokens(t) >= size, assuming lazy refill."""
        if size_bytes > self.capacity_bytes:
            raise QosConfigError(
                f"packet of {size_bytes} B can never pass a {self.capacity_bytes} B bucket"
            )
        deficit = size_bytes * TOKEN_SCALE - self.st[self.i]
        if deficit <= 0:
            return now_ns
        return now_ns + -(-deficit // self.rate_bps)


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
    excess bucket. Both buckets start full. State: ``st[i]`` committed
    tokens, ``st[i + 1]`` excess tokens (both scaled), ``st[i + 2]`` time
    of the last refill.
    """

    __slots__ = ("params", "st", "i")

    tc_scaled = st_field(0, "committed-bucket tokens, in units of 1e-9 byte")
    te_scaled = st_field(1, "excess-bucket tokens, in units of 1e-9 byte")
    last_update_ns = st_field(2, "time of the last lazy refill")

    def __init__(self, params: SrtcmParams, st: list | None = None):
        if params.cbs_bytes <= 0 and params.ebs_bytes <= 0:
            raise QosConfigError("srTCM needs cbs > 0 or ebs > 0")
        self.params = params
        _place(self, st, [params.cbs_bytes * TOKEN_SCALE, params.ebs_bytes * TOKEN_SCALE, 0])

    def mark(self, size_bytes: int, now_ns: int) -> int:
        """Refill both buckets to ``now_ns``, then color a packet of
        ``size_bytes``; returns the :class:`Color` value as a plain int."""
        assert size_bytes > 0
        st, i = self.st, self.i
        dt = now_ns - st[i + 2]
        assert dt >= 0, "time regression in srTCM refill"
        if dt:
            p = self.params
            added = p.cir_bps * dt
            tc = st[i]
            new_tc = min(p.cbs_bytes * TOKEN_SCALE, tc + added)
            st[i] = new_tc
            st[i + 1] = min(p.ebs_bytes * TOKEN_SCALE, st[i + 1] + added - (new_tc - tc))
            st[i + 2] = now_ns
        need = size_bytes * TOKEN_SCALE
        if st[i] >= need:
            st[i] -= need
            return _GREEN
        if st[i + 1] >= need:
            st[i + 1] -= need
            return _YELLOW
        return _RED


# --------------------------------------------------------------------------
# class queues

class ClassQueue:
    """Byte-bounded FIFO for one priority class (0 = highest priority).

    State: ``packets``, ``st[i]`` queued bytes, ``st[i + 1]`` virtual time
    the queue last became empty.
    """

    __slots__ = ("class_index", "capacity_bytes", "packets", "st", "i")

    byte_length = st_field(0, "bytes queued")
    empty_since_ns = st_field(1, "virtual time the queue last became empty")

    def __init__(self, class_index: int, capacity_bytes: int, st: list | None = None):
        self.class_index = class_index
        self.capacity_bytes = capacity_bytes
        self.packets: list = []
        _place(self, st, [0, 0])

    def fits(self, size_bytes: int) -> bool:
        return self.st[self.i] + size_bytes <= self.capacity_bytes

    def push(self, pkt):
        self.packets.append(pkt)
        self.st[self.i] += pkt.size

    def head(self):
        return self.packets[0] if self.packets else None

    def pop(self, now_ns: int):
        st, i = self.st, self.i
        pkt = self.packets.pop(0)
        st[i] -= pkt.size
        if not self.packets:
            st[i + 1] = now_ns
        return pkt


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
    """EWMA average and drop bookkeeping for one (class, color) dropper.

    State: ``st[i]`` average queue length in bytes (float), ``st[i + 1]``
    packets enqueued since the last drop.
    """

    __slots__ = ("params", "st", "i")

    avg = st_field(0, "EWMA of the queue length, bytes")
    count = st_field(1, "packets enqueued since the last drop")

    def __init__(self, params: RedParams, st: list | None = None):
        self.params = params
        _place(self, st, [0.0, 0])

    def decide(self, queue: ClassQueue, fits: bool, now_ns: int, draw) -> str:
        """Early-drop decision for one arriving packet; ``fits`` is
        ``queue.fits(size)`` of that packet, which the caller also needs.

        The queue-full check overrides everything; otherwise the EWMA
        average (with idle-period decay while the queue sat empty) selects
        between the enqueue / probabilistic / forced-drop regions.
        ``draw()`` gives the packet's uniform random value in [0, 1); it is
        called only in the probabilistic region, where the decision needs it.
        """
        p = self.params
        st, i = self.st, self.i
        if not fits:
            # tail drop: the dropper cannot admit what the queue cannot hold
            st[i + 1] = 0
            return DROP
        qst, qi = queue.st, queue.i
        byte_length = qst[qi]
        avg = st[i]
        if byte_length == 0 and now_ns > qst[qi + 1]:
            idle = now_ns - qst[qi + 1]
            m = idle / p.mean_pkt_time_ns
            avg *= (1.0 - p.weight) ** m
        avg = (1.0 - p.weight) * avg + p.weight * byte_length
        st[i] = avg
        if avg < p.min_th_bytes:
            st[i + 1] = 0
            return ENQUEUE
        if avg >= p.max_th_bytes:
            st[i + 1] = 0
            return DROP
        p_b = p.max_p * (avg - p.min_th_bytes) / (p.max_th_bytes - p.min_th_bytes)
        denom = 1.0 - st[i + 1] * p_b
        p_a = 1.0 if denom <= 0.0 else min(1.0, p_b / denom)
        if draw() < p_a:
            st[i + 1] = 0
            return DROP
        st[i + 1] += 1
        return ENQUEUE


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


def default_red_params(queue_capacity: int, color: Color) -> RedParams:
    lo, hi, max_p = RED_DEFAULTS[color]
    min_th = max(1, int(lo * queue_capacity)) if lo > 0 else 1
    max_th = int(hi * queue_capacity)
    return RedParams(min_th, max_th, max_p)


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
