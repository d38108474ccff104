"""DiffServ traffic-conditioning elements: DSCP class table, two-bucket
three-color meter/marker, per-color early-drop (RED) state, byte-bounded
class queues, strict-priority selection, and the egress token-bucket shaper.

Token quantities are kept as integers scaled by 1e9 (units of 1e-9 byte):
with integer rates in bytes/second and integer timestamps in nanoseconds,
``rate * dt_ns`` is exact, so lazy on-demand refill matches a brute-force
1 ns ticking bucket bit for bit. That exactness is what makes parallel and
sequential runs byte-identical. Byte rates carry the suffix ``_Bps``.
Bucket sizes are scaled once, in the constructors, and the refills cap a
bucket with a comparison rather than ``min()``: they run on every routed
packet, where the builtin call costs more than the arithmetic.

Each stateful element (:class:`TokenBucket`, :class:`SrtcmMeter`,
:class:`ClassQueue`, :class:`RedState`) holds only its configuration and
the offset ``i`` of its numbers. Its constructor appends its initial
numbers to the list it is given, and its methods take the state list ``st``
they act on (a queue's also take its packet list). So one element set, a
tier's :class:`QosProfile`, serves every port of the tier. Its ``initial``
lays out every number a port holds from offset 0, the port's own first;
each port owns only its copy of ``initial`` and one packet list per class
(see ``router.EgressPipeline``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .rng import PURPOSE_RED

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


# --------------------------------------------------------------------------
# token bucket

class TokenBucket:
    """Bucket with capacity C bytes, fill rate r bytes/second, lazy refill.

    State: ``st[i]`` tokens (scaled, units of 1e-9 byte), ``st[i + 1]``
    time of the last refill. ``capacity_scaled`` is the capacity in those
    units.
    """

    __slots__ = ("capacity_bytes", "capacity_scaled", "rate_Bps", "i")

    def __init__(self, capacity_bytes: int, rate_Bps: int, st: list, start_full: bool = True):
        if capacity_bytes <= 0 or rate_Bps <= 0:
            raise QosConfigError("bucket capacity and rate must be positive")
        self.capacity_bytes = capacity_bytes
        self.capacity_scaled = capacity_bytes * TOKEN_SCALE
        self.rate_Bps = rate_Bps
        self.i = len(st)
        st += (self.capacity_scaled if start_full else 0, 0)

    def refill(self, st: list, now_ns: int):
        """Lazy refill to ``now_ns``; overflow is discarded."""
        i = self.i
        dt = now_ns - st[i + 1]
        assert dt >= 0, f"time regression in bucket refill ({now_ns} < {st[i + 1]})"
        if dt:
            tokens = st[i] + self.rate_Bps * dt
            cap = self.capacity_scaled
            st[i] = tokens if tokens < cap else cap
            st[i + 1] = now_ns

    def add_scaled(self, st: list, amount_scaled: int):
        """Periodic-tick refill path: add a fixed quantum, cap at capacity."""
        i = self.i
        tokens = st[i] + amount_scaled
        cap = self.capacity_scaled
        st[i] = tokens if tokens < cap else cap

    def take(self, st: list, size_bytes: int) -> bool:
        i = self.i
        need = size_bytes * TOKEN_SCALE
        if st[i] >= need:
            st[i] -= need
            return True
        return False

    def earliest_ready_ns(self, st: list, size_bytes: int, now_ns: int) -> int:
        """Smallest t >= now with tokens(t) >= size, assuming lazy refill."""
        if size_bytes > self.capacity_bytes:
            raise QosConfigError(
                f"packet of {size_bytes} B can never pass a {self.capacity_bytes} B bucket"
            )
        deficit = size_bytes * TOKEN_SCALE - st[self.i]
        if deficit <= 0:
            return now_ns
        return now_ns + -(-deficit // self.rate_Bps)


# --------------------------------------------------------------------------
# srTCM meter/marker

@dataclass(frozen=True)
class SrtcmParams:
    cir_Bps: int  # committed information rate, bytes/second
    cbs_bytes: int  # committed burst size
    ebs_bytes: int  # excess burst size


class SrtcmMeter:
    """Single-rate three-color meter, color-blind mode.

    One rate feeds the committed bucket first; overflow spills into the
    excess bucket. Both buckets start full. State: ``st[i]`` committed
    tokens, ``st[i + 1]`` excess tokens (both scaled), ``st[i + 2]`` time
    of the last refill. ``cir_Bps`` is the rate of ``params``, and
    ``cbs_scaled`` and ``ebs_scaled`` its bucket sizes in scaled units.
    """

    __slots__ = ("params", "cir_Bps", "cbs_scaled", "ebs_scaled", "i")

    def __init__(self, params: SrtcmParams, st: list):
        if params.cbs_bytes <= 0 and params.ebs_bytes <= 0:
            raise QosConfigError("srTCM needs cbs > 0 or ebs > 0")
        self.params = params
        self.cir_Bps = params.cir_Bps
        self.cbs_scaled = params.cbs_bytes * TOKEN_SCALE
        self.ebs_scaled = params.ebs_bytes * TOKEN_SCALE
        self.i = len(st)
        st += (self.cbs_scaled, self.ebs_scaled, 0)

    def mark(self, st: list, size_bytes: int, now_ns: int) -> int:
        """Refill both buckets to ``now_ns``, then color a packet of
        ``size_bytes``; returns the :class:`Color` value as a plain int."""
        assert size_bytes > 0
        i = self.i
        dt = now_ns - st[i + 2]
        assert dt >= 0, "time regression in srTCM refill"
        if dt:
            added = self.cir_Bps * dt
            tc = st[i]
            new_tc = tc + added
            cap = self.cbs_scaled
            if new_tc > cap:
                new_tc = cap
            st[i] = new_tc
            # the excess bucket takes what the committed one could not hold
            te = st[i + 1] + added - (new_tc - tc)
            cap = self.ebs_scaled
            st[i + 1] = te if te < cap else cap
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
    """Byte-bounded FIFO for one priority class; its class is its index in
    the tier's queues (0 = highest priority).

    State: the packet list ``packets``, ``st[i]`` queued bytes, ``st[i + 1]``
    virtual time the queue last became empty.
    """

    __slots__ = ("capacity_bytes", "i")

    def __init__(self, capacity_bytes: int, st: list):
        self.capacity_bytes = capacity_bytes
        self.i = len(st)
        st += (0, 0)

    def fits(self, st: list, size_bytes: int) -> bool:
        return st[self.i] + size_bytes <= self.capacity_bytes

    def push(self, st: list, packets: list, pkt):
        packets.append(pkt)
        st[self.i] += pkt.size

    def head(self, packets: list):
        return packets[0] if packets else None

    def pop(self, st: list, packets: list, now_ns: int):
        i = self.i
        pkt = packets.pop(0)
        st[i] -= pkt.size
        if not packets:
            st[i + 1] = now_ns
        return pkt


def strict_priority_select(pkts: list[list]) -> int | None:
    """Index of the lowest-numbered non-empty packet list, or None."""
    for i, packets in enumerate(pkts):
        if packets:
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


class RedState:
    """EWMA average and drop bookkeeping for one (class, color) dropper.

    State: ``st[i]`` average queue length in bytes (float), ``st[i + 1]``
    packets enqueued since the last drop.
    """

    __slots__ = ("params", "i")

    def __init__(self, params: RedParams, st: list):
        self.params = params
        self.i = len(st)
        st += (0.0, 0)

    def decide(self, st: list, queue: ClassQueue, fits: bool, now_ns: int,
               rng, cursor: int) -> bool:
        """Early-drop decision for one arriving packet at ``queue``, whose
        numbers are in the same ``st``: True to enqueue it, False to drop
        it. ``fits`` is ``queue.fits(st, size)`` of that packet, which the
        caller also needs.

        The queue-full check overrides everything; otherwise the EWMA
        average (with idle-period decay while the queue sat empty) selects
        between the enqueue / probabilistic / forced-drop regions. The
        packet's uniform random value is ``rng.uniform_at(PURPOSE_RED,
        cursor)``, the draw at the arrival's RED cursor; it is computed only
        in the probabilistic region, where the decision needs it.
        An empty queue whose average is 0.0 (it has never held a byte, or
        the decay has worn the average down to 0.0) enqueues at once when
        ``min_th_bytes > 0``: the decay and the EWMA would leave 0.0, below
        the threshold, so the shortcut leaves the state the full path would.
        """
        p = self.params
        i = self.i
        if not fits:
            # tail drop: the dropper cannot admit what the queue cannot hold
            st[i + 1] = 0
            return False
        qi = queue.i
        byte_length = st[qi]
        avg = st[i]
        if byte_length == 0:
            if avg == 0.0 and p.min_th_bytes > 0:
                # idle shortcut: the decay and the EWMA both leave 0.0 at
                # 0.0, which is below min_th, so the full path would enqueue
                st[i + 1] = 0
                return True
            if now_ns > st[qi + 1]:
                idle = now_ns - st[qi + 1]
                m = idle / p.mean_pkt_time_ns
                avg *= (1.0 - p.weight) ** m
        avg = (1.0 - p.weight) * avg + p.weight * byte_length
        st[i] = avg
        if avg < p.min_th_bytes:
            st[i + 1] = 0
            return True
        if avg >= p.max_th_bytes:
            st[i + 1] = 0
            return False
        p_b = p.max_p * (avg - p.min_th_bytes) / (p.max_th_bytes - p.min_th_bytes)
        denom = 1.0 - st[i + 1] * p_b
        p_a = 1.0 if denom <= 0.0 else min(1.0, p_b / denom)
        if rng.uniform_at(PURPOSE_RED, cursor) < p_a:
            st[i + 1] = 0
            return False
        st[i + 1] += 1
        return True


# --------------------------------------------------------------------------
# per-tier QoS profile: the element set every port of a tier shares

DEFAULT_QUEUE_CAPACITY = 64 * 1024

# offsets of the port's own numbers, which open every profile's ``initial``
# (the elements' numbers follow), and their initial values
SEND_FLAG, ARRIVE_COUNT, SEND_COUNT, BLOCKED_EPISODES, STALE_SENDS, REDUNDANT_SENDS = range(6)
PORT_INITIAL = (False, 0, 0, 0, 0, 0)

# per-color dropper thresholds as fractions of the queue capacity
RED_DEFAULTS = {
    Color.GREEN: (0.25, 0.75, 0.02),
    Color.YELLOW: (0.125, 0.5, 0.1),
    Color.RED: (0.0, 0.25, 0.5),
}


def default_red_params(queue_capacity: int, color: Color) -> RedParams:
    lo, hi, max_p = RED_DEFAULTS[color]
    min_th = max(1, int(lo * queue_capacity)) if lo > 0 else 1
    max_th = int(hi * queue_capacity)
    return RedParams(min_th, max_th, max_p)


class QosProfile:
    """One tier's QoS elements, which every port of the tier shares,
    ``classes``, the class of each DS value 0..63, and ``initial``, every
    number a port of the tier starts from: the port's own
    (:data:`PORT_INITIAL`, at offsets 0..5), then the shaper's, then per
    class the queue's, the meter's and each color's RED numbers, each at
    its element's offset ``i``. Parameters are read through the elements,
    such as ``shaper.capacity_bytes`` or ``srtcm[0].params``. Pieces left
    out take defaults. The default class is the last one, and the default
    classifier sends DS 46 to class 0, DS 26 to class 1 and DS 0 to
    class 2, each capped at the last class; ``srtcm`` needs
    one entry per class; ``red`` maps a :class:`Color` to its dropper in
    every class, and a color it leaves out takes :data:`RED_DEFAULTS`."""

    __slots__ = ("classes", "shaper", "queues", "srtcm", "red", "initial")

    def __init__(self, classifier_map: dict[int, int] | None = None,
                 default_class: int | None = None, num_classes: int = 3,
                 srtcm: list[SrtcmParams] | None = None,
                 queue_capacity_bytes: int = DEFAULT_QUEUE_CAPACITY,
                 shaper_rate_Bps: int = 1_250_000_000, shaper_burst_bytes: int = 16 * 1024,
                 red: dict[Color, RedParams] | None = None):
        if srtcm is None:
            srtcm = [SrtcmParams(shaper_rate_Bps, 32 * 1024, 64 * 1024)] * num_classes
        elif len(srtcm) != num_classes:
            raise QosConfigError("srtcm list must have one entry per class")
        red = red or {}
        if not set(red) <= set(Color):
            raise QosConfigError(f"red keys must be colors, got {list(red)}")
        if classifier_map is None:
            # EF-style, AF-style, best effort, each capped at the last class
            classifier_map = {ds: min(cls, num_classes - 1)
                              for ds, cls in {46: 0, 26: 1, 0: 2}.items()}
        default_class = num_classes - 1 if default_class is None else default_class
        for ds, cls in classifier_map.items():
            if not 0 <= ds <= 63:
                raise QosConfigError(f"DS value {ds} out of range")
            if not 0 <= cls < num_classes:
                raise QosConfigError(f"DS value {ds}: class {cls} out of range, "
                                     f"the classes are 0..{num_classes - 1}")
        if not 0 <= default_class < num_classes:
            raise QosConfigError("default class out of range")
        self.classes = tuple(classifier_map.get(ds, default_class) for ds in range(64))
        st = self.initial = list(PORT_INITIAL)
        self.shaper = TokenBucket(shaper_burst_bytes, shaper_rate_Bps, st)
        self.queues = [ClassQueue(queue_capacity_bytes, st) for _ in range(num_classes)]
        self.srtcm = [SrtcmMeter(p, st) for p in srtcm]
        row = [red[c] if c in red else default_red_params(queue_capacity_bytes, c)
               for c in Color]
        self.red = [[RedState(p, st) for p in row] for _ in range(num_classes)]

    @property
    def num_classes(self) -> int:
        return len(self.queues)
