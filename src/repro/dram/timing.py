"""DDR4 timing parameters.

All timings are expressed in memory-controller clock cycles (the DDR4 clock,
i.e. half the data rate).  The presets follow JEDEC DDR4 speed grades; the
default is DDR4-3200 (PC4-25600), the module the paper's Table 1 assumes.
"""

from dataclasses import dataclass, fields, replace

#: Constraints whose long (same-bankgroup) or cumulative form must not be
#: shorter than the short one, as ``(longer, shorter)`` field pairs.
_ORDERED = (("ccd_l", "ccd_s"), ("rrd_l", "rrd_s"), ("wtr_l", "wtr_s"), ("rc", "ras"))


def ns_to_cycles(ns: float, tck_ns: float) -> int:
    """Round a nanosecond constraint up to whole clock cycles."""
    return max(1, int(-(-ns // tck_ns)))


@dataclass(frozen=True)
class DramTiming:
    """Timing constraints of one DDR4 speed grade, in clock cycles.

    Attributes follow JEDEC naming without the leading "t": ``cl`` is CAS
    latency, ``rcd`` is ACT-to-column delay, and so on.  ``bl`` is the burst
    length in beats (8 for DDR4), so a burst occupies ``bl // 2`` clocks.

    Construction raises :class:`ValueError`, naming the field, for a cycle
    count below 1 (``rtrs`` below 0), an odd ``bl`` or one below 2, and a
    long constraint shorter than its short form (``ccd_l < ccd_s``,
    ``rrd_l < rrd_s``, ``wtr_l < wtr_s``) or ``rc < ras``.  The
    controller's cadence arithmetic relies on these.
    """

    name: str
    data_rate_mtps: int
    cl: int
    cwl: int
    rcd: int
    rp: int
    ras: int
    rc: int
    bl: int
    ccd_s: int
    ccd_l: int
    rrd_s: int
    rrd_l: int
    faw: int
    wr: int
    wtr_s: int
    wtr_l: int
    rtp: int
    refi: int
    rfc: int
    rtrs: int = 2

    def __post_init__(self):
        for f in fields(self):
            if f.name in ("name", "data_rate_mtps"):
                continue
            value = getattr(self, f.name)
            least = 0 if f.name == "rtrs" else 1
            if value < least:
                raise ValueError(f"DramTiming.{f.name} must be at least {least} (got {value})")
        if self.bl % 2 or self.bl < 2:
            raise ValueError(f"DramTiming.bl must be even and at least 2 (got {self.bl})")
        for longer, shorter in _ORDERED:
            if getattr(self, longer) < getattr(self, shorter):
                raise ValueError(
                    f"DramTiming.{longer} must be at least {shorter} "
                    f"({getattr(self, longer)} < {getattr(self, shorter)})"
                )

    @property
    def clock_hz(self) -> float:
        """Memory-controller clock frequency in Hz."""
        return self.data_rate_mtps * 1e6 / 2

    @property
    def tck_ns(self) -> float:
        """Clock period in nanoseconds."""
        return 2000.0 / self.data_rate_mtps

    @property
    def burst_cycles(self) -> int:
        """Clocks the data bus is occupied by one burst (DDR: 2 beats/clock)."""
        return self.bl // 2

    @property
    def bytes_per_cycle(self) -> int:
        """Peak data-bus throughput for a x64 channel: 8 B/beat, 2 beats/clock."""
        return 16

    @property
    def peak_bandwidth(self) -> float:
        """Peak channel bandwidth in bytes/second."""
        return self.bytes_per_cycle * self.clock_hz

    @property
    def read_to_write(self) -> int:
        """Minimum RD-to-WR command spacing (bus turnaround)."""
        return self.cl + self.burst_cycles + 2 - self.cwl

    def write_to_read(self, same_bank_group: bool) -> int:
        """Minimum WR-to-RD command spacing (write recovery through the FIFO)."""
        wtr = self.wtr_l if same_bank_group else self.wtr_s
        return self.cwl + self.burst_cycles + wtr

    @property
    def write_to_precharge(self) -> int:
        """Minimum WR-to-PRE spacing on the written bank."""
        return self.cwl + self.burst_cycles + self.wr

    def cycles_to_seconds(self, cycles: int) -> float:
        """Convert a cycle count into wall-clock seconds."""
        return cycles * self.tck_ns * 1e-9

    def scaled_refresh(self, enabled: bool) -> "DramTiming":
        """Return a copy with refresh disabled (refi pushed out of reach)."""
        if enabled:
            return self
        return replace(self, refi=1 << 62)


def _grade(name: str, rate: int, cl: int, rcd: int, rp: int, **ns_values: float) -> DramTiming:
    """Build a speed grade from cycle-specified CAS timings + ns constraints."""
    tck = 2000.0 / rate
    return DramTiming(
        name=name,
        data_rate_mtps=rate,
        cl=cl,
        cwl=max(9, cl - 6),
        rcd=rcd,
        rp=rp,
        ras=ns_to_cycles(ns_values.get("ras_ns", 32.0), tck),
        rc=ns_to_cycles(ns_values.get("ras_ns", 32.0) + ns_values.get("rp_ns", rp * tck), tck),
        bl=8,
        ccd_s=4,
        ccd_l=ns_to_cycles(5.0, tck),
        rrd_s=ns_to_cycles(ns_values.get("rrd_s_ns", 5.3), tck),
        rrd_l=ns_to_cycles(ns_values.get("rrd_l_ns", 6.4), tck),
        faw=ns_to_cycles(ns_values.get("faw_ns", 21.0), tck),
        wr=ns_to_cycles(15.0, tck),
        wtr_s=ns_to_cycles(2.5, tck),
        wtr_l=ns_to_cycles(7.5, tck),
        rtp=ns_to_cycles(7.5, tck),
        refi=ns_to_cycles(7800.0, tck),
        rfc=ns_to_cycles(ns_values.get("rfc_ns", 350.0), tck),
    )


#: DDR4-3200AA (PC4-25600) — the paper's TensorDIMM building block (Table 1).
DDR4_3200 = _grade("DDR4-3200", 3200, cl=22, rcd=22, rp=22)

#: DDR4-2400 — a slower grade used in sensitivity tests.
DDR4_2400 = _grade("DDR4-2400", 2400, cl=17, rcd=17, rp=17)

#: DDR4-2666 — intermediate grade.
DDR4_2666 = _grade("DDR4-2666", 2666, cl=19, rcd=19, rp=19)

SPEED_GRADES = {t.name: t for t in (DDR4_2400, DDR4_2666, DDR4_3200)}
