"""DDR4 power model in the style of Micron's system power calculator.

The paper (Section 6.5) uses Micron's DDR4 spreadssheet to estimate 13 W
for one 128 GB LR-DIMM, hence ~416 W for a 32-DIMM TensorNode.  This module
reproduces the methodology: per-device IDD currents x VDD, split into
background, activate/precharge, read/write burst, and refresh components,
scaled by the activity counters our DRAM simulator reports.

Current values follow an 8 Gb DDR4-3200 x8 datasheet (rounded); an LR-DIMM
additionally burns power in its data buffers and the registering clock
driver, modelled as a fixed adder.
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..dram.timing import DDR4_3200, DramTiming

if TYPE_CHECKING:  # the cycle-level controller is not needed to price power
    from ..dram.controller import ControllerStats


@dataclass(frozen=True)
class DramDevicePower:
    """IDD profile of one DRAM device (x8, 8 Gb, DDR4-3200)."""

    vdd: float = 1.2
    idd0_ma: float = 58.0  # one-bank ACT-PRE
    idd2n_ma: float = 37.0  # precharge standby
    idd3n_ma: float = 52.0  # active standby
    idd4r_ma: float = 150.0  # burst read
    idd4w_ma: float = 145.0  # burst write
    idd5b_ma: float = 240.0  # burst refresh

    def background_w(self, active_fraction: float = 1.0) -> float:
        """Standby power, interpolating precharge vs. active standby."""
        if not 0.0 <= active_fraction <= 1.0:
            raise ValueError("active fraction must be in [0, 1]")
        idd = self.idd2n_ma + (self.idd3n_ma - self.idd2n_ma) * active_fraction
        return idd * 1e-3 * self.vdd

    def activate_w(self, acts_per_second: float, timing: DramTiming) -> float:
        """ACT/PRE pair power at a given activation rate."""
        # Energy of one ACT-PRE pair: (IDD0 - IDD3N) over tRC.
        trc_s = timing.rc * timing.tck_ns * 1e-9
        energy_j = (self.idd0_ma - self.idd3n_ma) * 1e-3 * self.vdd * trc_s
        return energy_j * acts_per_second

    def read_w(self, bus_utilization: float) -> float:
        """Incremental read-burst power at a given data-bus utilisation."""
        return (self.idd4r_ma - self.idd3n_ma) * 1e-3 * self.vdd * bus_utilization

    def write_w(self, bus_utilization: float) -> float:
        return (self.idd4w_ma - self.idd3n_ma) * 1e-3 * self.vdd * bus_utilization

    def refresh_w(self, timing: DramTiming) -> float:
        """Average refresh power (tRFC burst every tREFI)."""
        duty = timing.rfc / timing.refi
        return (self.idd5b_ma - self.idd3n_ma) * 1e-3 * self.vdd * duty


@dataclass(frozen=True)
class DimmPowerModel:
    """Power of one (LR-)DIMM: DRAM packages plus buffer overheads.

    The default profile is a 128 GB 3DS LR-DIMM (the paper's Section 6.5
    module, after Hynix [28]): 4 ranks of 18 x4 packages (16 data + 2 ECC),
    each package a 4-high stack of 8 Gb dies.  Secondary dies in a stack
    burn background/refresh power at a reduced factor (shared peripheery,
    no I/O).
    """

    device: DramDevicePower = DramDevicePower()
    devices_per_rank: int = 18
    ranks: int = 4
    dies_per_device: int = 4
    #: Background/refresh scaling of each non-primary die in a 3DS stack.
    secondary_die_factor: float = 0.35
    #: Data-buffer + RCD power of an LR-DIMM (per DIMM, worst case).
    buffer_w: float = 1.6
    #: I/O / termination adder at full bus utilisation (whole DIMM).
    termination_w: float = 1.2

    @property
    def total_devices(self) -> int:
        return self.devices_per_rank * self.ranks

    @property
    def _stack_factor(self) -> float:
        """Background multiplier of one package relative to one die."""
        return 1.0 + (self.dies_per_device - 1) * self.secondary_die_factor

    def _package_background_w(self, active: bool, timing: DramTiming) -> float:
        per_die = self.device.background_w(1.0 if active else 0.0)
        refresh = self.device.refresh_w(timing)
        return (per_die + refresh) * self._stack_factor

    def idle_w(self, timing: DramTiming = DDR4_3200) -> float:
        """All ranks in precharge standby, refresh running."""
        return self._package_background_w(False, timing) * self.total_devices + self.buffer_w

    def active_w(
        self,
        read_utilization: float,
        write_utilization: float,
        acts_per_second: float,
        timing: DramTiming = DDR4_3200,
        active_ranks: int = 1,
    ) -> float:
        """Power with one or more ranks streaming.

        Only ``active_ranks`` ranks see column traffic; the rest idle in
        standby.  Utilisations are fractions of the data bus carrying read
        and write bursts respectively.
        """
        if read_utilization + write_utilization > 1.0 + 1e-9:
            raise ValueError("combined bus utilisation cannot exceed 1")
        active_devices = self.devices_per_rank * active_ranks
        idle_devices = self.total_devices - active_devices
        active_per_device = (
            self._package_background_w(True, timing)
            + self.device.activate_w(acts_per_second / active_devices, timing)
            + self.device.read_w(read_utilization)
            + self.device.write_w(write_utilization)
        )
        idle_per_device = self._package_background_w(False, timing)
        util = read_utilization + write_utilization
        return (
            active_per_device * active_devices
            + idle_per_device * idle_devices
            + self.buffer_w
            + self.termination_w * util
        )

    def power_from_stats(
        self, stats: "ControllerStats", timing: DramTiming = DDR4_3200
    ) -> float:
        """DIMM power during a simulated controller run."""
        if stats.finish_cycle <= 0:
            return self.idle_w(timing)
        elapsed_s = timing.cycles_to_seconds(stats.finish_cycle)
        bus_util = stats.data_bus_cycles / stats.finish_cycle
        reads = stats.reads / max(1, stats.accesses)
        return self.active_w(
            read_utilization=bus_util * reads,
            write_utilization=bus_util * (1 - reads),
            acts_per_second=stats.activates / elapsed_s,
            timing=timing,
        )
