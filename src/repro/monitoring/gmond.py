"""Simulated Ganglia monitoring daemon (gmond).

One :class:`Gmond` runs per VM.  Every *heartbeat* seconds it reads the
VM's /proc views, derives the 29 default Ganglia metrics plus the 4
vmstat extensions (rates from counter deltas over the heartbeat window),
applies a small measurement-noise model, and announces the full 33-metric
vector on the cluster's multicast channel.
"""

from __future__ import annotations

import numpy as np

from ..metrics.catalog import ALL_METRIC_NAMES, NUM_METRICS, metric_index
from ..obs import InstrumentSpec, LabelledSpecs, get as obs_get
from ..vm.machine import VirtualMachine
from .multicast import MetricAnnouncement, MulticastChannel
from .procfs import SimulatedProcFS
from .vmstat import VmstatCollector

#: Default announcement interval — the paper samples every 5 seconds.
DEFAULT_HEARTBEAT: float = 5.0

#: Relative measurement noise applied to rate metrics.
RATE_NOISE_STD: float = 0.02

#: Absolute noise (percentage points) applied to CPU percentages.
CPU_NOISE_STD: float = 0.35

_RATE_METRICS = ("bytes_in", "bytes_out", "pkts_in", "pkts_out", "io_bi", "io_bo", "swap_in", "swap_out")
_CPU_PCT_METRICS = ("cpu_user", "cpu_system", "cpu_idle", "cpu_nice", "cpu_wio")

_ANNOUNCEMENTS = LabelledSpecs(
    InstrumentSpec.counter("monitoring.gmond.announcements", "Heartbeats announced per gmond."), "node"
)


class Gmond:
    """Per-VM metric collection and announcement daemon.

    Parameters
    ----------
    vm:
        The VM whose counters are observed.
    channel:
        Multicast channel announcements are published on.
    rng:
        Noise generator (derive per-gmond streams from a root seed for
        deterministic experiments).
    heartbeat:
        Announcement interval in seconds.
    """

    def __init__(
        self,
        vm: VirtualMachine,
        channel: MulticastChannel,
        rng: np.random.Generator,
        heartbeat: float = DEFAULT_HEARTBEAT,
    ) -> None:
        if heartbeat <= 0:
            raise ValueError("heartbeat must be positive")
        self.vm = vm
        self.channel = channel
        self.rng = rng
        self.heartbeat = float(heartbeat)
        self.procfs = SimulatedProcFS(vm)
        self.vmstat = VmstatCollector(vm)
        self._last_stat: dict[str, float] | None = None
        self._last_net: dict[str, float] | None = None
        self._last_time: float | None = None
        self._next_announce = self.heartbeat
        self.announcement_count = 0

    # ------------------------------------------------------------------
    # engine hook
    # ------------------------------------------------------------------
    def on_tick(self, now: float) -> None:
        """Engine tick listener: announce when the heartbeat elapses."""
        if now + 1e-9 >= self._next_announce:
            self.announce(now)
            self._next_announce += self.heartbeat

    # ------------------------------------------------------------------
    # metric derivation
    # ------------------------------------------------------------------
    def collect(self, now: float) -> np.ndarray:
        """Derive the full 33-metric vector at time *now* (with noise)."""
        values = np.zeros(NUM_METRICS, dtype=np.float64)

        def put(name: str, value: float) -> None:
            values[metric_index(name)] = value

        stat = self.procfs.stat()
        net = self.procfs.net_dev()
        vmstat = self.vmstat.sample(now)

        window = None
        if self._last_time is not None:
            window = now - self._last_time
            if window <= 0:
                raise ValueError("gmond sampled without time advancing")

        # --- CPU percentages over the window ---------------------------
        if window is not None and self._last_stat is not None:
            jiffies = window * 100.0 * self.vm.vcpus
            for mode, metric in (
                ("user", "cpu_user"),
                ("system", "cpu_system"),
                ("idle", "cpu_idle"),
                ("nice", "cpu_nice"),
                ("iowait", "cpu_wio"),
            ):
                delta = stat[mode] - self._last_stat[mode]
                put(metric, 100.0 * delta / jiffies)
        else:
            put("cpu_idle", 100.0)

        total_jiffies = stat["user"] + stat["nice"] + stat["system"] + stat["idle"] + stat["iowait"]
        put("cpu_aidle", 100.0 * stat["idle"] / total_jiffies if total_jiffies > 0 else 100.0)
        put("cpu_num", float(self.vm.vcpus))
        host = self.vm.host
        put("cpu_speed", host.capacity.cpu_mhz if host is not None else 0.0)

        # --- load / processes -------------------------------------------
        one, five, fifteen = self.procfs.loadavg()
        put("load_one", one)
        put("load_five", five)
        put("load_fifteen", fifteen)
        put("proc_run", float(self.vm.counters.proc_run))
        put("proc_total", float(self.vm.counters.proc_total))

        # --- memory -------------------------------------------------------
        mem = self.procfs.meminfo()
        put("mem_total", mem["MemTotal"])
        put("mem_free", mem["MemFree"])
        put("mem_shared", mem["MemShared"])
        put("mem_buffers", mem["Buffers"])
        put("mem_cached", mem["Cached"])
        put("swap_total", mem["SwapTotal"])
        put("swap_free", mem["SwapFree"])

        # --- network rates --------------------------------------------------
        if window is not None and self._last_net is not None:
            put("bytes_in", (net["rx_bytes"] - self._last_net["rx_bytes"]) / window)
            put("bytes_out", (net["tx_bytes"] - self._last_net["tx_bytes"]) / window)
            put("pkts_in", (net["rx_packets"] - self._last_net["rx_packets"]) / window)
            put("pkts_out", (net["tx_packets"] - self._last_net["tx_packets"]) / window)

        # --- disk gauges ------------------------------------------------------
        disk_total = host.capacity.disk_total_gb if host is not None else 40.0
        put("disk_total", disk_total)
        put("disk_free", max(disk_total - self.vm.counters.disk_used_gb, 0.0))
        put("part_max_used", 100.0 * self.vm.counters.disk_used_gb / disk_total)

        # --- system -------------------------------------------------------------
        put("boottime", 0.0)
        put("sys_clock", now)

        # --- vmstat extensions -----------------------------------------------
        put("io_bi", vmstat.io_bi)
        put("io_bo", vmstat.io_bo)
        put("swap_in", vmstat.swap_in)
        put("swap_out", vmstat.swap_out)

        self._last_stat = stat
        self._last_net = net
        self._last_time = now

        self._apply_noise(values)
        return values

    def _apply_noise(self, values: np.ndarray) -> None:
        """Measurement noise: relative on rates, absolute on CPU percents."""
        for name in _RATE_METRICS:
            i = metric_index(name)
            values[i] = max(values[i] * (1.0 + self.rng.normal(0.0, RATE_NOISE_STD)), 0.0)
        for name in _CPU_PCT_METRICS:
            i = metric_index(name)
            values[i] = float(np.clip(values[i] + self.rng.normal(0.0, CPU_NOISE_STD), 0.0, 100.0))

    def announce(self, now: float) -> MetricAnnouncement:
        """Collect and publish one announcement; returns it."""
        announcement = MetricAnnouncement(node=self.vm.name, timestamp=now, values=self.collect(now))
        self.channel.announce(announcement)
        self.announcement_count += 1
        obs_get(_ANNOUNCEMENTS[self.vm.name]).inc()
        return announcement


def metric_names() -> tuple[str, ...]:
    """The names, in order, of the vector a gmond announces."""
    return ALL_METRIC_NAMES
