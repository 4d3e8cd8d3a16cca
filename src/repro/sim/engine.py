"""Discrete-time execution engine.

Advances a :class:`~repro.vm.cluster.Cluster` in 1-second ticks.  Each
tick it:

1. collects the full-speed demands of all active workload instances,
   passes them through their VM's memory model (paging injection), and
   resolves contention via :mod:`repro.sim.contention`;
2. advances each instance's progress by its granted fraction (times the
   memory-pressure efficiency);
3. updates every VM's kernel-style counters from granted consumption,
   plus background daemon noise (so idle machines look like real idle
   machines);
4. fires tick listeners — the monitoring substrate hooks in here to take
   its 5-second Ganglia heartbeats.

The engine is fully deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..obs import InstrumentSpec, get as obs_get
from ..vm.cluster import Cluster
from ..vm.machine import VirtualMachine
from ..vm.resources import BLOCKS_PER_SWAP_KB, ResourceGrant
from ..workloads.base import WorkloadInstance
from .contention import InstanceDemand, allocate

_MIGRATIONS = InstrumentSpec.counter("sim.migrations", "Live migrations performed.")
_COMPLETIONS = InstrumentSpec.counter("sim.completions", "Workload passes completed.")
_TICKS = InstrumentSpec.counter("sim.ticks", "Simulation ticks advanced.")
_ACTIVE = InstrumentSpec.gauge("sim.active_instances", "Instances active in the last tick.")

#: Hard cap on simulation length, to catch runaway loops in tests.
DEFAULT_MAX_TICKS: int = 500_000

#: System-time cost charged to a VM running the server side of one
#: network stream, per unit of client progress fraction (cores).
SERVER_CPU_SYSTEM_PER_STREAM: float = 0.08


@dataclass
class DaemonNoiseModel:
    """Background daemon activity injected into every VM each tick.

    Idle machines are not silent: cron, syslog, gmond itself, and kernel
    threads produce small CPU blips, occasional disk flushes, and a
    trickle of network chatter.  The IDLE training class is learned from
    exactly this residual activity.
    """

    cpu_user_range: tuple[float, float] = (0.001, 0.015)
    cpu_system_range: tuple[float, float] = (0.001, 0.010)
    io_burst_probability: float = 1.0 / 30.0
    io_burst_blocks: tuple[float, float] = (8.0, 50.0)
    net_bytes_range: tuple[float, float] = (200.0, 2500.0)

    def sample(self, rng: np.random.Generator) -> tuple[float, float, float, float]:
        """Return (cpu_user, cpu_system, io_blocks, net_bytes) for one tick."""
        cpu_u = rng.uniform(*self.cpu_user_range)
        cpu_s = rng.uniform(*self.cpu_system_range)
        io = rng.uniform(*self.io_burst_blocks) if rng.random() < self.io_burst_probability else 0.0
        net = rng.uniform(*self.net_bytes_range)
        return cpu_u, cpu_s, io, net


@dataclass
class CompletionEvent:
    """Records one finished workload pass."""

    time: float
    instance_key: int
    workload_name: str
    vm_name: str
    elapsed: float


@dataclass
class MigrationEvent:
    """Records one live migration of an instance between VMs."""

    time: float
    instance_key: int
    workload_name: str
    from_vm: str
    to_vm: str
    downtime_s: float


#: Default checkpoint/restart downtime for a migration (seconds).  Condor
#: -style checkpointing transfers the process image over the network; a
#: few seconds models a modest image on Gigabit Ethernet.
DEFAULT_MIGRATION_DOWNTIME_S: float = 5.0


TickListener = Callable[[float], None]


class SimulationEngine:
    """Drives workload instances over a cluster.

    Parameters
    ----------
    cluster:
        Topology to simulate.
    seed:
        Seed for the daemon-noise RNG (per-VM streams derived from it).
    dt:
        Tick length in seconds (1.0 reproduces the paper's setup; the
        monitoring interval of 5 s must be a multiple).
    """

    def __init__(self, cluster: Cluster, seed: int = 0, dt: float = 1.0) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.cluster = cluster
        self.dt = float(dt)
        self.now = 0.0
        self.tick_index = 0
        self.noise = DaemonNoiseModel()
        self._instances: dict[int, WorkloadInstance] = {}
        self._next_key = 0
        self._listeners: list[TickListener] = []
        self.completions: list[CompletionEvent] = []
        self.migrations: list[MigrationEvent] = []
        self._completed_keys: set[int] = set()
        self._killed_keys: set[int] = set()
        root = np.random.default_rng(seed)
        self._vm_rngs: dict[str, np.random.Generator] = {
            vm.name: np.random.default_rng(root.integers(0, 2**63 - 1))
            for vm in cluster.iter_vms()
        }

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def add_instance(self, instance: WorkloadInstance) -> int:
        """Register a workload instance; returns its engine key.

        Raises
        ------
        KeyError
            If the instance's VM is not in the cluster.
        """
        self.cluster.vm(instance.vm_name)  # raises KeyError if missing
        key = self._next_key
        self._next_key += 1
        self._instances[key] = instance
        return key

    def add_tick_listener(self, listener: TickListener) -> None:
        """Register a callable invoked with the new time after every tick."""
        self._listeners.append(listener)

    def instance(self, key: int) -> WorkloadInstance:
        """Return the instance registered under *key*."""
        return self._instances[key]

    def migrate(
        self,
        key: int,
        target_vm: str,
        downtime_s: float = DEFAULT_MIGRATION_DOWNTIME_S,
    ) -> MigrationEvent:
        """Live-migrate an instance to another VM (paper §1's motivation).

        The instance checkpoints, pauses for *downtime_s* (image transfer
        and restart), and resumes on the target VM from exactly where it
        left off — progress is preserved, as with Condor-style process
        checkpointing.

        Raises
        ------
        KeyError
            If the instance or the target VM is unknown.
        RuntimeError
            If the instance already completed.
        ValueError
            For a negative downtime or a self-migration.
        """
        inst = self._instances[key]
        if inst.done:
            raise RuntimeError("cannot migrate a completed instance")
        if downtime_s < 0:
            raise ValueError("downtime must be non-negative")
        self.cluster.vm(target_vm)  # KeyError if missing
        if target_vm == inst.vm_name:
            raise ValueError(f"instance already runs on {target_vm!r}")
        event = MigrationEvent(
            time=self.now,
            instance_key=key,
            workload_name=inst.workload.name,
            from_vm=inst.vm_name,
            to_vm=target_vm,
            downtime_s=downtime_s,
        )
        inst.vm_name = target_vm
        inst.paused_until = self.now + downtime_s
        self.migrations.append(event)
        obs_get(_MIGRATIONS).inc()
        return event

    def kill_instance(self, key: int) -> None:
        """Fault injection: terminate an instance immediately.

        The instance is removed from the run — no completion event is
        ever emitted for it, and its VM's counters simply stop advancing
        from its work (daemon noise continues).

        Raises
        ------
        KeyError
            If the instance is unknown.
        RuntimeError
            If it already completed (nothing left to kill).
        """
        inst = self._instances[key]
        if inst.done:
            raise RuntimeError("instance already completed")
        del self._instances[key]
        self._killed_keys.add(key)

    def was_killed(self, key: int) -> bool:
        """True if *key* was removed by :meth:`kill_instance`."""
        return key in self._killed_keys

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def all_done(self) -> bool:
        """True when every non-looping instance has finished."""
        return all(inst.done or inst.loop for inst in self._instances.values())

    def run(self, until: float | None = None, max_ticks: int = DEFAULT_MAX_TICKS) -> None:
        """Advance the simulation.

        With *until* given, runs to that time; otherwise runs until every
        non-looping instance completes.

        Raises
        ------
        RuntimeError
            If *max_ticks* elapse first (runaway guard), or if no end
            condition exists (all instances loop and no *until*).
        """
        if until is None and all(inst.loop for inst in self._instances.values()) and self._instances:
            raise RuntimeError("all instances loop forever; pass an explicit 'until' time")
        ticks = 0
        while True:
            if until is not None and self.now >= until - 1e-9:
                return
            if until is None and self.all_done():
                return
            self.step()
            ticks += 1
            if ticks > max_ticks:
                raise RuntimeError(f"simulation exceeded {max_ticks} ticks")

    def step(self) -> None:
        """Advance the simulation by one tick."""
        t = self.now
        dt = self.dt
        active: list[tuple[int, WorkloadInstance]] = [
            (key, inst) for key, inst in self._instances.items() if inst.has_started(t)
        ]

        # -- 1. demands through the VM memory model ---------------------
        # Co-located instances share their VM's RAM: memory pressure is
        # evaluated on the *sum* of working sets in each VM.
        working_sets: dict[str, float] = {vm.name: 0.0 for vm in self.cluster.iter_vms()}
        for _key, inst in active:
            working_sets[inst.vm_name] += inst.current_phase().demand.mem_mb

        demands: list[InstanceDemand] = []
        efficiencies: dict[int, float] = {}
        remote_streams: dict[str, list[tuple[int, float, float]]] = {}
        for key, inst in active:
            vm = self.cluster.vm(inst.vm_name)
            phase = inst.current_phase()
            nominal = phase.demand
            vm_ws = working_sets[vm.name]
            effective = vm.effective_demand(
                nominal, tick=self.tick_index, vm_working_set_mb=vm_ws
            )
            pressure = vm.memory_pressure(vm_ws)
            efficiencies[key] = pressure.efficiency
            remote_host = None
            if phase.remote_vm is not None:
                remote_vm = self.cluster.vm(phase.remote_vm)
                if remote_vm.host is None:
                    raise ValueError(f"server VM {phase.remote_vm!r} has no host")
                remote_host = remote_vm.host
                remote_streams.setdefault(phase.remote_vm, []).append(
                    (key, effective.net_out, effective.net_in)
                )
            demands.append(InstanceDemand(key=key, vm=vm, demand=effective, remote_host=remote_host))

        # -- 2. contention resolution -----------------------------------
        report = allocate(demands)

        # -- 3. progress -------------------------------------------------
        for key, inst in active:
            fraction = report.fractions[key] * efficiencies[key]
            inst.advance(granted_fraction=min(fraction, 1.0), dt=dt, now=t)

        # -- 4. counters --------------------------------------------------
        per_vm_grants: dict[str, list[ResourceGrant]] = {}
        for key, inst in active:
            per_vm_grants.setdefault(inst.vm_name, []).append(report.grants[key])
        for vm in self.cluster.iter_vms():
            self._update_vm_counters(
                vm,
                grants=per_vm_grants.get(vm.name, []),
                working_set_mb=working_sets.get(vm.name, 0.0),
                server_streams=[
                    (report.fractions[k], out_rate, in_rate)
                    for (k, out_rate, in_rate) in remote_streams.get(vm.name, [])
                ],
            )

        # -- 5. completions & time ----------------------------------------
        self.now = t + dt
        self.tick_index += 1
        for key, inst in active:
            if inst.done and key not in self._completed_keys:
                self._completed_keys.add(key)
                elapsed = inst.elapsed()
                assert elapsed is not None
                self.completions.append(
                    CompletionEvent(
                        time=self.now,
                        instance_key=key,
                        workload_name=inst.workload.name,
                        vm_name=inst.vm_name,
                        elapsed=elapsed,
                    )
                )
                obs_get(_COMPLETIONS).inc()
        for listener in self._listeners:
            listener(self.now)
        obs_get(_TICKS).inc()
        obs_get(_ACTIVE).set(float(len(active)))

    # ------------------------------------------------------------------
    # counter plumbing
    # ------------------------------------------------------------------
    def _update_vm_counters(
        self,
        vm: VirtualMachine,
        grants: list[ResourceGrant],
        working_set_mb: float,
        server_streams: list[tuple[float, float, float]],
    ) -> None:
        dt = self.dt
        rng = self._vm_rngs[vm.name]
        noise_cpu_u, noise_cpu_s, noise_io, noise_net = self.noise.sample(rng)

        user = noise_cpu_u * dt
        system = noise_cpu_s * dt
        io_in = 0.0
        io_out = noise_io * dt
        swap_i = 0.0
        swap_o = 0.0
        net_i = noise_net * dt
        net_o = noise_net * 0.6 * dt
        runnable = 0.0
        for g in grants:
            user += g.cpu_user * dt
            system += g.cpu_system * dt
            io_in += (g.io_bi + g.swap_in * BLOCKS_PER_SWAP_KB) * dt
            io_out += (g.io_bo + g.swap_out * BLOCKS_PER_SWAP_KB) * dt
            swap_i += g.swap_in * dt
            swap_o += g.swap_out * dt
            net_i += g.net_in * dt
            net_o += g.net_out * dt
            runnable += min(1.0, g.cpu_user + g.cpu_system + (1.0 if g.io_bi + g.io_bo > 0 else 0.0) * 0.2)

        # Server side of network streams terminating at this VM.
        for fraction, client_out, client_in in server_streams:
            net_i += client_out * fraction * dt
            net_o += client_in * fraction * dt
            system += SERVER_CPU_SYSTEM_PER_STREAM * fraction * dt
            runnable += 0.3 * fraction

        capacity_s = vm.vcpus * dt
        busy = user + system
        if busy > capacity_s:
            scale = capacity_s / busy
            user *= scale
            system *= scale
            busy = capacity_s
        # I/O-wait grows with this VM's share of host disk bandwidth.
        host = vm.host
        wio = 0.0
        if host is not None and (io_in + io_out) > 0:
            disk_frac = min((io_in + io_out) / dt / host.capacity.disk_blocks_per_s, 1.0)
            wio = min(capacity_s - busy, 0.5 * disk_frac * dt)
        idle = max(capacity_s - busy - wio, 0.0)

        c = vm.counters
        c.account_cpu(user_s=user, system_s=system, wio_s=wio, nice_s=0.0, idle_s=idle)
        c.account_io(blocks_in=io_in, blocks_out=io_out)
        c.account_swap(kb_in=swap_i, kb_out=swap_o)
        c.account_net(bytes_in=net_i, bytes_out=net_o)
        c.proc_run = int(round(runnable)) + (1 if rng.random() < 0.1 else 0)
        c.proc_total = 60 + 3 * len(grants)
        c.advance_time(dt, runnable + 0.05)
        vm.update_memory_gauges(working_set_mb)
