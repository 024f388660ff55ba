"""Virtual device: the per-kernel launch ledger.

Every kernel in the repository takes a :class:`VirtualDevice` and calls
:meth:`VirtualDevice.launch` with the counters describing the work it just
performed. The device converts counters to modelled seconds using its
:class:`~repro.gpu.device.DeviceProfile` and keeps a ledger that benches
query per pipeline module.

Kernels may be attributed to a pipeline module either by a ``module=`` kwarg
on :meth:`launch` or by running inside a :meth:`VirtualDevice.region`
context (the engines use regions so substrate code stays module-agnostic).

``launch`` is two verbs in one call: :meth:`VirtualDevice.price` turns
``(name, counters)`` into a :class:`KernelRecord` (module and profile
resolved, seconds computed) without touching the ledger, and
:meth:`VirtualDevice.record` appends priced records. A loop that issues
the same kernels over the same sizes prices them once and records the
same objects every pass (:class:`PricedLaunches`, and reused work:
:class:`KeptLaunches`) — which is why a record is immutable: one object
may stand at many ledger positions.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from repro.gpu.counters import KernelCounters
from repro.gpu.device import DeviceProfile, K40


class KernelRecord(NamedTuple):
    """One priced kernel launch — immutable, because :meth:`record` may
    put one object at many ledger positions. A tuple, not a frozen
    dataclass: that constructor costs every ``launch`` 0.45 us more."""

    name: str
    module: str | None
    counters: KernelCounters
    seconds: float


@dataclass
class VirtualDevice:
    """A device plus its launch ledger.

    Parameters
    ----------
    profile:
        The :class:`DeviceProfile` used to convert counters to time.

    Examples
    --------
    >>> from repro.gpu import VirtualDevice, K40, KernelCounters
    >>> dev = VirtualDevice(K40)
    >>> dev.launch("axpy", KernelCounters(flops=2e6, global_bytes_read=2.4e7,
    ...                                   global_txn_read=187500))
    >>> dev.total_time > 0
    True
    """

    profile: DeviceProfile = field(default_factory=lambda: K40)
    records: list[KernelRecord] = field(default_factory=list)
    _region_stack: list[str] = field(default_factory=list)

    def launch(
        self,
        name: str,
        counters: KernelCounters,
        *,
        module: str | None = None,
    ) -> float:
        """Record a kernel launch; returns the modelled time in seconds."""
        priced = self.price(name, counters, module=module)
        self.records.append(priced)
        return priced.seconds

    def price(
        self,
        name: str,
        counters: KernelCounters,
        *,
        module: str | None = None,
    ) -> KernelRecord:
        """What :meth:`launch` would record now, without recording it:
        the module comes from the region stack unless given, the seconds
        from the profile that prices kernels of this name."""
        if module is None and self._region_stack:
            module = self._region_stack[-1]
        seconds = self._profile_for(name).kernel_time(counters)
        return KernelRecord(name, module, counters, seconds)

    def record(self, priced: Iterable[KernelRecord]) -> None:
        """Append already-priced launches to the ledger, in order."""
        self.records.extend(priced)

    def _profile_for(self, name: str) -> DeviceProfile:
        """The profile that prices kernel ``name`` (here: the device's)."""
        return self.profile

    @contextmanager
    def region(self, module: str) -> Iterator[None]:
        """Attribute every launch inside the block to ``module``."""
        self._region_stack.append(module)
        try:
            yield
        finally:
            self._region_stack.pop()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def total_time(self) -> float:
        """Modelled seconds across all recorded launches."""
        return sum(r.seconds for r in self.records)

    @property
    def total_counters(self) -> KernelCounters:
        """Sum of counters across all launches."""
        total = KernelCounters()
        for r in self.records:
            total += r.counters
        return total

    def time_by_module(self) -> dict[str, float]:
        """Modelled seconds grouped by pipeline module (None -> 'other')."""
        out: dict[str, float] = {}
        for r in self.records:
            key = r.module or "other"
            out[key] = out.get(key, 0.0) + r.seconds
        return out

    def time_by_kernel(self) -> dict[str, float]:
        """Modelled seconds grouped by kernel name."""
        out: dict[str, float] = {}
        for r in self.records:
            out[r.name] = out.get(r.name, 0.0) + r.seconds
        return out

    def launches(self) -> int:
        """Number of kernel launches recorded."""
        return len(self.records)

    def launches_since(self, start: int) -> tuple[KernelRecord, ...]:
        """The priced records of every launch after the first ``start``:
        a slice :meth:`record` may append again, on this device and in
        the region that priced it, when the work it costs is reused."""
        return tuple(self.records[start:])

    def reset(self) -> None:
        """Clear the ledger (the profile is kept)."""
        self.records.clear()


class PricedLaunches:
    """``(name, counters)`` launches a loop repeats at fixed sizes:
    :meth:`record` appends what :meth:`VirtualDevice.launch` would, but
    prices them only when the device or its region (a record carries
    its module) differs from the last call's."""

    def __init__(self, *launches: tuple[str, KernelCounters]) -> None:
        self.launches = launches
        self._device: VirtualDevice | None = None
        self._module: str | None = None
        self._priced: tuple[KernelRecord, ...] = ()

    def record(self, device: VirtualDevice) -> None:
        module = device._region_stack[-1] if device._region_stack else None
        if device is not self._device or module != self._module:
            self._device, self._module = device, module
            self._priced = tuple(device.price(*launch) for launch in self.launches)
        device.record(self._priced)


class KeptLaunches:
    """Work kept across calls with the launches that priced it: :meth:`run`
    returns the kept result and records its launches again, in place of
    running the work, while the *key* (every array the result and the
    pricing read), the device and its region are the last run's exactly.
    ``counter`` (anything with ``inc()``) counts those hits."""

    def __init__(self, counter=None) -> None:
        self.counter, self.key, self.value = counter, (), None
        self.where: tuple = (None, None, ())  # device, region, records

    def holds(self, device: VirtualDevice | None, key: tuple) -> bool:
        """The gate: ``key``, ``device`` and its region are the kept ones."""
        kept, region, _ = self.where
        return (len(key) == len(self.key) > 0 and device is kept
                and getattr(device, "_region_stack", [])[-1:] == region
                and all(map(np.array_equal, key, self.key)))

    def run(self, device: VirtualDevice | None, work, *key):
        """``work()`` on ``device``, or its kept result; a miss keeps a copy
        of ``key``, so a later write to the caller's arrays only misses."""
        if self.holds(device, key):
            if device is not None:
                device.record(self.where[2])
            if self.counter is not None:
                self.counter.inc()
            return self.value
        n0 = 0 if device is None else device.launches()
        value = work()  # key copied after it: 0.2 MB less peak RSS on domain_slope
        self.key, self.value = tuple(map(np.array, key)), value
        self.where = (device, getattr(device, "_region_stack", [])[-1:],
                      () if device is None else device.launches_since(n0))
        return self.value


class RoutedVirtualDevice(VirtualDevice):
    """A ledger that prices each launch by a kernel-name-routed profile.

    Used by the hybrid CPU–GPU engine (the paper's predecessor design,
    ref [10]): kernels named ``serial_*`` are priced at the CPU profile,
    ``pcie_*`` at the host–device transfer profile, and everything else at
    the GPU profile — one ledger, three clocks.
    """

    def __init__(
        self,
        profile: DeviceProfile,
        routes: dict[str, DeviceProfile],
    ) -> None:
        super().__init__(profile=profile)
        self.routes = dict(routes)

    def _profile_for(self, name: str) -> DeviceProfile:
        for prefix, routed in self.routes.items():
            if name.startswith(prefix):
                return routed
        return self.profile
