"""System configuration (Table I of the paper) and scaling knobs.

Every structural parameter the evaluation sweeps (L2C MSHR entries, LLC
size, DRAM transfer rate, core count) lives here so that the constrained
evaluation of Fig. 12 is a pure configuration sweep.
"""

from __future__ import annotations

import dataclasses
import os
import re
from dataclasses import dataclass, field


@dataclass
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    ways: int
    latency: int          # access latency in cycles
    mshr_entries: int
    block_bytes: int = 64

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.ways * self.block_bytes)

    def validate(self) -> None:
        if self.size_bytes % (self.ways * self.block_bytes):
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"ways*block ({self.ways}*{self.block_bytes})"
            )
        if self.sets & (self.sets - 1):
            raise ValueError(f"{self.name}: set count {self.sets} not a power of two")


@dataclass
class TLBConfig:
    """Geometry and timing of one TLB level."""

    name: str
    entries: int
    ways: int
    latency: int
    mshr_entries: int

    @property
    def sets(self) -> int:
        return self.entries // self.ways


@dataclass
class DRAMConfig:
    """DRAM timing/bandwidth model parameters.

    ``transfer_rate_mts`` sets the per-channel bandwidth; at 4GHz core clock
    one 64B line occupies the channel for ``64 / (rate * 8 / 4000)`` cycles.
    Row-buffer hits skip the precharge+activate latency.
    """

    size_bytes: int = 8 << 30
    transfer_rate_mts: int = 3200
    channels: int = 1
    banks_per_channel: int = 8
    row_bytes: int = 8192
    row_hit_latency: int = 110     # cycles: queue + CAS + transfer start
    row_miss_latency: int = 165    # cycles: + precharge + activate
    core_clock_mhz: int = 4000

    @property
    def cycles_per_transfer(self) -> float:
        """Core cycles one 64B line occupies a channel's data bus."""
        bytes_per_usec = self.transfer_rate_mts * 8  # MT/s * 8B per transfer
        cycles_per_usec = self.core_clock_mhz
        return 64.0 * cycles_per_usec / bytes_per_usec


#: Set-Dueling selection policies (``DuelingConfig.policy``).
DUELING_POLICIES = ("proposed", "standard", "page-size")


@dataclass
class DuelingConfig:
    """Set-Dueling selector parameters (Section IV-B of the paper)."""

    leader_sets: int = 32          # per competing prefetcher
    csel_bits: int = 3
    #: 'proposed' trains both prefetchers on all accesses (paper default);
    #: 'standard' trains only the selected one (Fig. 11 SD-Standard);
    #: 'page-size' statically selects by the access's page-size bit.
    policy: str = "proposed"


@dataclass
class SystemConfig:
    """Full single-core system configuration (Table I defaults)."""

    # Core
    rob_entries: int = 352
    fetch_width: int = 4
    # TLBs
    dtlb: TLBConfig = field(default_factory=lambda: TLBConfig("DTLB", 64, 4, 1, 8))
    itlb: TLBConfig = field(default_factory=lambda: TLBConfig("ITLB", 64, 4, 1, 8))
    stlb: TLBConfig = field(default_factory=lambda: TLBConfig("STLB", 1536, 12, 8, 16))
    # Caches
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1I", 32 << 10, 8, 4, 8))
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1D", 48 << 10, 12, 5, 16))
    l2c: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2C", 512 << 10, 8, 10, 32))
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig("LLC", 2 << 20, 16, 20, 64))
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    dueling: DuelingConfig = field(default_factory=DuelingConfig)
    # Page walk
    pwc_entries: int = 32          # MMU (page-structure) cache entries
    page_walk_levels_4k: int = 4
    page_walk_levels_2m: int = 3
    page_walk_levels_1g: int = 2
    # PPM
    ppm_enabled: bool = True       # page-size bit present in L1D MSHR
    ppm_to_llc: bool = False       # also propagate via L2C MSHR to LLC pref.
    #: Concurrently supported page sizes (2 = 4KB+2MB; 3 adds 1GB and
    #: widens PPM to ceil(log2 3) = 2 bits per L1D MSHR entry).
    num_page_sizes: int = 2
    #: Synergistic next-page TLB prefetching (the paper's footnote 3):
    #: on an STLB miss, the translation of the next virtual page is walked
    #: in the background and installed, so L1D page-crossing prefetchers
    #: (IPCP++) find translations resident more often.
    tlb_prefetch: bool = False

    def validate(self) -> None:
        for cache in (self.l1i, self.l1d, self.l2c, self.llc):
            cache.validate()
        if self.dueling.leader_sets * 2 > self.l2c.sets:
            raise ValueError("leader sets exceed L2C set count")
        if self.dueling.policy not in DUELING_POLICIES:
            raise ValueError(f"dueling.policy must be one of "
                             f"{DUELING_POLICIES}, got "
                             f"{self.dueling.policy!r}")

    def scaled_llc(self, size_bytes: int) -> "SystemConfig":
        """Return a copy with a different LLC capacity (Fig. 12B sweep)."""
        cfg = dataclasses.replace(self)
        cfg.llc = dataclasses.replace(self.llc, size_bytes=size_bytes)
        return cfg

    def scaled_l2c_mshr(self, entries: int) -> "SystemConfig":
        """Return a copy with a different L2C MSHR size (Fig. 12A sweep)."""
        cfg = dataclasses.replace(self)
        cfg.l2c = dataclasses.replace(self.l2c, mshr_entries=entries)
        return cfg

    def scaled_dram(self, transfer_rate_mts: int) -> "SystemConfig":
        """Return a copy with a different DRAM rate (Fig. 12C sweep)."""
        cfg = dataclasses.replace(self)
        cfg.dram = dataclasses.replace(self.dram, transfer_rate_mts=transfer_rate_mts)
        return cfg

    def describe(self) -> str:
        """Render the configuration as a Table-I style text block."""
        rows = [
            ("CPU Core", f"{self.fetch_width}-wide, {self.rob_entries}-entry ROB"),
            ("L1 ITLB/DTLB", f"{self.dtlb.entries}-entry, {self.dtlb.ways}-way, "
             f"{self.dtlb.latency}-cycle, {self.dtlb.mshr_entries}-entry MSHR"),
            ("L2 TLB", f"{self.stlb.entries}-entry, {self.stlb.ways}-way, "
             f"{self.stlb.latency}-cycle, {self.stlb.mshr_entries}-entry MSHR"),
        ]
        for cache in (self.l1i, self.l1d, self.l2c, self.llc):
            rows.append((cache.name, f"{cache.size_bytes >> 10}KB, {cache.ways}-way, "
                         f"{cache.latency}-cycle, {cache.mshr_entries}-entry MSHR"))
        rows.append(("Set Dueling", f"{self.dueling.leader_sets} leader sets each, "
                     f"{self.dueling.csel_bits}-bit Csel"))
        rows.append(("DRAM", f"{self.dram.size_bytes >> 30}GB, "
                     f"{self.dram.transfer_rate_mts}MT/s, "
                     f"{self.dram.channels} channel(s)"))
        width = max(len(r[0]) for r in rows)
        return "\n".join(f"{name:<{width}}  {desc}" for name, desc in rows)


class ConfigurationError(RuntimeError):
    """A REPRO_* environment knob holds an unusable value.

    Deliberately *not* a ``ValueError``: the supervisor treats
    ``ValueError`` raised inside a worker as a permanent simulation
    failure, whereas a bad knob is an operator mistake that must abort
    loudly in the parent process with a message naming the variable.
    """


class RequestError(ConfigurationError):
    """A run request names an experiment that cannot run.

    Raised by ``RunRequest.validate()`` (and by :func:`apply_override`
    while a request's configuration is built) before anything is
    scheduled; each surface maps it once: the CLI to ``error: ...`` and
    exit 2, serve to HTTP 400, a campaign to ``CampaignSpecError``.
    """


def resolve_config_path(config: SystemConfig, path: str):
    """Walk a dotted SystemConfig attribute path to (owner, leaf name)."""
    parts = path.split(".")
    obj = config
    for part in parts[:-1]:
        if not hasattr(obj, part):
            raise RequestError(
                f"unknown configuration path {path!r} "
                f"(no attribute {part!r} on {type(obj).__name__})")
        obj = getattr(obj, part)
    leaf = parts[-1]
    # Only dataclass fields: a property or method is not settable data.
    if not (dataclasses.is_dataclass(obj) and leaf in
            {f.name for f in dataclasses.fields(obj)}):
        raise RequestError(
            f"unknown configuration path {path!r} "
            f"(no field {leaf!r} on {type(obj).__name__})")
    return obj, leaf


def apply_override(config: SystemConfig, path: str, value) -> None:
    """Set one dotted-path override, enforcing type compatibility."""
    obj, leaf = resolve_config_path(config, path)
    current = getattr(obj, leaf)
    # bool first: it is an int subclass, and no bool passes as a number.
    for kind, accepted, what in ((bool, bool, "a bool"),
                                 (int, int, "an int"),
                                 (float, (int, float), "a number"),
                                 (str, str, "a string")):
        if isinstance(current, kind):
            if (not isinstance(value, accepted)
                    or kind is not bool and isinstance(value, bool)):
                raise RequestError(f"configuration path {path!r} expects "
                                   f"{what}, got {value!r}")
            setattr(obj, leaf, value)
            return
    raise RequestError(
        f"configuration path {path!r} targets a non-scalar field "
        f"({type(current).__name__}); address its scalar leaves instead")


def config_with(overrides) -> SystemConfig:
    """A default :class:`SystemConfig` with the dotted-path *overrides*
    (a mapping of path to scalar) applied."""
    config = SystemConfig()
    for path, value in overrides.items():
        apply_override(config, path, value)
    return config


def env_int(name: str, default: int, minimum: int | None = None) -> int:
    """Parse an integer environment knob, or raise ConfigurationError."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigurationError(
            f"{name} must be >= {minimum}, got {value}")
    return value


def env_float(name: str, default: float,
              minimum: float | None = None) -> float:
    """Parse a float environment knob, or raise ConfigurationError."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be a number, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigurationError(
            f"{name} must be >= {minimum}, got {value}")
    return value


def env_str(name: str, default: str,
            pattern: str | None = None) -> str:
    """Parse a string environment knob, or raise ConfigurationError.

    ``pattern`` (a regex, fullmatch) constrains values that end up in
    filenames or identifiers — a knob that fails it aborts loudly in
    the parent process instead of producing unreadable paths deep in a
    worker.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    value = raw.strip()
    if pattern is not None and not re.fullmatch(pattern, value):
        raise ConfigurationError(
            f"{name} must match {pattern!r}, got {value!r}")
    return value


#: Per-workload memory-access budget for each REPRO_SCALE setting.
SCALE_ACCESSES = {"tiny": 8_000, "small": 40_000, "medium": 200_000, "large": 1_000_000}
#: Multi-core mix count for each REPRO_SCALE setting.
SCALE_MIXES = {"tiny": 4, "small": 12, "medium": 40, "large": 100}


def current_scale() -> str:
    """Read the REPRO_SCALE env knob (default 'small')."""
    scale = os.environ.get("REPRO_SCALE", "small")
    if scale not in SCALE_ACCESSES:
        raise ValueError(f"unknown REPRO_SCALE {scale!r}; "
                         f"choose from {sorted(SCALE_ACCESSES)}")
    return scale


def accesses_for_scale(scale: str | None = None) -> int:
    """Memory accesses to simulate per workload at the given scale."""
    return SCALE_ACCESSES[scale or current_scale()]


def mixes_for_scale(scale: str | None = None) -> int:
    """Multi-core mixes to evaluate at the given scale."""
    return SCALE_MIXES[scale or current_scale()]
