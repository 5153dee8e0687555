"""Deterministic model of a client->server path through OpenFlow switches.

Topology convention: node 0 is the client, forward link i connects node i to
node i+1, and switch j sits at node j+1 (so its egress is forward link j+1).
Every switch on the path performs a real table lookup and requires rule
installation on a miss; the number of switches is the fingerprint k.

Timing model per forward link: a data packet may not begin transmission
before the previous packet on that link finished transmitting (FIFO), cross
traffic inserts a sampled delay into the service, and propagation adds
base_latency after transmission:

    finish = max(ready, link_busy) + cross_delay [+ surcharge] + S/B
    arrival_at_next_node = finish + base_latency

A table miss charges the path's `lookup_delay` (the controller's) plus the
slowest switch's install delay once.  The charge is applied as a service
surcharge at the detecting switch's egress to every same-flow packet that
arrives while the install is still in progress; the trigger itself pays it,
and a packet queued right behind the trigger therefore leaves one surcharge
later, which is what makes the pair gap grow by the penalty.  A CLEAR deletes
the rules the path's `clear_delay_ns` after it reaches the outermost switch.

Replies never queue: a reply of the path's `reply_bytes` leaves the server
`turnaround_ns` after its probe arrived and takes independent per-hop delays,
so a reply overtaken by its predecessor's reverse-path jitter yields a
negative measured dispersion.  The path's `drift` adds a slow wander to the
server arrival.

Each spec (`LinkSpec`, `SwitchSpec`, `Packet`, `PathSpec`) checks its own
rules as it is built, and a ValueError it raises starts with the field that
breaks one, so a caller can name that field its own way.

Two implementations share these semantics and one outcome type,
`ExchangeResult`:

* `simulate_trials` is the engine.  It runs one single-flow schedule for many
  independent trials at once: every quantity above is a numpy array over a
  trial axis, and each packet x hop step applies the FIFO recursion to all
  trials together.  Whether the flow's rules are installed, install windows,
  pending CLEARs and delay-element activity are per-trial state arrays; the
  branches of the switch model are masks over them.  The drift and the
  replies are added after the recursion, to one [packet, trial] array each.
* `Simulation` is the scalar reference model: one trial, one packet at a
  time, with Python objects for tables and windows, drawing from the
  `RngStreams` it is given.  Only `probes.run_schedule_reference` runs it, and
  through that the differential tests, which hold the engine to it trace for
  trial.

Randomness.  Every trial owns four independent named PCG64 streams, and
both implementations consume each stream in the same order, so they produce
the same bits.  Stream i of trial t is numpy's
Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(group, t, i)))).  The
reference model's `RngStreams` builds exactly that with numpy.  The engine's
`TrialStreams` reimplements it over the trial axis, and the differential tests
hold it to numpy: `spawn_state` computes the seed words of one stream for all
trials in one pass, and `pcg64_random` runs PCG64's `random()` on them, so a
stream whose draws are all `random()` is drawn as one [trial, n] block with no
Generator built.  That covers `cross` (one `random()` per hop with Pareto
cross traffic, the only draw `LinkSpec` takes), `defense` (one per
delay-element hold) and `control` when its lookup and install models are
Pareto.  numpy's `standard_normal()` ziggurat is not reproduced, so `drift`
(one per send time that advances the clock) and a `control` stream with a
lognormal delay draw their block from one Generator per trial.  numpy's block
draws equal the same number of scalar calls, so every stream is one block per
trial, read as the reference model draws: `cross` and `drift` in a layout the
schedule fixes, `control` and `defense` through a per-trial cursor, event by
event in packet order (see `_TrialBatch`).  Every draw becomes a delay
through one array transform, `DelayModel.ns_from_draws`, which rounds to the
same integer nanoseconds as the scalar samplers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import defense
from .distributions import NO_DELAY, DelayModel
from .units import NS_PER_MS, div_round_half_up

DEFAULT_REPLY_BYTES = 64
DEFAULT_CLEAR_DELAY_NS = 10 * NS_PER_MS
DEFAULT_TABLE_CAPACITY = 1024

CLEAR = "CLEAR"
PROBE = "PROBE"


@dataclass(frozen=True)
class FlowKey:
    """Exact-match header tuple; two packets belong to the same flow iff equal."""

    src: str
    dst: str
    proto: str = "udp"
    src_port: int = 40000
    dst_port: int = 9

    def reversed(self) -> "FlowKey":
        return FlowKey(self.dst, self.src, self.proto, self.dst_port, self.src_port)

    def compact(self) -> str:
        return f"{self.src}:{self.src_port}>{self.dst}:{self.dst_port}/{self.proto}"


class FlowTable:
    """Exact-match rule container with a hard capacity."""

    def __init__(self, capacity: int = DEFAULT_TABLE_CAPACITY):
        self.capacity = capacity
        self.entries: set[FlowKey] = set()

    def __contains__(self, key: FlowKey) -> bool:
        return key in self.entries

    def install(self, key: FlowKey) -> bool:
        """Install one rule; returns False when the table is full."""
        if key in self.entries:
            return True
        if len(self.entries) >= self.capacity:
            return False
        self.entries.add(key)
        return True

    def clear(self) -> None:
        self.entries.clear()


@dataclass(frozen=True)
class LinkSpec:
    capacity_bps: int
    base_latency_ns: int = 0
    cross_traffic: DelayModel = NO_DELAY

    def __post_init__(self):
        if self.capacity_bps <= 0:
            raise ValueError("capacity_bps: must be positive")
        if self.base_latency_ns < 0:
            raise ValueError("base_latency_ns: must be >= 0")
        cross = self.cross_traffic
        if cross.draw_type not in (None, "random"):
            raise ValueError(f"cross_traffic: a {cross.kind} delay draws {cross.draw_type}(), "
                             "and the cross stream draws random() alone")


@dataclass(frozen=True)
class SwitchSpec:
    """Immutable switch description; each simulation builds its own flow table."""

    install_delay: DelayModel
    table_capacity: int = DEFAULT_TABLE_CAPACITY

    def __post_init__(self):
        if self.table_capacity < 0:
            raise ValueError("table_capacity: must be >= 0")
        if self.install_delay.kind == "none" or (
            self.install_delay.kind == "constant" and self.install_delay.value_ns <= 0
        ):
            raise ValueError("install_delay: samples must be positive")


@dataclass(frozen=True)
class Packet:
    id: int
    key: FlowKey
    size_bytes: int
    kind: str = PROBE
    sent_at_ns: int = 0

    def __post_init__(self):
        if self.size_bytes <= 0:
            raise ValueError("size_bytes: must be positive")


@dataclass(frozen=True)
class DriftModel:
    """Slow wander of the path latency, for the time-span stability studies.

    A Wiener walk around a positive baseline, evaluated lazily at packet send
    times; sigma is in ns per sqrt(second).
    """

    sigma_ns_per_sqrt_s: float
    base_ns: int = 10 * NS_PER_MS


@dataclass(frozen=True)
class PathSpec:
    """The whole round trip of a probe: the forward links and the switches
    on them, the controller that answers their misses (its lookup delay, and
    the delay after which a CLEAR deletes the rules), the server's
    turnaround, the reply's size on the reverse links, and the path's slow
    wander."""

    forward_links: tuple[LinkSpec, ...]
    reverse_links: tuple[LinkSpec, ...]
    switches: tuple[SwitchSpec, ...] = ()
    delay_element: defense.DelayElementConfig | None = None  # at the outermost switch
    drift: DriftModel | None = None
    reply_bytes: int = DEFAULT_REPLY_BYTES
    turnaround_ns: int = 0
    lookup_delay: DelayModel = NO_DELAY
    clear_delay_ns: int = DEFAULT_CLEAR_DELAY_NS

    def __post_init__(self):
        object.__setattr__(self, "forward_links", tuple(self.forward_links))
        object.__setattr__(self, "reverse_links", tuple(self.reverse_links))
        object.__setattr__(self, "switches", tuple(self.switches))
        for name in ("forward_links", "reverse_links"):
            if not getattr(self, name):
                raise ValueError(f"{name}: a path needs 1 or more links each way")
        if len(self.switches) > len(self.forward_links) - 1:
            raise ValueError(f"switches: switch j needs egress link j+1, so {len(self.switches)} switches need "
                             f"{len(self.switches) + 1} or more forward links, got {len(self.forward_links)}")
        if self.delay_element is not None and not self.switches:
            raise ValueError("delay_element: needs at least one switch on the path")
        if self.reply_bytes <= 0:
            raise ValueError("reply_bytes: must be positive")
        for name in ("turnaround_ns", "clear_delay_ns"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0")


def transmission_delay_ns(size_bytes: int, link: LinkSpec) -> int:
    """S/B in integer ns, half-up: 1500 B at 100 Mbps -> 120000 ns."""
    if size_bytes <= 0:
        raise ValueError("size must be positive")
    return div_round_half_up(size_bytes * 8 * 1_000_000_000, link.capacity_bps)


@dataclass
class MissOutcome:
    """A miss's charge and the path positions of the tables it found full."""

    penalty_ns: int
    full_switch_ids: tuple[int, ...]


@dataclass
class ExchangeResult:
    """Outcome of a round trip: scalars for one packet in the reference model,
    [packet, trial] arrays (schedule and stream order) in the engine."""

    server_recv_ns: int | np.ndarray
    server_reply_send_ns: int | np.ndarray
    client_recv_ns: int | np.ndarray
    miss_flag: bool | np.ndarray
    table_full: bool | np.ndarray


STREAM_NAMES = ("cross", "control", "defense", "drift")

# numpy's SeedSequence constants: 32-bit words, a pool of four.
_MASK32 = 0xFFFF_FFFF
_INIT_A = 0x43B0_D7E5
_MULT_A = 0x931E_8875
_INIT_B = 0x8B51_F9DD
_MULT_B = 0x58F3_8DED
_MIX_MULT_L = 0xCA01_F9DD
_MIX_MULT_R = 0x4973_F715
_POOL_SIZE = 4
_XSHIFT = 16


def _words32(value: int, field: str) -> list[int]:
    """A non-negative int as little-endian 32-bit words (0 is one word)."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"{field} must be >= 0, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def spawn_state(seed: int, group: int, trials, stream: int) -> np.ndarray:
    """PCG64 seed words of stream `stream` of every trial, as a [trial, 4] uint64 array.

    Row j equals np.random.SeedSequence(entropy=seed, spawn_key=(group,
    trials[j], stream)).generate_state(4, np.uint64): numpy's pool mixing,
    bit for bit.  Every hash step masks to 32 bits, so the same expressions
    run on Python ints, for the words every trial shares, and on uint64
    arrays over the trial axis once the trial's word is mixed in.
    """
    trials = np.asarray(trials)
    if trials.ndim != 1 or trials.dtype.kind not in "iu":
        raise ValueError("trials must be a 1-d array of integers")
    if trials.size and (trials.min() < 0 or trials.max() > _MASK32):
        raise ValueError("trial numbers must lie in [0, 2**32)")
    run = _words32(seed, "seed")
    # numpy pads the run entropy to the pool size whenever a spawn key is given.
    entropy = [
        *run,
        *[0] * (_POOL_SIZE - len(run)),
        *_words32(group, "group"),
        trials.astype(np.uint64),
        *_words32(stream, "stream"),
    ]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const  # not in place: `value` may be the trial column
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    # generate_state(4, np.uint64): eight 32-bit words, paired low word first.
    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> _XSHIFT)
    return np.stack([lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])], axis=1)


# PCG64 (numpy's default bit generator): a 128-bit LCG with XSL-RR output.
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
_PCG_BLOCK = 16


def _u128(values: list[int]) -> tuple[np.ndarray, ...]:
    """128-bit constants as uint64 (hi, lo, lo & 0xFFFFFFFF, lo >> 32) arrays."""
    rows = [[v >> 64, v & _MASK64, v & _MASK32, (v & _MASK64) >> 32] for v in values]
    return tuple(np.array(rows, np.uint64).T)


def _mul128(hi, lo, c):
    """(hi, lo) * c mod 2**128 on uint64 halves, for a `_u128` constant c.

    Only lo * c_lo needs its high word, from 32-bit limbs; the cross terms
    are wrapping uint64 products.
    """
    c_hi, c_lo, c0, c1 = c
    a0, a1 = lo & _MASK32, lo >> 32
    t = a1 * c0 + (a0 * c0 >> 32)
    u = a0 * c1 + (t & _MASK32)
    return a1 * c1 + (t >> 32) + (u >> 32) + lo * c_hi + hi * c_lo, lo * c_lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg_tables(b: int):
    """M^(j+1) and sum_{i<=j} M^i for j = 1..b, then M^b and sum_{i<b} M^i."""
    powers, sums = [1], [0]
    for _ in range(b + 1):
        sums.append((sums[-1] + powers[-1]) & _MASK128)
        powers.append(powers[-1] * _PCG_MULT & _MASK128)
    return _u128(powers[2:]), _u128(sums[2:]), _u128([powers[b]]), _u128([sums[b]])


_PCG_FIRST_POW, _PCG_FIRST_SUM, _PCG_STEP_POW, _PCG_STEP_SUM = _pcg_tables(_PCG_BLOCK)


def pcg64_random(words: np.ndarray, n: int) -> np.ndarray:
    """`random(n)` of every trial's PCG64, as a [trial, n] float64 array.

    Row j equals np.random.Generator(np.random.PCG64(s)).random(n) for a seed
    sequence s whose generate_state(4, np.uint64) is words[j] (a `spawn_state`
    row), bit for bit.  PCG64 seeds with initstate = w0 << 64 | w1 and
    inc = (w2 << 64 | w3) << 1 | 1 as state = M * (initstate + inc) + inc;
    each draw steps state = M * state + inc mod 2**128 first, then outputs
    rotr64(hi ^ lo, state >> 122) >> 11, times 2**-53.  So draw j's state is
    M^(j+1) * (initstate + inc) + inc * sum_{i<=j} M^i: the first block of
    draws comes straight from precomputed powers, and each later block from
    the one before it, b = 16 draws on, by state' = M^b * state + inc *
    sum_{i<b} M^i.  Temporaries stay [trial, b].
    """
    words = np.asarray(words, np.uint64)
    seed_hi, seed_lo, inc_hi, inc_lo = (words[:, i, None] for i in range(4))
    inc_hi, inc_lo = inc_hi << 1 | inc_lo >> 63, inc_lo << 1 | 1
    t_hi, t_lo = _add128(seed_hi, seed_lo, inc_hi, inc_lo)
    b = min(n, _PCG_BLOCK)
    s_hi, s_lo = _add128(
        *_mul128(t_hi, t_lo, [c[:b] for c in _PCG_FIRST_POW]),
        *_mul128(inc_hi, inc_lo, [c[:b] for c in _PCG_FIRST_SUM]),
    )
    g_hi, g_lo = _mul128(inc_hi, inc_lo, _PCG_STEP_SUM)
    out = np.empty((len(words), n))
    for j in range(0, n, _PCG_BLOCK):
        if j:
            s_hi, s_lo = _add128(*_mul128(s_hi, s_lo, _PCG_STEP_POW), g_hi, g_lo)
        m = min(_PCG_BLOCK, n - j)
        hi = s_hi[:, :m]
        xored, rot = hi ^ s_lo[:, :m], hi >> 58
        x = (xored >> rot) | (xored << ((64 - rot) & 63))
        np.multiply(x >> 11, 2.0**-53, out=out[:, j : j + m])
    return out


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 one precomputed row of `spawn_state` as its seed.

    PCG64 asks its seed sequence for exactly generate_state(4, np.uint64).
    """

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self._words


class TrialStreams:
    """The named random streams of many trials, handed out once each.

    Stream i of trial t is seeded as SeedSequence(entropy=seed,
    spawn_key=(group, t, i)) would seed it; one `spawn_state` pass seeds a
    stream for every trial when it is handed out, so a stream the schedule
    never draws costs nothing.  `block(name, methods, n)` is each trial's
    first n draws as a [trial, n] array, draw i made by the Generator method
    methods[i % len(methods)].  `random` alone runs PCG64 over the trial axis
    (`pcg64_random`) and builds no Generator.  Otherwise each trial's
    Generator fills its row in place, one call per run of one method, because
    numpy's ziggurat is not reproduced here.  A stream handed out a second
    time would replay its draws from the start, so that raises.
    """

    def __init__(self, seed: int, trials, group: int = 0):
        self._seed = seed
        self._trials = trials
        self._group = group
        self._taken: set[str] = set()

    def __len__(self) -> int:
        return len(self._trials)

    def _seed_words(self, name: str) -> np.ndarray:
        if name not in STREAM_NAMES:
            raise ValueError(f"unknown stream {name!r}")
        if name in self._taken:
            raise RuntimeError(f"stream {name!r} was already drawn")
        self._taken.add(name)
        return spawn_state(self._seed, self._group, self._trials, STREAM_NAMES.index(name))

    def block(self, name: str, methods: tuple[str, ...], n: int) -> np.ndarray:
        words = self._seed_words(name)
        if set(methods) == {"random"}:
            return pcg64_random(words, n)
        # A run of one method is one call: numpy's block draws equal its scalar draws.
        cycled = [methods[i % len(methods)] for i in range(n)]
        cuts = [0, *(i for i in range(1, n) if cycled[i] != cycled[i - 1]), n]
        runs = [(cycled[a], a, b) for a, b in zip(cuts, cuts[1:]) if a < b]
        out = np.empty((len(words), n))
        for w, row in zip(words, out):
            gen = np.random.Generator(np.random.PCG64(_SeedWords(w)))
            for method, a, b in runs:
                getattr(gen, method)(out=row[a:b])
        return out


class RngStreams:
    """One trial's named generators, for the scalar reference model.

    Each is numpy's own Generator for SeedSequence(entropy=seed,
    spawn_key=(group, trial, i)), built on first access, so unrelated noise
    sources never share draws and the engine's seeding and PCG64 are held to
    numpy's.
    """

    def __init__(self, seed: int, trial: int = 0, group: int = 0):
        self._seed = seed
        self._spawn_key = (group, trial)

    def __getattr__(self, name: str) -> np.random.Generator:
        if name.startswith("_") or name not in STREAM_NAMES:
            raise AttributeError(name)
        seq = np.random.SeedSequence(self._seed, spawn_key=(*self._spawn_key, STREAM_NAMES.index(name)))
        gen = self.__dict__[name] = np.random.default_rng(seq)
        return gen


def handle_table_miss(
    key: FlowKey,
    path: PathSpec,
    streams: RngStreams,
    tables: tuple[FlowTable, ...],
) -> MissOutcome:
    """Install `key` bidirectionally at every switch, return the charge.

    The charge is the lookup delay plus the slowest switch's install delay,
    as the controller reconfigures every switch at once; the `control`
    stream draws the lookup first, then one install per switch in path
    order.  `tables` are the simulation's flow tables, one per switch.  A
    full table skips the install (the packet is still forwarded) and is
    reported by its position, not raised.
    """
    penalty = path.lookup_delay.sample_ns(streams.control)
    max_install = 0
    full: list[int] = []
    for s, (sw, table) in enumerate(zip(path.switches, tables)):
        max_install = max(max_install, sw.install_delay.sample_ns(streams.control))
        if not all([table.install(key), table.install(key.reversed())]):
            full.append(s)
    return MissOutcome(penalty_ns=penalty + max_install, full_switch_ids=tuple(full))


class _InstallWindow:
    __slots__ = ("start_ns", "end_ns", "penalty_ns")

    def __init__(self, start_ns: int, penalty_ns: int):
        self.start_ns = start_ns
        self.end_ns = start_ns + penalty_ns
        self.penalty_ns = penalty_ns


class Simulation:
    """Scalar reference model of one trial: owns FIFO, table and flow state.

    It draws from the trial's `RngStreams`, and only
    `probes.run_schedule_reference` runs it.  Every simulation builds its own
    empty flow tables, so simulations on one path never see each other's
    rules; pass warm_keys to start with rules pre-installed.
    """

    def __init__(
        self,
        path: PathSpec,
        streams: RngStreams,
        *,
        warm_keys: tuple[FlowKey, ...] = (),
    ):
        self.path = path
        self.streams = streams

        self.tables = tuple(FlowTable(sw.table_capacity) for sw in path.switches)
        for key in warm_keys:
            for table in self.tables:
                table.install(key)
                table.install(key.reversed())

        self.fwd_busy_ns = [0] * len(path.forward_links)
        self.pending_clear_ns: int | None = None
        self.install_windows: dict[tuple[int, FlowKey], _InstallWindow] = {}
        self.last_release_ns: dict[FlowKey, int] = {}
        self._wander_t_ns = 0
        self._wander_walk_ns = 0.0
        # The delay element's per-flow defense.ActivityRecord, by flow key.
        self.activity: dict = {}

    # -- drift ------------------------------------------------------------

    def _wander_at(self, t_ns: int) -> int:
        drift = self.path.drift
        if drift is None:
            return 0
        dt_ns = t_ns - self._wander_t_ns
        if dt_ns > 0:
            step = self.streams.drift.standard_normal()
            self._wander_walk_ns += step * drift.sigma_ns_per_sqrt_s * (dt_ns / 1e9) ** 0.5
            self._wander_t_ns = t_ns
        return max(0, int(drift.base_ns + self._wander_walk_ns))

    # -- control plane ----------------------------------------------------

    def _apply_pending_clear(self, now_ns: int) -> None:
        if self.pending_clear_ns is not None and now_ns >= self.pending_clear_ns:
            for table in self.tables:
                table.clear()
            self.install_windows.clear()
            # The flow's activity goes with its rules, which is what makes the
            # packets right after a table wipe count as inactive.
            self.activity.clear()
            self.pending_clear_ns = None

    def _switch_process(self, s_idx: int, packet: Packet, arrival_ns: int):
        """Returns (ready_ns, surcharge_ns, miss_flag, table_full)."""
        self._apply_pending_clear(arrival_ns)
        if packet.kind == CLEAR:
            # Control packet: outermost switch hands it to the controller,
            # which deletes all rules after its processing delay.
            if s_idx == 0:
                self.pending_clear_ns = arrival_ns + self.path.clear_delay_ns
            return arrival_ns, 0, False, False

        element = self.path.delay_element if s_idx == 0 else None
        decision = None
        if element is not None:
            decision = defense.select_bucket(packet.key, arrival_ns, self.activity, element)

        key = packet.key
        if key not in self.tables[s_idx]:
            outcome = handle_table_miss(key, self.path, self.streams, self.tables)
            self.install_windows[(s_idx, key)] = _InstallWindow(
                arrival_ns, outcome.penalty_ns
            )
            self.last_release_ns[key] = arrival_ns + outcome.penalty_ns
            return arrival_ns, outcome.penalty_ns, True, bool(outcome.full_switch_ids)

        window = self.install_windows.get((s_idx, key))
        in_install = window is not None and window.start_ns <= arrival_ns < window.end_ns

        if element is not None and (in_install or decision.bucket == "delayed"):
            position = decision.position if decision.bucket == "delayed" else "followup"
            sample = defense.delay_for(position, element, self.streams.defense)
            release = max(arrival_ns + sample, self.last_release_ns.get(key, 0))
            self.last_release_ns[key] = release
            return release, 0, False, False

        if in_install:
            # Rule activation still in progress: the packet takes the slow
            # path and pays the same charge as the trigger.
            self.last_release_ns[key] = arrival_ns + window.penalty_ns
            return arrival_ns, window.penalty_ns, False, False

        release = max(arrival_ns, self.last_release_ns.get(key, 0))
        self.last_release_ns[key] = release
        return release, 0, False, False

    # -- data plane -------------------------------------------------------

    def forward(self, packet: Packet):
        """Traverse the forward path; returns (server arrival, miss_flag, table_full)."""
        wander = self._wander_at(packet.sent_at_ns)
        ready = packet.sent_at_ns
        miss_flag = False
        table_full = False
        surcharge = 0
        for i, link in enumerate(self.path.forward_links):
            if i >= 1 and i - 1 < len(self.path.switches):
                ready, surcharge, miss, full = self._switch_process(i - 1, packet, ready)
                miss_flag = miss_flag or miss
                table_full = table_full or full
            else:
                surcharge = 0
            d = link.cross_traffic.sample_ns(self.streams.cross)
            start = max(ready, self.fwd_busy_ns[i])
            finish = start + surcharge + d + transmission_delay_ns(packet.size_bytes, link)
            self.fwd_busy_ns[i] = finish
            ready = finish + link.base_latency_ns
            surcharge = 0
        return ready + wander, miss_flag, table_full

    def reply_traversal(self, server_send_ns: int) -> int:
        """Small replies do not queue: independent per-hop delays only."""
        t = server_send_ns
        for link in self.path.reverse_links:
            d = link.cross_traffic.sample_ns(self.streams.cross)
            t += d + transmission_delay_ns(self.path.reply_bytes, link) + link.base_latency_ns
        return t

    def exchange(self, packet: Packet) -> ExchangeResult:
        """Round trip of one packet: forward, server turnaround, small reply."""
        server_recv, miss_flag, table_full = self.forward(packet)
        reply_send = server_recv + self.path.turnaround_ns
        client_recv = self.reply_traversal(reply_send)
        return ExchangeResult(
            server_recv_ns=server_recv,
            server_reply_send_ns=reply_send,
            client_recv_ns=client_recv,
            miss_flag=miss_flag,
            table_full=table_full,
        )


# -- trial-batched engine ---------------------------------------------------


def _cross_delays(path: PathSpec, n_packets: int, streams: TrialStreams) -> list[np.ndarray]:
    """Per-link cross-traffic delays, forward links then reverse links.

    Each entry is a [packet, trial] array.  A trial's `cross` stream is drawn
    as one block laid out packet by packet, forward hops then reverse hops,
    one `random()` per Pareto hop: the order in which the reference model
    draws them.
    """
    models = [l.cross_traffic for l in (*path.forward_links, *path.reverse_links)]
    shape = (n_packets, len(streams))
    delays = [np.broadcast_to(np.int64(m.value_ns), shape) for m in models]
    drawn = [j for j, m in enumerate(models) if m.draw_type]
    if drawn:
        block = streams.block("cross", ("random",), n_packets * len(drawn))
        block = block.reshape(len(streams), n_packets, len(drawn))
        for col, j in enumerate(drawn):
            delays[j] = models[j].ns_from_draws(block[:, :, col].T)
    return delays


def _wander(drift: DriftModel | None, packets, streams: TrialStreams):
    """Path-latency wander at each packet's send time, a [packet, trial] array.

    As in `Simulation._wander_at`, the walk's clock is the latest send time so
    far and each send time that advances it takes one `standard_normal()`
    step, so `drift` is drawn as one block per trial; the cumulative sum from
    0.0 adds the steps in the reference model's order.
    """
    if drift is None:
        return 0
    dt = np.diff(np.maximum.accumulate([0, *(p.sent_at_ns for p in packets)]))
    advances = dt > 0
    # numpy's `** 0.5` is a sqrt, which rounds about one value in a thousand
    # differently from C's pow; an object array keeps Python's float pow.
    steps = ((dt[advances] / 1e9).astype(object) ** 0.5).astype(float)
    z = streams.block("drift", ("standard_normal",), steps.size)
    walk = np.zeros((len(streams), steps.size + 1))
    walk[:, 1:] = np.cumsum(z * drift.sigma_ns_per_sqrt_s * steps, axis=1)
    at_send = walk[:, np.cumsum(advances)].T  # after the steps taken up to each packet
    return np.maximum(0.0, np.trunc(drift.base_ns + at_send)).astype(np.int64)


class _TrialBatch:
    """Switch and controller state of many trials, one array entry per trial.

    Mirrors Simulation's `_apply_pending_clear` and `_switch_process` with
    masks in place of branches.  A miss installs the flow at every switch and
    a CLEAR wipes every switch, so one `installed` flag per trial says whether
    the flow has rules; a switch with no room for a rule (`no_rules[s]`)
    misses whatever the flag says.

    The `control` and `defense` streams are drawn as one [trial, value] block
    from `TrialStreams.block`, on the first event that needs them, and read
    through a per-trial cursor in the order the reference model draws them:
    * `control`: a miss draws the lookup delay, then each switch's install
      delay in path order, one value per model that draws (`d` of them), so
      each row cycles through the models' Generator methods.  A miss installs
      the flow at every switch, so a trial misses at most once if it starts
      cold and once after each CLEAR, and the block holds that many misses of
      `d` values; only a switch with no room for a rule misses on every probe,
      and then the block holds n_packets x len(path.switches) misses.
    * `defense`: a hold takes one `random()`.  Only the outermost switch
      parks packets, at most once per packet, so the block holds n_packets
      values.
    Each trial's streams serve one schedule only, so draws a block leaves
    unused change nothing.
    """

    def __init__(
        self,
        path: PathSpec,
        streams: TrialStreams,
        warm: bool,
        packets: tuple[Packet, ...],
    ):
        self.path = path
        self.streams = streams
        self.element = path.delay_element
        k = len(path.switches)
        n = len(streams)
        self.n_packets = len(packets)
        self.charge_models = (path.lookup_delay, *(sw.install_delay for sw in path.switches))
        self.drawn = np.array([m.draw_type is not None for m in self.charge_models])
        self.control_methods = tuple(m.draw_type for m in self.charge_models if m.draw_type)
        self.no_rules = [sw.table_capacity == 0 for sw in path.switches]
        n_clears = sum(p.kind == CLEAR for p in packets)
        self.max_misses = self.n_packets * k if any(self.no_rules) else (not warm) + n_clears
        self.control = self.defense = None  # [trial, value] blocks, drawn on first use
        self.control_next = np.zeros(n, np.intp)
        self.defense_next = np.zeros(n, np.intp)
        self.installed = np.full(n, warm)
        # Per switch, the install window [start, start + penalty); a CLEAR zeroes the penalty.
        self.win_start = [np.zeros(n, np.int64) for _ in range(k)]
        self.win_penalty = [np.zeros(n, np.int64) for _ in range(k)]
        self.last_release = np.zeros(n, np.int64)
        self.clear_pending = np.zeros(n, bool)
        self.clear_at = np.zeros(n, np.int64)
        # Delay-element activity record of the flow.
        self.seen = np.zeros(n, bool)
        self.last_seen = np.zeros(n, np.int64)
        self.window_until = np.zeros(n, np.int64)

    def apply_pending_clear(self, now: np.ndarray) -> None:
        if not self.clear_pending.any():
            return
        done = self.clear_pending & (now >= self.clear_at)
        self.installed[done] = False
        for w in self.win_penalty:
            w[done] = 0
        self.seen[done] = False
        self.clear_pending &= ~done

    def schedule_clear(self, now: np.ndarray) -> None:
        """A CLEAR reaches the outermost switch: all rules go after the controller's delay."""
        self.clear_at = now + self.path.clear_delay_ns
        self.clear_pending[:] = True

    def select_bucket(self, now: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """defense.select_bucket over the trial axis: (delayed, first) masks."""
        cfg = self.element
        first = ~self.seen | (now - self.last_seen > cfg.t_th_ns)
        delayed = first | (now < self.window_until)
        self.window_until = np.where(first, now + cfg.window_ns, self.window_until)
        self.last_seen = now
        self.seen[:] = True
        return delayed, first

    def switch_process(self, s: int, now: np.ndarray, miss_flag):
        """A probe reaches switch s; returns (ready, surcharge).

        Sets the probe's miss_flag entries of trials that miss.
        """
        if self.element is not None and s == 0:
            delayed, first = self.select_bucket(now)
        in_install = (self.win_start[s] <= now) & (now < self.win_start[s] + self.win_penalty[s])
        miss = ~self.installed | self.no_rules[s]
        ready = now.copy()
        surcharge = np.zeros_like(now)
        idx = np.flatnonzero(miss)
        if idx.size:
            charge = self._miss_charges(idx)
            self.installed[idx] = True
            at = now[idx]
            self.win_start[s][idx] = at
            self.win_penalty[s][idx] = charge
            self.last_release[idx] = at + charge
            surcharge[idx] = charge
            miss_flag[idx] = True
        rest = ~miss
        if self.element is not None and s == 0:
            parked = rest & (in_install | delayed)
            rest &= ~parked
            idx = np.flatnonzero(parked)
            if idx.size:
                release = np.maximum(now[idx] + self._holds(idx, first), self.last_release[idx])
                self.last_release[idx] = release
                ready[idx] = release
        slow = rest & in_install
        surcharge[slow] = self.win_penalty[s][slow]
        self.last_release[slow] = now[slow] + self.win_penalty[s][slow]
        fast = rest & ~in_install
        ready[fast] = np.maximum(now[fast], self.last_release[fast])
        self.last_release[fast] = ready[fast]
        return ready, surcharge

    def _miss_charges(self, idx: np.ndarray) -> np.ndarray:
        """Each missing trial's lookup plus slowest install (Eq. 2), from its control stream."""
        d = len(self.control_methods)
        x = np.zeros((len(self.charge_models), idx.size))  # rows of constant models stay unread
        if d:
            if self.control is None:
                self.control = self.streams.block("control", self.control_methods, self.max_misses * d)
            start = self.control_next[idx]
            x[self.drawn] = self.control[idx[:, None], start[:, None] + np.arange(d)].T
            self.control_next[idx] = start + d
        lookup, *installs = [m.ns_from_draws(row) for m, row in zip(self.charge_models, x)]
        return lookup + np.max(installs, axis=0)

    def _holds(self, idx: np.ndarray, first: np.ndarray) -> np.ndarray:
        """Delay-element hold of each parked trial, drawn from its defense stream."""
        if self.defense is None:
            self.defense = self.streams.block("defense", ("random",), self.n_packets)
        u = self.defense[idx, self.defense_next[idx]]
        self.defense_next[idx] += 1
        first = first[idx]
        holds = np.empty(idx.size, np.int64)
        for model, mask in ((self.element.first_delay, first), (self.element.followup_delay, ~first)):
            if mask.any():
                holds[mask] = model.ns_from_draws(u[mask])
        return holds


def simulate_trials(
    path: PathSpec,
    packets,
    streams: TrialStreams,
    *,
    warm: bool = False,
) -> ExchangeResult:
    """Run one single-flow packet schedule as len(streams) independent trials;
    each field of the result is a [packet, trial] array.

    Trial j draws only from row j of each of the batch's streams and
    produces exactly what `Simulation(path, RngStreams(seed, trials[j],
    group), warm_keys=...)` produces for the same packets; `warm`
    pre-installs the flow's rules at every switch, as warm_keys holding the
    flow's key does.  Each stream is drawn as one block per trial: `cross`
    and `drift` as `_cross_delays` and `_wander` lay them out, `control` and
    `defense` as `_TrialBatch` reads them.
    """
    packets = tuple(packets)
    n_trials = len(streams)
    if not packets or n_trials < 1:
        raise ValueError("need at least one packet and one trial")
    if any(p.key != packets[0].key for p in packets):
        raise ValueError("the batched engine runs one flow per schedule")
    n_fwd = len(path.forward_links)
    n_switches = len(path.switches)
    cross = _cross_delays(path, len(packets), streams)
    state = _TrialBatch(path, streams, warm, packets)
    busy = [np.zeros(n_trials, np.int64) for _ in range(n_fwd)]

    shape = (len(packets), n_trials)
    server_recv = np.empty(shape, np.int64)
    miss_flag = np.zeros(shape, bool)
    for p, pkt in enumerate(packets):
        ready = np.full(n_trials, pkt.sent_at_ns, np.int64)
        for i, link in enumerate(path.forward_links):
            surcharge = 0
            s = i - 1
            if 0 <= s < n_switches:
                state.apply_pending_clear(ready)
                if pkt.kind != CLEAR:
                    ready, surcharge = state.switch_process(s, ready, miss_flag[p])
                elif s == 0:
                    state.schedule_clear(ready)
            finish = np.maximum(ready, busy[i]) + surcharge + cross[i][p]
            finish += transmission_delay_ns(pkt.size_bytes, link)
            busy[i] = finish
            ready = finish + link.base_latency_ns
        server_recv[p] = ready
    server_recv += _wander(path.drift, packets, streams)
    reply_send = server_recv + path.turnaround_ns
    # Replies do not queue: the reverse path is a sum of independent delays.
    client_recv = reply_send + sum(
        transmission_delay_ns(path.reply_bytes, l) + l.base_latency_ns for l in path.reverse_links
    ) + sum(cross[n_fwd:])
    return ExchangeResult(
        server_recv_ns=server_recv,
        server_reply_send_ns=reply_send,
        client_recv_ns=client_recv,
        miss_flag=miss_flag,
        # A miss installs at every switch: it fills each table with room for fewer than two rules.
        table_full=miss_flag & any(sw.table_capacity < 2 for sw in path.switches),
    )

