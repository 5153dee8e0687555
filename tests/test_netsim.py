"""Link, switch and exchange timing semantics, on the trial-batched engine.

The timing tests run one trial each: trial 0 of group 0 draws what the scalar
reference model draws from RngStreams(seed), so the numbers are the reference
model's.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sdnfp.distributions import constant, lognormal, pareto
from sdnfp.netsim import (
    CLEAR,
    STREAM_NAMES,
    FlowKey,
    FlowTable,
    LinkSpec,
    Packet,
    PathSpec,
    RngStreams,
    SwitchSpec,
    TrialStreams,
    handle_table_miss,
    pcg64_random,
    spawn_state,
    transmission_delay_ns,
)
from sdnfp.probes import run_schedule
from sdnfp.units import div_round_half_up

from paths import uniform_path

MS = 1_000_000
S = 1_000_000_000
KEY = FlowKey("10.0.0.2", "10.0.1.2")


def hw_switch(install_ns=5 * MS, capacity=1024):
    return SwitchSpec(constant(install_ns), capacity)


def run(path, *packets, seed=0, warm=False):
    """The packets as one trial of the engine; a Trace, one row per packet."""
    return run_schedule(packets, path, seed, warm=warm)


def rtt(trace):
    return trace.client_recv_ns - trace.client_send_ns


def forward(path, packet):
    """Server arrival time of one packet on a fresh run."""
    return int(run(path, packet).server_recv_ns[0])


def exchange_rtt(path, packet):
    return int(rtt(run(path, packet))[0])


def exchange_pair(path, size=1500, seed=0):
    """Client receive times of a back-to-back pair of one flow on a fresh run."""
    return run(path, Packet(0, KEY, size), Packet(1, KEY, size), seed=seed).client_recv_ns.tolist()


def miss_penalty(path, seed=0):
    """(what a cold flow's first packet pays over a warm one's, its table_full flag)."""
    cold = run(path, Packet(0, KEY, 1500), seed=seed)
    warm = run(path, Packet(0, KEY, 1500), seed=seed, warm=True)
    assert cold.miss_flag[0] and not warm.miss_flag[0]
    return int(rtt(cold)[0] - rtt(warm)[0]), bool(cold.table_full[0])


def test_transmission_delay_examples():
    assert transmission_delay_ns(1500, LinkSpec(100_000_000)) == 120_000
    assert transmission_delay_ns(1500, LinkSpec(1_000_000_000)) == 12_000
    assert transmission_delay_ns(64, LinkSpec(100_000_000)) == 5_120


def test_transmission_delay_rejects_bad_size():
    with pytest.raises(ValueError):
        transmission_delay_ns(0, LinkSpec(100_000_000))


@pytest.mark.parametrize("den", [0, -8])
def test_div_round_half_up_needs_a_positive_denominator(den):
    assert div_round_half_up(12, 8) == 2 and div_round_half_up(11, 8) == 1
    with pytest.raises(ValueError, match="denominator must be positive"):
        div_round_half_up(12, den)


def test_forward_single_hop_no_cross():
    path = uniform_path(1, 1, 100_000_000)
    assert forward(path, Packet(0, KEY, 1500)) == 120_000


def test_forward_two_hops_constant_cross():
    cross = constant(1 * MS)
    path = uniform_path(2, 1, 100_000_000, cross_traffic=cross)
    assert forward(path, Packet(0, KEY, 1500)) == 2_240_000  # 2 * (1 ms + 0.12 ms)


def test_forward_fifo_pair_gap():
    path = uniform_path(1, 1, 100_000_000)
    a1, a2 = run(path, Packet(0, KEY, 1500), Packet(1, KEY, 1500)).server_recv_ns
    assert a2 - a1 == 120_000


def test_base_latency_adds_per_hop():
    path = uniform_path(2, 1, 100_000_000, base_latency_ns=3 * MS)
    assert forward(path, Packet(0, KEY, 1500)) == 2 * (120_000 + 3 * MS)


def test_table_miss_max_of_constants():
    switches = tuple(hw_switch(d * MS) for d in (2, 3, 5))
    path = uniform_path(4, 4, 100_000_000, switches)
    assert miss_penalty(path) == (5 * MS, False)


def test_table_miss_includes_lookup():
    path = uniform_path(2, 2, 100_000_000, (hw_switch(4 * MS),))
    assert miss_penalty(replace(path, lookup_delay=constant(500_000)))[0] == 4_500_000


def test_table_miss_seeded_replay():
    def penalty(seed):
        switches = (
            SwitchSpec(lognormal(4 * MS, 0.5)),
            SwitchSpec(lognormal(4 * MS, 0.5)),
        )
        path = uniform_path(4, 4, 100_000_000, switches)
        return miss_penalty(path, seed=seed)[0]

    assert penalty(7) == penalty(7)
    # The same stream replayed by hand: lookup is sampled first, then one
    # install per switch in path order; the penalty is their max.
    gen = RngStreams(7).control
    draws = [lognormal(4 * MS, 0.5).sample_ns(gen) for _ in range(2)]
    assert penalty(7) == max(draws)


def test_table_miss_installs_both_directions():
    # A miss installs the flow's rule and its reverse at every switch: one
    # rule slot per table reports a full table, two do not.
    for capacity, full in ((1, True), (2, False)):
        switches = (hw_switch(capacity=capacity),) * 2
        path = uniform_path(4, 4, 100_000_000, switches)
        trace = run(path, Packet(0, KEY, 1500), Packet(1, KEY, 1500, sent_at_ns=S))
        assert trace.miss_flag.tolist() == [True, False]
        assert trace.table_full.tolist() == [full, False]


def test_reference_miss_reports_full_switches_by_position():
    # The scalar model's miss names each switch whose table had no room for
    # both directions by its place on the path.
    switches = tuple(hw_switch(capacity=c) for c in (1024, 1, 0))
    path = uniform_path(4, 4, 100_000_000, switches)
    tables = tuple(FlowTable(sw.table_capacity) for sw in switches)
    outcome = handle_table_miss(KEY, path, RngStreams(0), tables)
    assert outcome.full_switch_ids == (1, 2)
    assert outcome.penalty_ns == 5 * MS


def test_clear_flow_tables():
    # A CLEAR deletes the rules, and a second CLEAR on empty tables is a no-op.
    path = uniform_path(2, 2, 100_000_000, (hw_switch(),))
    trace = run(
        path,
        Packet(0, KEY, 1500, sent_at_ns=0),
        Packet(1, KEY, 64, CLEAR, S),
        Packet(2, KEY, 1500, sent_at_ns=2 * S),
        Packet(3, KEY, 64, CLEAR, 3 * S),
        Packet(4, KEY, 64, CLEAR, 4 * S),
        Packet(5, KEY, 1500, sent_at_ns=5 * S),
    )
    assert trace.miss_flag.tolist() == [True, False, True, False, False, True]
    assert rtt(trace)[2] == rtt(trace)[5] == rtt(trace)[0]


def test_miss_penalty_returns_after_clear():
    path = uniform_path(2, 2, 100_000_000, (hw_switch(),))
    trace = run(
        path,
        Packet(0, KEY, 1500, sent_at_ns=0),
        Packet(1, KEY, 1500, sent_at_ns=S),
        Packet(2, KEY, 64, CLEAR, 3 * S // 2),
        Packet(3, KEY, 1500, sent_at_ns=2 * S),
    )
    assert trace.miss_flag.tolist() == [True, False, False, True]
    assert rtt(trace)[3] == rtt(trace)[0]


def test_exchange_rtt_one_hop():
    path = uniform_path(1, 1, 100_000_000)
    assert exchange_rtt(path, Packet(0, KEY, 1500)) == 120_000 + 5_120


def test_exchange_miss_adds_exact_penalty():
    base_path = uniform_path(2, 2, 100_000_000)
    base = exchange_rtt(base_path, Packet(0, KEY, 1500))
    path = uniform_path(2, 2, 100_000_000, (hw_switch(5 * MS),))
    trace = run(path, Packet(0, KEY, 1500))
    assert trace.miss_flag[0]
    assert rtt(trace)[0] == base + 5 * MS


def test_eq2_additivity_only_when_max_attained():
    def rtt_with(installs):
        switches = tuple(hw_switch(d) for d in installs)
        path = uniform_path(4, 4, 100_000_000, switches)
        return exchange_rtt(path, Packet(0, KEY, 1500))

    base = rtt_with([2 * MS, 3 * MS, 5 * MS])
    assert rtt_with([2 * MS, 3 * MS, 6 * MS]) == base + 1 * MS  # max grows by c
    assert rtt_with([3 * MS, 3 * MS, 5 * MS]) == base  # non-max unchanged


def test_exchange_cross_traffic_mean():
    # Default cross traffic adds 20 ms per hop on average: (n+m) * 20 ms.
    cross = pareto(20 * MS, 4 * MS**2)
    path = uniform_path(2, 1, 100_000_000, cross_traffic=cross)
    quiet = uniform_path(2, 1, 100_000_000)
    base = exchange_rtt(quiet, Packet(0, KEY, 1500))
    trials = 10_000
    packets = [Packet(i, KEY, 1500, sent_at_ns=i * S) for i in range(trials)]
    total = int(rtt(run(path, *packets, seed=3)).sum())
    extra_ms = (total / trials - base) / MS
    assert extra_ms == pytest.approx(3 * 20.0, rel=0.05)


def test_pair_dispersion_no_miss():
    path = uniform_path(2, 2, 100_000_000, (hw_switch(),))
    trace = run(path, Packet(0, KEY, 1500), Packet(1, KEY, 1500), warm=True)
    assert trace.client_recv_ns[1] - trace.client_recv_ns[0] == 120_000
    assert trace.miss_flag.tolist() == [False, False]


def test_pair_dispersion_miss_adds_penalty():
    path = uniform_path(2, 2, 100_000_000, (hw_switch(5 * MS),))
    trace = run(path, Packet(0, KEY, 1500), Packet(1, KEY, 1500))
    assert trace.miss_flag.tolist() == [True, False]
    assert trace.client_recv_ns[1] - trace.client_recv_ns[0] == 120_000 + 5 * MS


def test_pair_negative_dispersion_not_clamped():
    # Heavy reverse-path jitter reorders replies for some seeds.
    cross = pareto(5 * MS, 25 * MS**2)
    fwd = (LinkSpec(100_000_000),)
    rev = (LinkSpec(100_000_000, cross_traffic=cross),)
    path = PathSpec(fwd, rev)
    values = []
    for seed in range(30):
        r1, r2 = exchange_pair(path, seed=seed)
        values.append(r2 - r1)
    assert min(values) < 0
    assert max(values) > 0


def test_eq1_fidelity_random_shapes():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        fwd = tuple(
            LinkSpec(int(rng.integers(10_000_000, 2_000_000_000)), int(rng.integers(0, 3 * MS)))
            for _ in range(n)
        )
        rev = tuple(LinkSpec(int(rng.integers(10_000_000, 2_000_000_000))) for _ in range(m))
        path = PathSpec(fwd, rev)
        size = int(rng.integers(100, 1501))
        r1, r2 = exchange_pair(path, size)
        expected = transmission_delay_ns(size, min(fwd, key=lambda link: link.capacity_bps))
        assert r2 - r1 == expected


def test_monotone_timestamps():
    cross = pareto(90_000, 2_000_000_000)
    path = uniform_path(4, 4, 100_000_000, (hw_switch(),), cross_traffic=cross)
    trace = run(path, *(Packet(i, KEY, 1500, sent_at_ns=i * 50 * MS) for i in range(50)), seed=11)
    assert (trace.client_send_ns <= trace.server_recv_ns).all()
    assert (trace.server_recv_ns <= trace.server_reply_send_ns).all()
    assert (trace.server_reply_send_ns <= trace.client_recv_ns).all()


def test_determinism_bit_identical():
    cross = pareto(90_000, 2_000_000_000)

    def client_recv(seed):
        path = uniform_path(4, 4, 100_000_000, (hw_switch(),), cross_traffic=cross)
        packets = [Packet(i, KEY, 1500, sent_at_ns=i * S) for i in range(20)]
        return run(replace(path, lookup_delay=constant(100_000)), *packets, seed=seed).client_recv_ns.tolist()

    assert client_recv(42) == client_recv(42)
    assert client_recv(42) != client_recv(43)


def test_second_packet_same_flow_no_penalty():
    path = uniform_path(2, 2, 100_000_000, (hw_switch(5 * MS),))
    trace = run(path, Packet(0, KEY, 1500, sent_at_ns=0), Packet(1, KEY, 1500, sent_at_ns=S))
    assert trace.miss_flag.tolist() == [True, False]
    assert rtt(trace)[1] == rtt(trace)[0] - 5 * MS


def test_table_full_forwards_and_flags():
    sw = hw_switch(5 * MS, capacity=0)
    path = uniform_path(2, 2, 100_000_000, (sw,))
    trace = run(path, Packet(0, KEY, 1500, sent_at_ns=0), Packet(1, KEY, 1500, sent_at_ns=S))
    assert trace.client_recv_ns[0] > 0  # still forwarded
    # With no rule ever installed, the next packet misses again.
    assert trace.miss_flag.tolist() == [True, True]
    assert trace.table_full.tolist() == [True, True]


def test_simulations_on_one_path_keep_their_own_tables():
    # A run on the same path must not see the rules another run installed.
    path = uniform_path(2, 2, 100_000_000, (hw_switch(5 * MS),))
    packets = (Packet(0, KEY, 1500, sent_at_ns=0), Packet(1, KEY, 1500, sent_at_ns=S))
    for seed, warm, misses in ((1, False, [True, False]), (0, True, [False, False]), (1, False, [True, False])):
        assert run(path, *packets, seed=seed, warm=warm).miss_flag.tolist() == misses


def test_capacity_one_installs_forward_key_only():
    path = uniform_path(2, 2, 100_000_000, (hw_switch(5 * MS, capacity=1),))
    trace = run(path, Packet(0, KEY, 1500, sent_at_ns=0), Packet(1, KEY, 1500, sent_at_ns=S))
    assert trace.miss_flag[0] and trace.table_full[0]  # the reverse rule did not fit
    assert not trace.miss_flag[1]  # the forward rule is in


def test_switch_spec_rejects_negative_capacity():
    with pytest.raises(ValueError):
        hw_switch(capacity=-1)


def test_flow_table_capacity_invariant():
    table = FlowTable(capacity=1)
    assert table.install(KEY)
    assert not table.install(KEY.reversed())
    assert table.entries == {KEY}
    assert table.install(KEY)  # idempotent on present key


def test_pathspec_validation():
    link = LinkSpec(100_000_000)
    with pytest.raises(ValueError):
        PathSpec((), (link,))
    with pytest.raises(ValueError):
        PathSpec((link,), (link,), (hw_switch(),))  # no room for a switch
    for field, value, rule in (
        ("reply_bytes", 0, "must be positive"),
        ("turnaround_ns", -1, "must be >= 0"),
        ("clear_delay_ns", -1, "must be >= 0"),
    ):
        with pytest.raises(ValueError, match=f"^{field}: {rule}$"):
            PathSpec((link, link), (link,), (hw_switch(),), **{field: value})


def test_lazy_streams_match_eager_construction():
    names = ("cross", "control", "defense", "drift")
    for order in (names, names[::-1], ("drift", "cross", "defense", "control")):
        lazy = RngStreams(20403, trial=17, group=1)
        got = {name: getattr(lazy, name).random(4).tolist() for name in order}
        for i, name in enumerate(names):
            eager = np.random.default_rng(
                np.random.SeedSequence(entropy=20403, spawn_key=(1, 17, i))
            )
            assert got[name] == eager.random(4).tolist()


def test_lazy_streams_build_only_what_is_used():
    streams = RngStreams(7, trial=3)
    gen = streams.cross
    assert streams.cross is gen  # built once, then cached
    assert "control" not in vars(streams) and "drift" not in vars(streams)
    with pytest.raises(AttributeError):
        streams.unknown


def numpy_state(seed, group, trial, stream):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(group, trial, stream))
    return seq.generate_state(4, np.uint64)


@given(
    seed=st.integers(0, 2**128),
    group=st.integers(0, 2**40),
    trials=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
    stream=st.integers(0, 3),
)
def test_spawn_state_matches_numpy_seed_sequence(seed, group, trials, stream):
    state = spawn_state(seed, group, np.array(trials, np.int64), stream)
    assert state.dtype == np.uint64 and state.shape == (len(trials), 4)
    for row, trial in zip(state, trials):
        assert row.tolist() == numpy_state(seed, group, trial, stream).tolist()


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64, 2**96 + 1, 2**128])
@pytest.mark.parametrize("group", [0, 1, 2**32, 2**40])
def test_spawn_state_word_boundaries(seed, group):
    # Seeds and groups at each word-count boundary, the smallest and largest trial.
    trials = [0, 1, 2**32 - 1]
    for stream in range(len(STREAM_NAMES)):
        state = spawn_state(seed, group, np.array(trials, np.int64), stream)
        expected = [numpy_state(seed, group, t, stream).tolist() for t in trials]
        assert state.tolist() == expected


def numpy_generator(seed, group, trial, stream):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(group, trial, stream))
    return np.random.default_rng(seq)


def cyclic_draws(gen, methods, n):
    """The first n scalar draws of `gen`, draw i made by methods[i % len(methods)]."""
    return [getattr(gen, methods[i % len(methods)])() for i in range(n)]


# One method takes a fast path; a mix cycles, as a miss draws a Pareto lookup and lognormal installs.
BLOCK_METHODS = [("random",), ("standard_normal",), ("random", "standard_normal", "standard_normal")]


@given(
    seed=st.integers(0, 2**128),
    group=st.integers(0, 2**40),
    trials=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
)
def test_trial_streams_draw_as_numpy_seeded_generators(seed, group, trials):
    trials = np.array(trials, np.int64)
    for methods in BLOCK_METHODS:
        batch = TrialStreams(seed, trials, group)
        for stream, name in enumerate(STREAM_NAMES):
            block = batch.block(name, methods, 7)
            assert block.shape == (len(trials), 7)
            for row, trial in zip(block, trials):
                assert row.tolist() == cyclic_draws(numpy_generator(seed, group, trial, stream), methods, 7)


@pytest.mark.parametrize("n", [0, 1, 48])
def test_normal_block_is_each_trials_first_draws(n):
    # The block is filled row by row in place; every row is the trial's own
    # Generator's first n draws, bit for bit.
    trials = np.arange(450, dtype=np.int64)
    block = TrialStreams(11, trials, 2).block("drift", ("standard_normal",), n)
    assert block.shape == (450, n) and block.dtype == np.float64
    expected = [numpy_generator(11, 2, t, STREAM_NAMES.index("drift")).standard_normal(n) for t in trials]
    assert block.view(np.int64).tolist() == [row.view(np.int64).tolist() for row in expected]


PCG_BLOCK = 16  # draws per block in pcg64_random


@given(
    seed=st.integers(0, 2**128),
    group=st.integers(0, 2**40),
    trials=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
    stream=st.integers(0, 3),
    n=st.one_of(
        st.sampled_from([0, 1, PCG_BLOCK - 1, PCG_BLOCK, PCG_BLOCK + 1, 2 * PCG_BLOCK + 1]),
        st.integers(0, 200),
    ),
)
def test_vector_random_matches_numpy_pcg64(seed, group, trials, stream, n):
    got = pcg64_random(spawn_state(seed, group, np.array(trials, np.int64), stream), n)
    assert got.dtype == np.float64 and got.shape == (len(trials), n)
    for row, trial in zip(got, trials):
        assert row.tolist() == numpy_generator(seed, group, trial, stream).random(n).tolist()


def test_vector_random_matches_numpy_over_long_blocks():
    # 12,000 draws per trial reach the XSL-RR output's rotation by 0, which
    # happens on one state in 64; count them with PCG64's own recurrence.
    n, trials = 12_000, [0, 3, 2**32 - 1]
    got = pcg64_random(spawn_state(20403, 1, np.array(trials, np.int64), 2), n)
    mult = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
    for row, trial in zip(got, trials):
        gen = numpy_generator(20403, 1, trial, 2)
        state = gen.bit_generator.state["state"]
        s, inc, zero_rotations = state["state"], state["inc"], 0
        for _ in range(n):
            s = (s * mult + inc) % 2**128
            zero_rotations += s >> 122 == 0
        assert zero_rotations > 0
        assert row.tolist() == gen.random(n).tolist()


@pytest.mark.parametrize("trials", [[-1], [0, 2**32], [2**40]])
def test_spawn_state_rejects_trials_outside_32_bits(trials):
    with pytest.raises(ValueError):
        spawn_state(7, 0, np.array(trials, np.int64), 0)
    with pytest.raises(ValueError):
        TrialStreams(7, np.array(trials, np.int64)).block("cross", ("random",), 1)


def test_spawn_state_rejects_negative_seed_and_group():
    with pytest.raises(ValueError, match="seed"):
        spawn_state(-1, 0, np.array([0]), 0)
    with pytest.raises(ValueError, match="group"):
        spawn_state(1, -1, np.array([0]), 0)


def test_trial_streams_build_each_name_on_first_access(monkeypatch):
    import sdnfp.netsim as netsim

    passes = []

    def counted(seed, group, trials, stream):
        passes.append(stream)
        return spawn_state(seed, group, trials, stream)

    monkeypatch.setattr(netsim, "spawn_state", counted)
    batch = TrialStreams(5, np.arange(3), group=1)
    assert len(batch) == 3 and passes == []  # a stream nobody draws costs nothing
    assert batch.block("control", ("random",), 4).shape == (3, 4)
    assert passes == [1]  # one pass for all trials
    assert batch.block("drift", ("random", "standard_normal"), 5).shape == (3, 5) and passes == [1, 3]
    with pytest.raises(ValueError, match="unknown stream"):
        batch.block("unknown", ("random",), 4)
    assert passes == [1, 3]


@pytest.mark.parametrize(
    "methods", [("random",), ("standard_normal",), ("standard_normal", "random")],
    ids=["random", "standard_normal", "mixed"],
)
def test_trial_streams_hand_out_each_stream_once(methods):
    # A second block would replay the stream from its start, where a
    # Generator would continue: it raises instead.
    batch = TrialStreams(5, np.arange(3))
    batch.block("defense", ("random",), 4)
    with pytest.raises(RuntimeError, match="defense"):
        batch.block("defense", methods, 4)
    assert batch.block("cross", ("random",), 4).shape == (3, 4)  # other streams are unaffected
