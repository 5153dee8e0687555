"""Link, switch and exchange timing semantics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sdnfp.distributions import constant, lognormal, pareto
from sdnfp.netsim import (
    STREAM_NAMES,
    ControllerSpec,
    FlowKey,
    FlowTable,
    LinkSpec,
    Packet,
    PathSpec,
    RngStreams,
    Simulation,
    SwitchSpec,
    TrialStreams,
    clear_flow_tables,
    handle_table_miss,
    pcg64_random,
    spawn_state,
    transmission_delay_ns,
    uniform_path,
)

MS = 1_000_000
KEY = FlowKey("10.0.0.2", "10.0.1.2")


def hw_switch(install_ns=5 * MS, name="hw1", capacity=1024):
    return SwitchSpec(name, "hardware", constant(install_ns), capacity)


def forward(path, packet):
    """Per-hop arrival times of one packet on a fresh simulation."""
    arrivals, _, _ = Simulation(path, ControllerSpec(), 0).forward(packet, packet.sent_at_ns)
    return arrivals


def exchange(path, packet):
    return Simulation(path, ControllerSpec(), 0).exchange(packet)


def exchange_pair(path, size=1500, seed=0, warm_keys=()):
    """Back-to-back pair of one flow on a fresh simulation; both results."""
    sim = Simulation(path, ControllerSpec(), seed, warm_keys=warm_keys)
    return sim.exchange(Packet(0, KEY, size)), sim.exchange(Packet(1, KEY, size))


def test_transmission_delay_examples():
    assert transmission_delay_ns(1500, LinkSpec(100_000_000)) == 120_000
    assert transmission_delay_ns(1500, LinkSpec(1_000_000_000)) == 12_000
    assert transmission_delay_ns(64, LinkSpec(100_000_000)) == 5_120


def test_transmission_delay_rejects_bad_size():
    with pytest.raises(ValueError):
        transmission_delay_ns(0, LinkSpec(100_000_000))


def test_forward_single_hop_no_cross():
    path = uniform_path(1, 1, 100_000_000)
    arrivals = forward(path, Packet(0, KEY, 1500))
    assert arrivals == [120_000]


def test_forward_two_hops_constant_cross():
    cross = constant(1 * MS)
    path = uniform_path(2, 1, 100_000_000, cross_traffic=cross)
    arrivals = forward(path, Packet(0, KEY, 1500))
    assert arrivals[-1] == 2_240_000  # 2 * (1 ms + 0.12 ms)


def test_link_rejects_cross_traffic_the_cross_stream_does_not_draw():
    # The engine draws the cross stream with random() only; the reference
    # model would draw a lognormal's standard_normal() and disagree.
    with pytest.raises(ValueError, match="'lognormal'"):
        LinkSpec(100_000_000, cross_traffic=lognormal(MS, 0.5))


def test_forward_fifo_pair_gap():
    path = uniform_path(1, 1, 100_000_000)
    sim = Simulation(path, ControllerSpec(), 0)
    a1, _, _ = sim.forward(Packet(0, KEY, 1500), 0)
    a2, _, _ = sim.forward(Packet(1, KEY, 1500), 0)
    assert a2[-1] - a1[-1] == 120_000


def test_base_latency_adds_per_hop():
    path = uniform_path(2, 1, 100_000_000, base_latency_ns=3 * MS)
    arrivals = forward(path, Packet(0, KEY, 1500))
    assert arrivals[-1] == 2 * (120_000 + 3 * MS)


def test_table_miss_max_of_constants():
    switches = tuple(hw_switch(d * MS, f"s{d}") for d in (2, 3, 5))
    path = uniform_path(4, 4, 100_000_000, switches)
    outcome = handle_table_miss(KEY, path, ControllerSpec(), 0)
    assert outcome.penalty_ns == 5 * MS
    assert not outcome.full_switch_ids


def test_table_miss_includes_lookup():
    path = uniform_path(2, 2, 100_000_000, (hw_switch(4 * MS),))
    controller = ControllerSpec(lookup_delay=constant(500_000))
    assert handle_table_miss(KEY, path, controller, 0).penalty_ns == 4_500_000


def test_table_miss_seeded_replay():
    def run(seed):
        switches = (
            SwitchSpec("a", "hardware", lognormal(4 * MS, 0.5)),
            SwitchSpec("b", "hardware", lognormal(4 * MS, 0.5)),
        )
        path = uniform_path(4, 4, 100_000_000, switches)
        return handle_table_miss(KEY, path, ControllerSpec(), seed).penalty_ns

    assert run(7) == run(7)
    # The same stream replayed by hand: lookup is sampled first, then one
    # install per switch in path order; the penalty is their max.
    gen = RngStreams(7).control
    draws = [lognormal(4 * MS, 0.5).sample_ns(gen) for _ in range(2)]
    assert run(7) == max(draws)


def test_table_miss_installs_both_directions():
    switches = (hw_switch(name="a"), hw_switch(name="b"))
    path = uniform_path(4, 4, 100_000_000, switches)
    sim = Simulation(path, ControllerSpec(), 0)
    handle_table_miss(KEY, path, ControllerSpec(), 0, sim.tables)
    for table in sim.tables:
        assert KEY in table
        assert KEY.reversed() in table


def test_clear_flow_tables():
    switches = (hw_switch(),)
    path = uniform_path(2, 2, 100_000_000, switches)
    sim = Simulation(path, ControllerSpec(), 0)
    handle_table_miss(KEY, path, ControllerSpec(), 0, sim.tables)
    assert len(sim.tables[0]) == 2
    clear_flow_tables(sim.tables)
    assert KEY not in sim.tables[0]
    assert len(sim.tables[0]) == 0
    clear_flow_tables(sim.tables)  # no-op on empty tables
    assert len(sim.tables[0]) == 0


def test_miss_penalty_returns_after_clear():
    path = uniform_path(2, 2, 100_000_000, (hw_switch(),))
    controller = ControllerSpec()
    sim = Simulation(path, controller, 0)
    first = sim.exchange(Packet(0, KEY, 1500, sent_at_ns=0))
    second = sim.exchange(Packet(1, KEY, 1500, sent_at_ns=10**9))
    assert first.miss_flag and not second.miss_flag
    clear_flow_tables(sim.tables)
    sim.install_windows.clear()
    third = sim.exchange(Packet(2, KEY, 1500, sent_at_ns=2 * 10**9))
    assert third.miss_flag
    assert third.rtt_ns == first.rtt_ns


def test_exchange_rtt_one_hop():
    path = uniform_path(1, 1, 100_000_000)
    res = exchange(path, Packet(0, KEY, 1500))
    assert res.rtt_ns == 120_000 + 5_120


def test_exchange_miss_adds_exact_penalty():
    base_path = uniform_path(2, 2, 100_000_000)
    base = exchange(base_path, Packet(0, KEY, 1500))
    path = uniform_path(2, 2, 100_000_000, (hw_switch(5 * MS),))
    res = exchange(path, Packet(0, KEY, 1500))
    assert res.miss_flag
    assert res.rtt_ns == base.rtt_ns + 5 * MS


def test_eq2_additivity_only_when_max_attained():
    def rtt_with(installs):
        switches = tuple(hw_switch(d, f"s{i}") for i, d in enumerate(installs))
        path = uniform_path(4, 4, 100_000_000, switches)
        return exchange(path, Packet(0, KEY, 1500)).rtt_ns

    base = rtt_with([2 * MS, 3 * MS, 5 * MS])
    assert rtt_with([2 * MS, 3 * MS, 6 * MS]) == base + 1 * MS  # max grows by c
    assert rtt_with([3 * MS, 3 * MS, 5 * MS]) == base  # non-max unchanged


def test_exchange_cross_traffic_mean(capfd):
    # Default cross traffic adds 20 ms per hop on average: (n+m) * 20 ms.
    cross = pareto(20 * MS, 4 * MS**2)
    path = uniform_path(2, 1, 100_000_000, cross_traffic=cross)
    quiet = uniform_path(2, 1, 100_000_000)
    base = exchange(quiet, Packet(0, KEY, 1500)).rtt_ns
    sim = Simulation(path, ControllerSpec(), RngStreams(3))
    total = 0
    trials = 10_000
    for i in range(trials):
        total += sim.exchange(Packet(i, KEY, 1500, sent_at_ns=i * 10**9)).rtt_ns
    extra_ms = (total / trials - base) / MS
    assert extra_ms == pytest.approx(3 * 20.0, rel=0.05)


def test_pair_dispersion_no_miss():
    path = uniform_path(2, 2, 100_000_000, (hw_switch(),))
    r1, r2 = exchange_pair(path, warm_keys=(KEY,))
    assert r2.client_recv_ns - r1.client_recv_ns == 120_000
    assert (r1.miss_flag, r2.miss_flag) == (False, False)


def test_pair_dispersion_miss_adds_penalty():
    path = uniform_path(2, 2, 100_000_000, (hw_switch(5 * MS),))
    r1, r2 = exchange_pair(path)
    assert (r1.miss_flag, r2.miss_flag) == (True, False)
    assert r2.client_recv_ns - r1.client_recv_ns == 120_000 + 5 * MS


def test_pair_negative_dispersion_not_clamped():
    # Heavy reverse-path jitter reorders replies for some seeds.
    cross = pareto(5 * MS, 25 * MS**2)
    fwd = (LinkSpec(100_000_000),)
    rev = (LinkSpec(100_000_000, cross_traffic=cross),)
    path = PathSpec(fwd, rev)
    values = []
    for seed in range(30):
        r1, r2 = exchange_pair(path, seed=seed)
        values.append(r2.client_recv_ns - r1.client_recv_ns)
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
        assert r2.client_recv_ns - r1.client_recv_ns == expected


def test_monotone_timestamps():
    cross = pareto(90_000, 2_000_000_000)
    path = uniform_path(4, 4, 100_000_000, (hw_switch(),), cross_traffic=cross)
    sim = Simulation(path, ControllerSpec(), RngStreams(11))
    prev_send = 0
    for i in range(50):
        send = i * 50 * MS
        res = sim.exchange(Packet(i, KEY, 1500, sent_at_ns=send))
        assert send <= res.server_recv_ns <= res.server_reply_send_ns <= res.client_recv_ns
        hops = res.forward_arrivals_ns
        assert all(b >= a for a, b in zip(hops, hops[1:]))
        prev_send = send


def test_determinism_bit_identical():
    cross = pareto(90_000, 2_000_000_000)

    def run(seed):
        path = uniform_path(4, 4, 100_000_000, (hw_switch(),), cross_traffic=cross)
        sim = Simulation(path, ControllerSpec(lookup_delay=constant(100_000)), RngStreams(seed))
        return [sim.exchange(Packet(i, KEY, 1500, sent_at_ns=i * 10**9)).client_recv_ns for i in range(20)]

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_second_packet_same_flow_no_penalty():
    path = uniform_path(2, 2, 100_000_000, (hw_switch(5 * MS),))
    sim = Simulation(path, ControllerSpec(), 0)
    first = sim.exchange(Packet(0, KEY, 1500, sent_at_ns=0))
    later = sim.exchange(Packet(1, KEY, 1500, sent_at_ns=10**9))
    assert first.miss_flag and not later.miss_flag
    assert later.rtt_ns == first.rtt_ns - 5 * MS


def test_table_full_forwards_and_flags():
    sw = hw_switch(5 * MS, capacity=0)
    path = uniform_path(2, 2, 100_000_000, (sw,))
    sim = Simulation(path, ControllerSpec(), 0)
    first = sim.exchange(Packet(0, KEY, 1500, sent_at_ns=0))
    assert first.miss_flag and first.table_full
    assert first.client_recv_ns > 0  # still forwarded
    assert KEY not in sim.tables[0]
    # With no rule ever installed, the next packet misses again.
    second = sim.exchange(Packet(1, KEY, 1500, sent_at_ns=10**9))
    assert second.miss_flag and second.table_full


def test_simulations_on_one_path_keep_their_own_tables():
    # A second simulation on the same path must not wipe the first one's rules.
    path = uniform_path(2, 2, 100_000_000, (hw_switch(5 * MS),))
    warm = Simulation(path, ControllerSpec(), 0, warm_keys=(KEY,))
    cold = Simulation(path, ControllerSpec(), 1)
    assert not warm.exchange(Packet(0, KEY, 1500, sent_at_ns=0)).miss_flag
    assert cold.exchange(Packet(0, KEY, 1500, sent_at_ns=0)).miss_flag
    assert KEY in warm.tables[0] and KEY in cold.tables[0]


def test_capacity_one_installs_forward_key_only():
    path = uniform_path(2, 2, 100_000_000, (hw_switch(5 * MS, capacity=1),))
    sim = Simulation(path, ControllerSpec(), 0)
    first = sim.exchange(Packet(0, KEY, 1500, sent_at_ns=0))
    assert first.miss_flag and first.table_full
    assert KEY in sim.tables[0] and KEY.reversed() not in sim.tables[0]
    assert not sim.exchange(Packet(1, KEY, 1500, sent_at_ns=10**9)).miss_flag


def test_switch_spec_rejects_negative_capacity():
    with pytest.raises(ValueError):
        hw_switch(capacity=-1)


def test_flow_table_capacity_invariant():
    table = FlowTable(capacity=1)
    assert table.install(KEY)
    assert not table.install(KEY.reversed())
    assert len(table) == 1
    assert table.install(KEY)  # idempotent on present key


def test_pathspec_validation():
    link = LinkSpec(100_000_000)
    with pytest.raises(ValueError):
        PathSpec((), (link,))
    with pytest.raises(ValueError):
        PathSpec((link,), (link,), (hw_switch(),), 1)  # no room for a switch
    with pytest.raises(ValueError):
        PathSpec((link, link), (link,), (hw_switch(),), 2)  # k > |switches|


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


@given(
    seed=st.integers(0, 2**128),
    group=st.integers(0, 2**40),
    trials=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
)
def test_trial_streams_draw_as_numpy_seeded_generators(seed, group, trials):
    trials = np.array(trials, np.int64)
    blocks = {
        method: TrialStreams(seed, trials, group) for method in ("random", "standard_normal")
    }
    listed = TrialStreams(seed, trials, group)
    for stream, name in enumerate(STREAM_NAMES):
        gens = listed.generators(name)
        assert len(gens) == len(trials)
        for method, batch in blocks.items():
            block = batch.block(name, method, 7)
            assert block.shape == (len(trials), 7)
            for row, trial in zip(block, trials):
                oracle = getattr(numpy_generator(seed, group, trial, stream), method)(7)
                assert row.tolist() == oracle.tolist()
        for gen, trial in zip(gens, trials):
            oracle = numpy_generator(seed, group, trial, stream)
            assert gen.random(7).tolist() == oracle.random(7).tolist()
            assert gen.standard_normal(7).tolist() == oracle.standard_normal(7).tolist()


@pytest.mark.parametrize("n", [0, 1, 48])
def test_normal_block_is_each_trials_first_draws(n):
    # The block is filled row by row in place; every row is the trial's own
    # Generator's first n draws, bit for bit.
    trials = np.arange(450, dtype=np.int64)
    block = TrialStreams(11, trials, 2).block("drift", "standard_normal", n)
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
        TrialStreams(7, np.array(trials, np.int64)).block("cross", "random", 1)


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
    assert batch.block("control", "random", 4).shape == (3, 4)
    assert passes == [1]  # one pass for all trials
    assert len(batch.generators("drift")) == 3 and passes == [1, 3]
    with pytest.raises(ValueError, match="unknown stream"):
        batch.block("unknown", "random", 4)
    assert passes == [1, 3]


@pytest.mark.parametrize("method", ["random", "standard_normal", None])
def test_trial_streams_hand_out_each_stream_once(method):
    # A second block would replay the stream from its start, where a
    # Generator would continue: it raises instead.
    batch = TrialStreams(5, np.arange(3))
    batch.block("defense", "random", 4)
    with pytest.raises(RuntimeError, match="defense"):
        if method is None:
            batch.generators("defense")
        else:
            batch.block("defense", method, 4)
    assert batch.block("cross", "random", 4).shape == (3, 4)  # other streams are unaffected
