import io
import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pbitsim import pcircuit
from pbitsim.device import transfer_curve
from pbitsim.params import InverterParams, PbitParams, calibrate_match
from pbitsim.pcircuit import (
    ENUMERATION_LIMIT,
    AllClamped,
    EmpiricalActivation,
    IdealTanh,
    PCircuit,
    StateHistogram,
    TooLarge,
    _MAP_CELLS,
    _MAP_NODES,
    _SWEEP_BLOCK,
    _full_words,
    _histogram,
    _isotonic,
    _loop_words,
    _map_words,
    _orders,
    _pair_words,
    _seeded,
    _states,
    _walk,
    and_gate,
    boltzmann_exact,
    clamp,
    compare_to_oracle,
    gibbs_run,
    or_gate,
)

AND_TRUTH = {"000", "010", "100", "111"}
OR_TRUTH = {"000", "011", "101", "111"}


def brute_force_energies(circuit):
    """Independent 8-state enumeration used to gate the preset constants."""
    energies = {}
    n = circuit.n
    for m in itertools.product([-1, 1], repeat=n):
        if any(m[node] != value for node, value in circuit.clamps.items()):
            continue
        e = 0.0
        for i in range(n):
            e += circuit.h[i] * m[i]
            for j in range(i + 1, n):
                e += circuit.j[i, j] * m[i] * m[j]
        energies["".join("1" if v > 0 else "0" for v in m)] = -circuit.i0 * e
    return energies


def minima(energies):
    lowest = min(energies.values())
    return {w for w, e in energies.items() if abs(e - lowest) < 1e-9}


class TestActivations:
    def test_tanh_values(self):
        act = IdealTanh()
        assert act.prob_high(0.0) == 0.5
        assert act.prob_high(1.0) == pytest.approx(0.8807970779778823, rel=1e-12)
        assert act.prob_high(50.0) == pytest.approx(1.0, abs=1e-12)
        assert act.prob_high(-50.0) == pytest.approx(0.0, abs=1e-12)

    def test_isotonic_cleanup(self):
        assert _isotonic([0.1, 0.3, 0.2, 0.6]) == [0.1, 0.25, 0.25, 0.6]
        seq = _isotonic([0.5, 0.1, 0.9, 0.2, 0.8])
        assert all(b >= a for a, b in zip(seq, seq[1:]))

    def test_isotonic_leaves_a_monotone_input_unchanged(self):
        assert _isotonic([0.1] * 3) == [0.1] * 3

    @given(
        st.lists(
            st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0])),
            max_size=40,
        )
    )
    # pooled sums round: 0.2 + 0.1 + 0.0 gives a first block of mean
    # 0.10000000000000002, above the 0.1 that follows it
    @example([0.2, 0.1, 0.0, 0.1, 0.7, 0.0, 0.1])
    def test_isotonic_is_idempotent(self, y):
        once = _isotonic(y)
        assert all(b >= a for a, b in zip(once, once[1:]))
        assert _isotonic(once) == once

    def test_empirical_tracks_ideal_on_logistic_table(self):
        # table generated from the ideal tanh itself must reproduce it
        width = 0.01
        v = np.linspace(0.55, 0.65, 201)
        p_high = 0.5 * (1 + np.tanh((v - 0.6) / width))
        act = EmpiricalActivation(v, p_high, v_dd=1.2, scale=width)
        for i_in in (-2.0, -0.5, 0.0, 0.5, 2.0):
            assert act.prob_high(i_in) == pytest.approx(
                0.5 * (1 + math.tanh(i_in)), abs=5e-3
            )

    def test_empirical_from_transfer_curve_balanced_at_zero(self):
        base = PbitParams()
        p = PbitParams(smtj=base.smtj, nmos=calibrate_match(base))
        grid = [round(0.55 + 0.002 * k, 5) for k in range(51)]
        curve = transfer_curve(p, grid, 1000, 0.1, p.smtj.b_5050, seed=31)
        act = EmpiricalActivation.from_transfer_curve(curve, p.v_dd)
        assert act.prob_high(0.0) == pytest.approx(0.5, abs=0.06)
        assert act.prob_high(12.0) > 0.95
        assert act.prob_high(-12.0) < 0.05


class TestGatePresets:
    def test_and_ground_states_are_truth_table(self):
        for i0 in (0.5, 1.0, 2.0, 3.0):
            assert minima(brute_force_energies(and_gate(i0))) == AND_TRUTH

    def test_or_ground_states_are_truth_table(self):
        for i0 in (0.5, 1.0, 2.0, 3.0):
            assert minima(brute_force_energies(or_gate(i0))) == OR_TRUTH

    def test_swapping_inputs_leaves_spectrum_invariant(self):
        for gate in (and_gate(2.0), or_gate(2.0)):
            energies = brute_force_energies(gate)
            for word, e in energies.items():
                swapped = word[1] + word[0] + word[2]
                assert energies[swapped] == pytest.approx(e, rel=1e-12)

    def test_argmax_invariant_under_i0_scaling(self):
        for make in (and_gate, or_gate):
            for clamp_value in (None, 0, 1):
                base = make(1.0)
                if clamp_value is not None:
                    base = clamp(base, 2, clamp_value)
                ref = max(boltzmann_exact(base), key=boltzmann_exact(base).get)
                for alpha in (1.5, 2.0, 5.0):
                    scaled = make(alpha)
                    if clamp_value is not None:
                        scaled = clamp(scaled, 2, clamp_value)
                    dist = boltzmann_exact(scaled)
                    assert max(dist, key=dist.get) == ref


class TestBoltzmannExact:
    def test_uncoupled_uniform(self):
        c = PCircuit(j=np.zeros((3, 3)), h=np.zeros(3), i0=1.0)
        dist = boltzmann_exact(c)
        assert len(dist) == 8
        assert all(p == pytest.approx(0.125, rel=1e-12) for p in dist.values())

    def test_single_node_matches_tanh(self):
        c = PCircuit(j=np.zeros((1, 1)), h=np.array([1.0]), i0=1.0)
        dist = boltzmann_exact(c)
        assert dist["1"] == pytest.approx(0.5 * (1 + math.tanh(1.0)), rel=1e-12)

    def test_matches_brute_force_partition(self):
        c = clamp(or_gate(1.3), 2, 1)
        energies = brute_force_energies(c)
        z = sum(math.exp(-e) for e in energies.values())
        dist = boltzmann_exact(c)
        assert set(dist) == set(energies)
        for w, e in energies.items():
            assert dist[w] == pytest.approx(math.exp(-e) / z, rel=1e-10)

    def test_strong_coupling_concentrates_on_truth_table(self):
        dist = boltzmann_exact(and_gate(3.0))
        assert sum(dist[w] for w in AND_TRUTH) > 0.999

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_sampler_and_oracle_share_the_free_word_table(self, n, seed, data):
        clamped = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
        clamps = {node: data.draw(st.sampled_from((-1, 1))) for node in sorted(clamped)}
        c = random_circuit(n, clamps, seed)
        free = c.free_nodes
        full = _full_words(c, np.arange(2 ** len(free))).tolist()
        assert len(full) == 2 ** len(free)
        assert all(a < b for a, b in zip(full, full[1:]))
        states = _states(n, np.array(full))
        assert states.shape == (len(full), n) and states.dtype == np.float64
        for w, (word, m) in enumerate(zip(full, states.tolist())):
            assert all(word >> (n - 1 - node) & 1 == (v > 0) for node, v in clamps.items())
            assert m == [1.0 if word >> (n - 1 - j) & 1 else -1.0 for j in range(n)]
            assert [m[node] > 0 for node in free] == [
                w >> (len(free) - 1 - k) & 1 == 1 for k in range(len(free))
            ]
        assert list(boltzmann_exact(c)) == [format(w, f"0{n}b") for w in full]

    def test_too_large_rejected(self):
        n = 21
        with pytest.raises(TooLarge):
            boltzmann_exact(PCircuit(j=np.zeros((n, n)), h=np.zeros(n), i0=1.0))


class TestGibbsRun:
    def test_all_clamped_rejected(self):
        c = PCircuit(
            j=np.zeros((2, 2)), h=np.zeros(2), i0=1.0, clamps={0: 1, 1: -1}
        )
        with pytest.raises(AllClamped):
            gibbs_run(c, IdealTanh(), 10, seed=0)

    def test_uncoupled_uniform_frequencies(self):
        c = PCircuit(j=np.zeros((3, 3)), h=np.zeros(3), i0=1.0)
        hist = gibbs_run(c, IdealTanh(), 1_000_000, seed=5)
        freqs = hist.frequencies()
        assert len(freqs) == 8
        for w in freqs:
            assert freqs[w] == pytest.approx(0.125, abs=0.002)

    @pytest.mark.parametrize("free", [(0,), (0, 69), (3, 5, 69), (0, 1, 2, 5, 30, 60, 64, 69)])
    def test_circuit_past_63_nodes_keeps_every_bit(self, free):
        # a clamped node j adds i0 * J_ij m_j to free node i's field; with
        # i0 = 1/64 and integer weights every field is exact, so the 70-node
        # circuit draws the free words of its free nodes alone, the clamps
        # folded into their biases, and its keys hold every clamp
        n, i0, idx = 70, 1 / 64, list(free)
        rng = np.random.default_rng(len(free))
        upper = np.triu(rng.integers(-2, 3, (n, n)), 1).astype(float)
        j, h = upper + upper.T, rng.integers(-2, 3, n).astype(float)
        clamps = {i: int(rng.choice((-1, 1))) for i in range(n) if i not in free}
        m = np.array([clamps.get(i, 0) for i in range(n)], dtype=float)
        alone = PCircuit(j=j[np.ix_(idx, idx)], h=h[idx] + j[idx] @ m, i0=i0)
        big = PCircuit(j=j, h=h, i0=i0, clamps=clamps)
        expected = {}
        for word, k in gibbs_run(alone, IdealTanh(), 2000, burn_in=5, seed=4).counts.items():
            bits = ["1" if v > 0 else "0" for v in m]
            for node, b in zip(idx, word):
                bits[node] = b
            expected["".join(bits)] = k
        assert len(expected) > 1
        got = gibbs_run(big, IdealTanh(), 2000, burn_in=5, seed=4).counts
        assert list(got.items()) == list(expected.items())

    def test_deterministic(self):
        c = clamp(and_gate(2.0), 2, 1)
        a = gibbs_run(c, IdealTanh(), 5000, burn_in=100, seed=8)
        b = gibbs_run(c, IdealTanh(), 5000, burn_in=100, seed=8)
        assert a == b

    def test_clamped_bit_constant(self):
        c = clamp(or_gate(1.0), 2, 0)
        hist = gibbs_run(c, IdealTanh(), 20000, seed=2)
        assert all(w[2] == "0" for w in hist.counts)

    def test_and_clamp_high_peaks_at_111(self):
        hist = gibbs_run(clamp(and_gate(2.0), 2, 1), IdealTanh(), 200_000, seed=3)
        assert hist.modal_word() == "111"

    def test_or_clamp_low_peaks_at_000(self):
        hist = gibbs_run(clamp(or_gate(2.0), 2, 0), IdealTanh(), 200_000, seed=4)
        assert hist.modal_word() == "000"

    def test_and_clamp_low_near_equal_three_rows(self):
        c = clamp(and_gate(2.0), 2, 0)
        hist = gibbs_run(c, IdealTanh(), 500_000, burn_in=1000, seed=6)
        exact = boltzmann_exact(c)
        freqs = hist.frequencies()
        for w in ("000", "010", "100"):
            assert freqs[w] == pytest.approx(exact[w], abs=0.02)
            assert freqs[w] == pytest.approx(1.0 / 3.0, abs=0.02)

    def test_detailed_balance_against_oracle(self):
        for make in (and_gate, or_gate):
            for i0 in (0.5, 1.0, 2.0):
                for clamp_value in (None, 0, 1):
                    c = make(i0)
                    if clamp_value is not None:
                        c = clamp(c, 2, clamp_value)
                    if clamp_value is None and i0 == 2.0:
                        # Unclamped at i0=2 the chain hops between the four
                        # degenerate wells only ~1e3 times per 1e6 sweeps, so
                        # a single run leaves ~0.03 of occupancy noise.
                        # Independent chains pool to reach the 0.02 bound.
                        sweeps, seeds = 1_000_000, range(6)
                    elif clamp_value is None and i0 == 1.0:
                        sweeps, seeds = 300_000, range(4)
                    else:
                        sweeps, seeds = 300_000, [7 if clamp_value is None else clamp_value]
                    counts = Counter()
                    for s in seeds:
                        counts.update(
                            gibbs_run(c, IdealTanh(), sweeps, burn_in=500, seed=s).counts
                        )
                    hist = StateHistogram(n=3, counts=dict(counts))
                    l1 = compare_to_oracle(hist, boltzmann_exact(c))
                    assert l1 < 0.02, (make.__name__, i0, clamp_value, l1)

    def test_forward_and_with_clamped_inputs(self):
        c = clamp(clamp(and_gate(2.0), 0, 1), 1, 1)
        hist = gibbs_run(c, IdealTanh(), 200_000, burn_in=500, seed=21)
        exact = boltzmann_exact(c)
        p_high = sum(f for w, f in hist.frequencies().items() if w[2] == "1")
        p_exact = sum(p for w, p in exact.items() if w[2] == "1")
        assert p_high == pytest.approx(p_exact, abs=0.02)
        assert p_exact > 0.99  # both inputs high force the output high

    def test_or_inverted_ratios_match_oracle(self):
        c = clamp(or_gate(2.0), 2, 1)
        hist = gibbs_run(c, IdealTanh(), 1_000_000, burn_in=1000, seed=9)
        exact = boltzmann_exact(c)
        freqs = hist.frequencies()
        rows = ("011", "101", "111")
        assert sum(freqs[w] for w in rows) >= 0.95
        for a, b in itertools.combinations(rows, 2):
            assert freqs[a] / freqs[b] == pytest.approx(exact[a] / exact[b], rel=0.10)

    def test_empirical_activation_consistent_with_ideal(self):
        # A hard comparator yields a three-level activation table whose tails
        # are exactly 0 and 1, which freezes the sampler; the soft-inverter
        # device produces the smooth sigmoid this comparison needs.
        base = PbitParams()
        p = PbitParams(
            smtj=base.smtj,
            nmos=calibrate_match(base),
            inverter=InverterParams(v_switch=0.6, gain=60.0),
        )
        grid = [round(0.54 + 0.001 * k, 5) for k in range(121)]
        curve = transfer_curve(p, grid, 3000, 0.1, p.smtj.b_5050, seed=13)
        act = EmpiricalActivation.from_transfer_curve(curve, p.v_dd)
        c = clamp(and_gate(1.0), 2, 0)
        ideal = gibbs_run(c, IdealTanh(), 300_000, burn_in=500, seed=14)
        empirical = gibbs_run(c, act, 300_000, burn_in=500, seed=15)
        l1 = compare_to_oracle(empirical, ideal.frequencies())
        assert l1 < 0.05


# A coarse, non-smooth table exercises interpolation and saturated tails.
TABLE_ACTIVATION = EmpiricalActivation(
    [0.4, 0.5, 0.55, 0.6, 0.62, 0.7, 0.8], [0.0, 0.1, 0.3, 0.5, 0.6, 0.9, 1.0],
    v_dd=1.2, scale=0.05,
)


def random_circuit(n, clamps, seed):
    """Circuit of n nodes with couplings and biases drawn from U(-0.5, 0.5)."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(-0.5, 0.5, (n, n)), 1)
    return PCircuit(j=upper + upper.T, h=rng.uniform(-0.5, 0.5, n), i0=1.0, clamps=clamps)


@st.composite
def small_circuits(draw, free=None):
    """Circuits of up to 8 nodes; with free set, all other nodes are clamped."""
    n = draw(st.integers(free or 1, 8))
    weights = st.floats(-2.0, 2.0, allow_nan=False).map(lambda x: round(x, 3))
    j = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            j[a, b] = j[b, a] = draw(weights)
    h = np.array([draw(weights) for _ in range(n)])
    if free is None:
        clamped = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    else:
        clamped = draw(st.permutations(range(n)))[free:]
    clamps = {node: draw(st.sampled_from((-1, 1))) for node in clamped}
    i0 = draw(st.floats(0.1, 3.0))
    return PCircuit(j=j, h=h, i0=i0, clamps=clamps)


def stream(walk, c, act, total, seed):
    """The free words one path visits in a run of total sweeps, sweep by sweep."""
    word, blocks = _seeded(len(c.free_nodes), seed, total)
    words = []
    for first, chunk in walk(c, act, word, blocks):
        assert first == len(words)
        words.extend(chunk.tolist())
    assert len(words) == total
    return words


def loop_histogram(c, act, n_sweeps, burn_in, seed):
    """gibbs_run's histogram, counted from the node loop's words after burn-in."""
    words = stream(_loop_words, c, act, burn_in + n_sweeps, seed)[burn_in:]
    return _histogram(c, np.bincount(words, minlength=1 << len(c.free_nodes)))


class TestSamplingPaths:
    @settings(max_examples=25, deadline=None)
    @given(
        c=small_circuits(),
        act=st.sampled_from((IdealTanh(), TABLE_ACTIVATION)),
        n_sweeps=st.integers(1, 3000),
        burn_in=st.sampled_from((0, 17, _SWEEP_BLOCK + 5)),
        seed=st.integers(0, 2**32 - 1),
    )
    # burn-in beyond one block and a run ending inside the third block
    @example(
        c=clamp(or_gate(1.0), 2, 1), act=IdealTanh(),
        n_sweeps=2 * _SWEEP_BLOCK + 11, burn_in=_SWEEP_BLOCK + 3, seed=12,
    )
    # eight nodes, one clamped: gibbs_run maps the seven free ones
    @example(
        c=random_circuit(8, clamps={5: -1}, seed=3), act=TABLE_ACTIVATION,
        n_sweeps=2500, burn_in=17, seed=7,
    )
    def test_map_walk_matches_node_updates(self, c, act, n_sweeps, burn_in, seed):
        total = burn_in + n_sweeps
        assert stream(_map_words, c, act, total, seed) == stream(_loop_words, c, act, total, seed)

    @settings(max_examples=40, deadline=None)
    @given(
        c=small_circuits(free=2),
        act=st.sampled_from((IdealTanh(), TABLE_ACTIVATION)),
        n_sweeps=st.integers(1, 3000),
        burn_in=st.sampled_from((0, 1, 17)),
        seed=st.one_of(
            st.integers(0, 2**32 - 1),
            st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 3)).map(np.random.SeedSequence),
        ),
    )
    # burn-in past one block and a run ending inside the third block
    @example(
        c=clamp(and_gate(2.0), 2, 1), act=IdealTanh(),
        n_sweeps=_SWEEP_BLOCK + 11, burn_in=_SWEEP_BLOCK + 3, seed=12,
    )
    @example(
        c=random_circuit(8, clamps={k: (-1) ** k for k in (0, 1, 3, 4, 6, 7)}, seed=5),
        act=TABLE_ACTIVATION, n_sweeps=2 * _SWEEP_BLOCK + 5, burn_in=_SWEEP_BLOCK + 1,
        seed=np.random.SeedSequence((4, 1)),
    )
    def test_pair_scan_matches_node_updates(self, c, act, n_sweeps, burn_in, seed):
        total = burn_in + n_sweeps
        assert stream(_pair_words, c, act, total, seed) == stream(_loop_words, c, act, total, seed)

    def test_pair_scan_carries_words_across_blocks(self):
        # twenty block seams, with moderate couplings so that the word carried
        # over a seam changes what the next block's first sweep does, and a
        # pair so strongly coupled that a block holds almost no restart
        pair = PCircuit(j=[[0.0, 3.0], [3.0, 0.0]], h=[0.0, 0.0], i0=3.0)
        for c in (clamp(or_gate(0.5), 0, 1), random_circuit(3, clamps={1: 1}, seed=9), pair):
            args = (c, IdealTanh(), 20 * _SWEEP_BLOCK + 10, 8)
            assert stream(_pair_words, *args) == stream(_map_words, *args)

    def test_two_free_nodes_take_the_pair_scan(self, monkeypatch):
        c = clamp(and_gate(2.0), 2, 1)
        want = loop_histogram(c, IdealTanh(), 3000, 10, 41)

        def refuse(*args):
            raise AssertionError("took the map walk or the node loop")

        monkeypatch.setattr(pcircuit, "_map_words", refuse)
        monkeypatch.setattr(pcircuit, "_loop_words", refuse)
        assert gibbs_run(c, IdealTanh(), 3000, 10, 41) == want

    def test_large_circuit_updates_node_by_node(self):
        # eight free nodes: beyond the map walk, so gibbs_run takes the loop path
        c = random_circuit(10, clamps={0: 1, 9: -1}, seed=40)
        assert len(c.free_nodes) > _MAP_NODES
        hist = gibbs_run(c, IdealTanh(), 400_000, burn_in=100, seed=41)
        assert compare_to_oracle(hist, boltzmann_exact(c)) < 0.02

    def test_map_walk_counts_free_nodes(self, monkeypatch):
        # ten nodes but four free: the maps run over the 16 free-node words
        c = random_circuit(10, clamps={0: 1, 3: -1, 5: 1, 6: 1, 8: -1, 9: -1}, seed=40)
        want = loop_histogram(c, IdealTanh(), 3000, 10, 41)

        def no_loop(*args):
            raise AssertionError("took the node loop")

        monkeypatch.setattr(pcircuit, "_loop_words", no_loop)
        assert gibbs_run(c, IdealTanh(), 3000, 10, 41) == want

    @pytest.mark.parametrize(
        "c",
        [clamp(and_gate(1.0), 2, 1), and_gate(1.0), random_circuit(9, clamps={4: 1}, seed=2)],
        ids=["pair_scan", "map_walk", "node_loop"],  # 2, 3 and 8 free nodes
    )
    def test_burn_in_is_cut_once_at_every_seam(self, c):
        nf = len(c.free_nodes)
        total = _SWEEP_BLOCK + 5
        words = stream(_loop_words, c, IdealTanh(), total, 3)
        chunk = _MAP_CELLS >> nf  # sweeps per map chunk
        seams = (chunk, _SWEEP_BLOCK)
        for burn_in in [seam + d for seam in seams for d in (-1, 0, 1)] + [total - 1]:
            hist = gibbs_run(c, IdealTanh(), total - burn_in, burn_in, 3)
            assert hist == _histogram(c, np.bincount(words[burn_in:], minlength=1 << nf))
            assert hist.total == total - burn_in

    def test_free_nodes_past_the_limit_are_refused_before_drawing(self, monkeypatch):
        n = ENUMERATION_LIMIT + 1
        big = PCircuit(j=np.zeros((n, n)), h=np.zeros(n), i0=1.0)

        def refuse(*args):
            raise AssertionError("drew before checking the limit")

        monkeypatch.setattr(pcircuit, "_seeded", refuse)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                gibbs_run(big, IdealTanh(), 10, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16  # the counts alone would take 16 MB
        monkeypatch.undo()
        # one clamp leaves ENUMERATION_LIMIT free nodes, which still run
        hist = gibbs_run(clamp(big, 0, 1), IdealTanh(), 5, seed=0)
        assert hist.total == 5
        assert all(w[0] == "1" for w in hist.counts)

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(2, 256),
        sweeps=st.one_of(st.integers(1, 9), st.integers(1, 3 * _MAP_CELLS)),
        seed=st.integers(0, 2**32 - 1),
        start=st.integers(0, 255),
    )
    @example(size=2, sweeps=1, seed=0, start=1)
    @example(size=4, sweeps=_MAP_CELLS // 4 + 1, seed=1, start=3)  # one build chunk and a sweep
    @example(size=256, sweeps=2 * (_MAP_CELLS // 256) - 1, seed=2, start=255)
    def test_walk_matches_sweep_by_sweep(self, size, sweeps, seed, start):
        sweeps = min(sweeps, 3 * (_MAP_CELLS // size))  # beyond one build chunk
        maps = np.random.default_rng(seed).integers(0, size, (size, sweeps), dtype=np.uint8)
        word = start % size
        visited = _walk(maps, word)
        want = []
        for s in range(sweeps):
            word = int(maps[word, s])
            want.append(word)
        assert visited.dtype == np.uint8
        assert visited.tolist() == want

    @settings(max_examples=100, deadline=None)
    @given(
        nf=st.integers(1, 3),
        rows=st.integers(1, 300),
        levels=st.sampled_from((None, 2, 3)),  # uniform doubles, or heavily tied keys
        seed=st.integers(0, 2**32 - 1),
    )
    @example(nf=3, rows=300, levels=3, seed=0)
    def test_orders_are_the_stable_argsort(self, nf, rows, levels, seed):
        rng = np.random.default_rng(seed)
        if levels is None:
            keys = rng.random((rows, nf))
        else:
            keys = rng.integers(0, levels, (rows, nf)) / levels
        orders = _orders(keys)
        assert orders.dtype == np.intp
        assert np.array_equal(orders, keys.argsort(axis=1, kind="stable"))

    def test_map_walk_memory_is_bounded(self):
        # maps are built a few thousand sweeps at a time, not a whole block
        # of 2**n-entry maps at once (about 75 MB at 8 nodes)
        n = 8
        c = PCircuit(j=np.zeros((n, n)), h=np.zeros(n), i0=1.0)
        tracemalloc.start()
        try:
            for _ in _map_words(c, IdealTanh(), *_seeded(n, 1, _SWEEP_BLOCK)):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_pinned_sample_stream(self):
        # Counts of the pair scan (two free nodes) for this seed; any change to
        # the draw sequence or to how draws become updates must show up here.
        hist = gibbs_run(
            clamp(and_gate(2.0), 2, 0), IdealTanh(), 50_000, 100,
            seed=np.random.SeedSequence((1, 0)),
        )
        assert hist.counts == {"000": 16690, "010": 16693, "100": 16610, "110": 7}


class TestCompareToOracle:
    def test_identical_distributions(self):
        hist = StateHistogram(n=2, counts={"00": 1, "01": 1, "10": 1, "11": 1})
        assert compare_to_oracle(hist, hist.frequencies()) == 0.0

    def test_disjoint_supports(self):
        hist = StateHistogram(n=1, counts={"0": 10})
        assert compare_to_oracle(hist, {"1": 1.0}) == pytest.approx(2.0)

    def test_multinomial_sampling_converges(self):
        exact = boltzmann_exact(clamp(and_gate(2.0), 2, 0))
        words = sorted(exact)
        rng = np.random.default_rng(10)
        draws = rng.multinomial(1_000_000, [exact[w] for w in words])
        hist = StateHistogram(n=3, counts=dict(zip(words, map(int, draws))))
        assert compare_to_oracle(hist, exact) < 0.01

    def test_sum_runs_left_to_right_on_every_python(self):
        # a compensated sum (the builtin from Python 3.12) keeps both 1e-16
        # terms and gives 1.0000000000000002
        hist = StateHistogram(n=2, counts={"00": 1})
        assert compare_to_oracle(hist, {"00": 0.0, "01": 1e-16, "10": 1e-16}) == 1.0

    def test_node_count_checked(self):
        hist = StateHistogram(n=2, counts={"00": 1})
        with pytest.raises(ValueError):
            compare_to_oracle(hist, {"000": 1.0})


class TestStructures:
    def test_circuit_validation(self):
        with pytest.raises(ValueError):
            PCircuit(j=np.array([[0.0, 1.0], [2.0, 0.0]]), h=np.zeros(2), i0=1.0)
        with pytest.raises(ValueError):
            PCircuit(j=np.array([[1.0]]), h=np.zeros(1), i0=1.0)
        with pytest.raises(ValueError):
            PCircuit(j=np.zeros((2, 2)), h=np.zeros(2), i0=0.0)
        with pytest.raises(ValueError):
            clamp(and_gate(1.0), 5, 1)
        with pytest.raises(ValueError):
            clamp(and_gate(1.0), 2, 2)

    @pytest.mark.parametrize(
        "make,error,message",
        [
            (lambda: PCircuit(j=np.zeros(2), h=np.zeros(2), i0=1.0), ValueError,
             "J must be square"),
            (lambda: PCircuit(j=np.zeros((2, 2)), h=np.zeros(3), i0=1.0), ValueError,
             "h must match J in size"),
            (lambda: PCircuit(j=np.zeros((2, 2)), h=np.zeros(2), i0=1.0, clamps={2: 1}),
             ValueError, "clamp on unknown node 2"),
            (lambda: PCircuit(j=np.zeros((2, 2)), h=np.zeros(2), i0=1.0, clamps={0: 0}),
             ValueError, "clamp value must be -1 or \\+1"),
            (lambda: EmpiricalActivation([0.6], [0.5], 1.2, 0.01), ValueError,
             "at least two points"),
            (lambda: EmpiricalActivation([0.6, 0.6], [0.4, 0.5], 1.2, 0.01), ValueError,
             "strictly increasing"),
            (lambda: gibbs_run(and_gate(1.0), IdealTanh(), 0), ValueError,
             "n_sweeps must be >= 1"),
            (lambda: gibbs_run(and_gate(1.0), IdealTanh(), 10, burn_in=-1), ValueError,
             "burn_in must be >= 0"),
            (lambda: boltzmann_exact(clamp(clamp(clamp(and_gate(1.0), 0, 1), 1, 1), 2, 1)),
             AllClamped, "no free node"),
        ],
        ids=["j-not-square", "h-size", "clamp-node", "clamp-value", "table-one-point",
             "table-not-increasing", "no-sweeps", "negative-burn-in", "all-clamped-oracle"],
    )
    def test_invalid_input_rejected(self, make, error, message):
        with pytest.raises(error, match=message):
            make()

    def test_histogram_csv_lists_all_words(self):
        hist = gibbs_run(clamp(and_gate(2.0), 2, 1), IdealTanh(), 2000, seed=1)
        buf = io.StringIO()
        hist.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "word,count,frequency"
        assert len(lines) == 9
        assert lines[1].startswith("000,")

    def test_histogram_csv_refuses_past_the_enumeration_limit(self):
        # the file fails its first write, so a missing check stops at the
        # header rather than listing 2**70 words
        class Unwritable(io.StringIO):
            def write(self, text):
                raise AssertionError(f"wrote {text!r}")

        with pytest.raises(TooLarge):
            StateHistogram(n=70, counts={"0" * 70: 1}).to_csv(Unwritable())
