"""Networks of coupled P-Bits with clamping and an exact Boltzmann oracle.

A circuit is a symmetric coupling matrix J, bias vector h and overall
strength i0 over bipolar nodes m in {-1, +1}.  Each update draws node i high
with probability (1 + tanh(I_i)) / 2 where I_i = i0 * (h_i + sum_j J_ij m_j),
which is exactly the Gibbs conditional of the energy
E(m) = -i0 * (sum_i h_i m_i + sum_{i<j} J_ij m_i m_j); sequential
random-permutation sweeps therefore sample the Boltzmann distribution that
boltzmann_exact enumerates.  Updating uncoupled nodes together, one colour
class of a graph colouring at a time, is still exact Gibbs sampling (Aadit
et al., Nat. Electron. 5, 460, 2022); updating coupled nodes simultaneously
is not, so only sequential sweeps are offered.

Clamped bits never change, so a run walks only the free word, in which free
node k is bit nf - 1 - k.  The sampler and the oracle take their keys from
one mapping of free words to full words (_full_words; the two sort alike)
and their states from one table of full words' bipolar states (_states).
Three generators walk the free word, each the same chain with the same
draws, and yield (first sweep, free words visited) per block of sweeps or
map chunk; the pair scan and the maps look update probabilities up in one
table (_free_words).  gibbs_run alone seeds them (_seeded), cuts burn-in,
counts the words and keys the counts by full word (_histogram):

- two free nodes (every clamped 3-node gate): an update reads only the
  other free bit, so one sweep is an affine map over GF(2) of the bit its
  second node held, and a block of sweeps is a first-order recurrence that
  a doubling scan solves (_pair_words);
- one or 3-7 free nodes: each sweep's permutation and draws become a map
  free word -> free word over all 2**nf words, built word-major so that
  each numpy operation runs along the sweeps, and the walk composes sweeps
  pairwise in integer gathers (_map_words);
- more free nodes: node by node (_loop_words), since building a map costs
  work in proportion to 2**nf, and at 8 free nodes the maps measured slower
  than the loop with the ideal tanh.

Histogram words follow the convention bit = (m + 1) / 2 with node 0 (A) as
the most significant bit.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .device import TransferCurve, fit_sigmoid
from .params import PCircuitError

ENUMERATION_LIMIT = 20  # exact oracle enumerates at most 2**20 states

_SWEEP_BLOCK = 16384  # fixed block size keeps the draw sequence reproducible
# Longest rows of update-order keys that _orders sorts by table lookup
# rather than argsort (a table has 2**(nf * (nf - 1) / 2) rows); every CLI
# gate has 2 or 3 free nodes.
_TABLE_KEYS = 3
# Most free nodes that gibbs_run samples by per-sweep maps.  On a 2-vCPU x86
# host (random circuits, 20k sweeps, medians of 5), the node loop took
# 1.4-2.4x the maps' time with 7 free nodes, and 0.80-0.95x with 8 free
# nodes and the ideal tanh.
_MAP_NODES = 7
# Map entries (words x sweeps) built at a time, bounding the temporaries.
_MAP_CELLS = 1 << 15


class AllClamped(PCircuitError):
    """Raised when a sampling run has no free node to update."""


class TooLarge(PCircuitError):
    """Raised when exact enumeration is asked for too many nodes."""


class EnergyOverflow(PCircuitError):
    """Raised when i0 scales a state's energy past the largest double."""


@dataclass(frozen=True)
class PCircuit:
    """Weighted P-Bit network with optional clamped nodes.

    j: symmetric zero-diagonal coupling matrix, h: bias vector, i0: overall
    coupling strength, clamps: node index -> fixed bipolar value.
    """

    j: np.ndarray
    h: np.ndarray
    i0: float
    clamps: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        j = np.asarray(self.j, dtype=float)
        h = np.asarray(self.h, dtype=float)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "h", h)
        if j.ndim != 2 or j.shape[0] != j.shape[1]:
            raise ValueError("J must be square")
        if h.shape != (j.shape[0],):
            raise ValueError("h must match J in size")
        if not np.array_equal(j, j.T):
            raise ValueError("J must be symmetric")
        if np.any(np.diag(j) != 0):
            raise ValueError("J must have a zero diagonal")
        if self.i0 <= 0:
            raise ValueError("i0 must be > 0")
        for node, value in self.clamps.items():
            if not 0 <= node < j.shape[0]:
                raise ValueError(f"clamp on unknown node {node}")
            if value not in (-1, 1):
                raise ValueError(f"clamp value must be -1 or +1, got {value}")

    @property
    def n(self) -> int:
        return self.j.shape[0]

    @property
    def free_nodes(self) -> list:
        return [i for i in range(self.n) if i not in self.clamps]


@dataclass(frozen=True)
class StateHistogram:
    """Counts of digitized network words accumulated over a sampling run."""

    n: int
    counts: dict

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def frequencies(self) -> dict:
        total = self.total
        return {w: c / total for w, c in self.counts.items()}

    def modal_word(self) -> str:
        return max(self.counts, key=lambda w: (self.counts[w], w))

    def to_csv(self, file) -> None:
        if self.n > ENUMERATION_LIMIT:
            raise TooLarge(f"{self.n} nodes exceed the {ENUMERATION_LIMIT}-node listing limit")
        file.write("word,count,frequency\n")
        total = self.total
        for idx in range(2**self.n):
            word = format(idx, f"0{self.n}b")
            c = self.counts.get(word, 0)
            file.write(f"{word},{c},{c / total:.12g}\n")


class IdealTanh:
    """Binary stochastic neuron with the ideal tanh activation."""

    def prob_high(self, i_in: float) -> float:
        return 0.5 * (1.0 + math.tanh(i_in))


class EmpiricalActivation:
    """Activation interpolated from a measured P-Bit transfer curve.

    The table maps input voltage to probability of the high output state
    (samples above v_dd / 2), cleaned to be monotone by isotonic regression.
    Dimensionless inputs map to volts as v = v_dd / 2 + scale * I, where the
    scale is the fitted tanh width of the device sigmoid so that a unit I
    corresponds to a unit argument of the ideal tanh.
    """

    def __init__(self, v_inputs, p_high, v_dd: float, scale: float):
        self.v_inputs = [float(v) for v in v_inputs]
        self.p_high = _isotonic(list(map(float, p_high)))
        self.v_dd = float(v_dd)
        self.scale = float(scale)
        if len(self.v_inputs) < 2:
            raise ValueError("activation table needs at least two points")
        if any(b <= a for a, b in zip(self.v_inputs, self.v_inputs[1:])):
            raise ValueError("activation inputs must be strictly increasing")

    @classmethod
    def from_transfer_curve(cls, curve: TransferCurve, v_dd: float) -> "EmpiricalActivation":
        # Mean output as a fraction of the rail; identical to the fraction of
        # high samples for rail-to-rail outputs and the smooth generalization
        # for soft-switching ones.
        v = [p.v_in for p in curve.points]
        p_high = [min(max(p.mean_v_out / v_dd, 0.0), 1.0) for p in curve.points]
        p_iso = _isotonic(p_high)
        _, width = fit_sigmoid(v, [q * v_dd for q in p_iso], v_dd)
        # logistic width w gives p = 0.5 * (1 + tanh((v - c) / (2w)))
        return cls(v, p_iso, v_dd, scale=2.0 * width)

    def prob_high(self, i_in: float) -> float:
        v = self.v_dd / 2 + self.scale * i_in
        xs, ps = self.v_inputs, self.p_high
        if v <= xs[0]:
            return ps[0]
        if v >= xs[-1]:
            return ps[-1]
        k = bisect_left(xs, v)
        t = (v - xs[k - 1]) / (xs[k] - xs[k - 1])
        return ps[k - 1] + t * (ps[k] - ps[k - 1])


def _isotonic(y: list) -> list:
    """Pool-adjacent-violators pass producing a non-decreasing sequence.

    Blocks pool only where a mean, as it is written out, exceeds the next
    one, so a non-decreasing input comes back unchanged.
    """
    level = []  # (sum, count)
    for v in y:
        s, c = v, 1
        while level and level[-1][0] / level[-1][1] > s / c:
            ps, pc = level.pop()
            s += ps
            c += pc
        level.append((s, c))
    out = []
    for s, c in level:
        out.extend([s / c] * c)
    return out


def gibbs_run(
    c: PCircuit, act, n_sweeps: int, burn_in: int = 0, seed=None
) -> StateHistogram:
    """Sequential Gibbs sampling of the circuit.

    Free nodes start uniformly at random; every sweep updates them in a fresh
    random permutation and one full word is recorded per sweep after burn_in.
    Deterministic for a given seed.  Counts are held for all 2**nf free
    words, so at most ENUMERATION_LIMIT free nodes are sampled (about 8 MB
    of counts); more raise TooLarge before anything is drawn.
    """
    if n_sweeps < 1:
        raise ValueError("n_sweeps must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    nf = len(c.free_nodes)
    if not nf:
        raise AllClamped("no free node to update")
    if nf > ENUMERATION_LIMIT:
        raise TooLarge(f"{nf} free nodes exceed the {ENUMERATION_LIMIT}-node sampling limit")
    walk = _pair_words if nf == 2 else _map_words if nf <= _MAP_NODES else _loop_words
    counts = np.zeros(1 << nf, dtype=np.int64)
    for done, words in walk(c, act, *_seeded(nf, seed, burn_in + n_sweeps)):
        counts += np.bincount(words[max(burn_in - done, 0) :], minlength=1 << nf)
    return _histogram(c, counts)


def _seeded(nf: int, seed, total: int):
    """Start free word and sweep blocks of a run: free bits drawn, then sweeps."""
    rng = np.random.default_rng(seed)
    word = 0
    for bit in rng.integers(0, 2, nf):
        word = word << 1 | int(bit)
    return word, _sweep_blocks(rng, nf, total)


def _sweep_blocks(rng, nf: int, total: int):
    """Yield (first sweep, update orders, uniform draws) per block of sweeps.

    Every sampling path draws through here, so all consume the same stream.
    The permutation keys, then the draws, fill one buffer allocated once per
    run, so a block's draws are overwritten by the next block's keys.
    """
    buf = np.empty((min(_SWEEP_BLOCK, total), nf))
    for done in range(0, total, _SWEEP_BLOCK):
        block = min(_SWEEP_BLOCK, total - done)
        perms = _orders(rng.random(out=buf[:block]))
        yield done, perms, rng.random(out=buf[:block])


def _orders(keys: np.ndarray) -> np.ndarray:
    """Update orders of a (sweeps, nf) block of keys: each row's argsort.

    numpy sorts each row of a 2-D argsort as its own call, which costs more
    than the comparisons when rows are short.  Rows of at most _TABLE_KEYS
    keys look their order up in _ORDER_TABLES instead, by the outcomes of
    their pairwise comparisons.  That is the stable argsort, which any
    argsort equals on keys without ties, as uniform doubles are but for a
    chance of 2**-53 per pair.
    """
    nf = keys.shape[1]
    if nf > _TABLE_KEYS:
        return keys.argsort(axis=1)
    code = np.zeros(len(keys), dtype=np.uint8)
    for i, j in itertools.combinations(range(nf), 2):
        code <<= 1
        code |= keys[:, j] < keys[:, i]
    return _ORDER_TABLES[nf].take(code, axis=0)


def _order_table(nf: int) -> np.ndarray:
    """Row c: the stable argsort of nf keys whose comparison code is c.

    The code has one bit per pair i < j of columns, in combinations order
    with the first pair most significant, set when key j is strictly below
    key i: exactly when a stable sort puts j before i.  Codes that no keys
    give (a cycle) keep row 0.
    """
    table = np.zeros((1 << nf * (nf - 1) // 2, nf), dtype=np.intp)
    for order in itertools.permutations(range(nf)):
        rank = {column: r for r, column in enumerate(order)}
        code = 0
        for i, j in itertools.combinations(range(nf), 2):
            code = code << 1 | (rank[j] < rank[i])
        table[code] = order
    return table


_ORDER_TABLES = {nf: _order_table(nf) for nf in range(1, _TABLE_KEYS + 1)}


def _local_fields(c: PCircuit):
    """Python-float bias i0 * h_i and coupling rows [(j, i0 * J_ij)] per node."""
    i0 = float(c.i0)
    bias = [i0 * float(c.h[i]) for i in range(c.n)]
    rows = [
        [(j, i0 * float(c.j[i, j])) for j in range(c.n) if c.j[i, j] != 0.0]
        for i in range(c.n)
    ]
    return bias, rows


def _full_words(c: PCircuit, free_words) -> np.ndarray:
    """Full words of free words (free node k is bit nf - 1 - k); Python ints past 63 nodes."""
    n, free = c.n, c.free_nodes
    index = np.asarray(free_words, dtype=np.int64 if n < 64 else object)
    words = np.full_like(index, sum(1 << (n - 1 - node) for node, v in c.clamps.items() if v > 0))
    for k, node in enumerate(free):
        words |= (index >> (len(free) - 1 - k) & 1) << (n - 1 - node)
    return words


def _states(n: int, words: np.ndarray) -> np.ndarray:
    """Bipolar states of full words of n nodes: row s is m of words[s], node 0 first."""
    shifts = np.arange(n - 1, -1, -1).astype(words.dtype)  # Python ints for object words
    return np.where(words[:, None] >> shifts & 1, 1.0, -1.0)


def _free_words(c: PCircuit, act) -> np.ndarray:
    """prob[k, w] = P(free node k high | free word w)."""
    bias, rows = _local_fields(c)
    columns = _states(c.n, _full_words(c, np.arange(1 << len(c.free_nodes)))).T.tolist()
    prob = []
    for node in c.free_nodes:
        # the node loop's own Python-float sum, so every path reads bit-identical probabilities
        fields = [bias[node]] * len(columns[0])
        for j, wt in rows[node]:
            fields = [x + wt * m for x, m in zip(fields, columns[j])]
        prob.append([act.prob_high(x) for x in fields])
    return np.array(prob)


def _histogram(c: PCircuit, counts: np.ndarray) -> StateHistogram:
    """Histogram of free-word counts, keyed by the full words they stand for."""
    width = f"0{c.n}b"
    seen = np.flatnonzero(counts)
    words = zip(_full_words(c, seen).tolist(), counts[seen].tolist())
    return StateHistogram(n=c.n, counts={format(word, width): k for word, k in words})


def _pair_words(c: PCircuit, act, word: int, blocks):
    """Free words of exactly two free nodes, by a scan over GF(2) per block.

    Sweep s updates free node a = perms[s, 0], then the other, b.  An update
    reads only the other free bit r (J has a zero diagonal), so with u its
    draw it sets its bit to [u < p(r)] = alpha * r ^ beta, where beta =
    [u < p(0)] and alpha = beta ^ [u < p(1)].  From b's bit x before the
    sweep, a ends at alpha0 * x ^ beta0 and b at g * x ^ h, with g = alpha1 *
    alpha0 and h = alpha1 * beta0 ^ beta1.  The next sweep's b is this one's
    b or a, so x_{s+1} = gamma_s * x_s ^ delta_s over GF(2): x restarts at
    delta where gamma = 0 and otherwise flips where delta = 1.  A Hillis-
    Steele scan solves it: step j composes each sweep's map x -> gamma * x ^
    delta with the one 2**j sweeps before, and the scan stops once every
    composed map holds a restart, so is constant: about 2.5 steps per block
    on the clamped gates, and at most 14.  Same draws and comparisons as the
    node loop.
    """
    prob = _free_words(c, act)
    # p_k(r) = p[k][r]: free node 0 reads bit 0 of a free word, node 1 bit 1
    p = [[prob[0, 0], prob[0, 1]], [prob[1, 0], prob[1, 2]]]
    for done, perms, draws in blocks:
        flip = perms[:, 0] == 1  # a = 1, b = 0
        u, v = draws.T.copy()
        beta0 = _pick(flip, u < p[0][0], u < p[1][0])
        alpha0 = beta0 ^ _pick(flip, u < p[0][1], u < p[1][1])
        beta1 = _pick(flip, v < p[1][0], v < p[0][0])
        alpha1 = beta1 ^ _pick(flip, v < p[1][1], v < p[0][1])
        g = alpha1 & alpha0
        h = (alpha1 & beta0) ^ beta1
        x0 = word >> int(perms[0, 0]) & 1 == 1  # b's bit in the carried word
        # the next sweep's b is this sweep's b, (gamma, delta) = (g, h), or
        # its a, (alpha0, beta0); x holds delta until the scan solves it
        same = flip[1:] == flip[:-1]
        x = np.concatenate(([x0], _pick(same, beta0[:-1], h[:-1])))
        gamma = np.concatenate(([False], _pick(same, alpha0[:-1], g[:-1])))
        k = 1
        while gamma.any():
            x[k:] ^= gamma[k:] & x[:-k]
            gamma[k:] &= gamma[:-k]
            k *= 2
        bit_a = (alpha0 & x) ^ beta0
        bit_b = (g & x) ^ h
        high = _pick(flip, bit_a, bit_b)  # free node 0 is the high bit
        words = high.view(np.uint8) << 1 | (high ^ bit_a ^ bit_b).view(np.uint8)
        word = int(words[-1])
        yield done, words


def _pick(mask: np.ndarray, no: np.ndarray, yes: np.ndarray) -> np.ndarray:
    """yes where mask, else no, on bool arrays: np.where without its cost."""
    return no ^ (mask & (no ^ yes))


def _map_words(c: PCircuit, act, word: int, blocks):
    """Free words by per-sweep maps over free-node words; bytes, so nf <= 8."""
    nf = len(c.free_nodes)
    size = 1 << nf
    prob = _free_words(c, act).ravel()  # prob[k * size + w]
    bits = (1 << np.arange(nf - 1, -1, -1)).astype(np.uint8)
    identity = np.arange(size, dtype=np.uint8)[:, None]
    step = max(1, _MAP_CELLS // size)  # sweeps whose maps are built at once
    for done, perms, draws in blocks:
        for first in range(0, len(draws), step):
            chunk = slice(first, first + step)
            # maps[w, s]: the free word that sweep s leaves behind when it
            # starts at w; word-major, so every operation runs along sweeps
            maps = np.broadcast_to(identity, (size, len(draws[chunk])))
            for slot in range(nf):
                k = perms[chunk, slot]
                bit = bits[k]
                high = draws[chunk, slot] < prob.take(k * size + maps)
                maps = (maps & ~bit) | (bit * high)
            visited = _walk(maps, word)
            word = int(visited[-1])
            yield done + first, visited


def _walk(maps: np.ndarray, word: int) -> np.ndarray:
    """Words visited from word through the maps maps[:, 0], maps[:, 1], ...

    Returns v with v[0] = maps[word, 0] and v[s] = maps[v[s - 1], s], by
    composition rather than sweep by sweep: one flat take composes each pair
    of sweeps (2k, 2k + 1), the walk over those pairs gives the words after
    the odd sweeps, and one more take the words after the even ones.
    """
    size, sweeps = maps.shape
    flat = maps.ravel()  # maps[w, s] at w * sweeps + s
    if sweeps == 1:
        return flat[word : word + 1]
    pairs = sweeps // 2
    index = np.multiply(maps[:, : 2 * pairs : 2], sweeps, dtype=np.intp)
    index += np.arange(1, 2 * pairs, 2)
    visited = np.empty(sweeps, dtype=maps.dtype)
    visited[1::2] = _walk(flat.take(index, mode="clip"), word)
    visited[0] = flat[word * sweeps]
    index = np.multiply(visited[1 : sweeps - 1 : 2], sweeps, dtype=np.intp)
    index += np.arange(2, sweeps, 2)
    visited[2::2] = flat.take(index, mode="clip")
    return visited


def _loop_words(c: PCircuit, act, word: int, blocks):
    """Free words node update by node update; builds nothing over 2**nf words."""
    free = c.free_nodes
    masks = [1 << (len(free) - 1 - k) for k in range(len(free))]
    m = _states(c.n, _full_words(c, [word]))[0].tolist()
    # Python-level caches keep the inner loop free of numpy scalar overhead.
    bias, rows = _local_fields(c)
    prob = act.prob_high
    for done, perms, draws in blocks:
        words = []
        for perm, row_draws in zip(perms.tolist(), draws.tolist()):
            for slot, k in enumerate(perm):
                node = free[k]
                acc = bias[node]
                for j, w in rows[node]:
                    acc += w * m[j]
                new = 1.0 if row_draws[slot] < prob(acc) else -1.0
                if new != m[node]:
                    m[node] = new
                    word ^= masks[k]
            words.append(word)
        yield done, np.array(words)


def boltzmann_exact(c: PCircuit) -> dict:
    """Exact Boltzmann distribution over clamp-consistent words.

    Enumerates the free nodes, computes E(m) = -i0 * (h . m + sum_{i<j}
    J_ij m_i m_j) and normalizes exp(-E).  Limited to 20 nodes.
    """
    if c.n > ENUMERATION_LIMIT:
        raise TooLarge(f"{c.n} nodes exceed the {ENUMERATION_LIMIT}-node enumeration limit")
    if not c.free_nodes:
        raise AllClamped("no free node: distribution is a single clamped word")
    words = _full_words(c, np.arange(1 << len(c.free_nodes)))
    states = _states(c.n, words)
    with np.errstate(over="ignore"):  # an energy gap past the largest double weighs 0
        energy = -c.i0 * (states @ c.h + 0.5 * np.einsum("si,ij,sj->s", states, c.j, states))
        if not np.isfinite(energy).all():
            raise EnergyOverflow(f"i0={c.i0:g} overflows the state energies")
        energy -= energy.min()
    weights = np.exp(-energy)
    probs = weights / weights.sum()
    width = f"0{c.n}b"
    return {format(w, width): p for w, p in zip(words.tolist(), probs.tolist())}


def and_gate(i0: float) -> PCircuit:
    """Three-node invertible AND: nodes (A, B, C) with C = A and B at the
    energy minima (verified by enumeration in the test suite)."""
    return _gate(i0, h=(1.0, 1.0, -2.0))


def or_gate(i0: float) -> PCircuit:
    """Three-node invertible OR: nodes (A, B, C) with C = A or B at the
    energy minima (verified by enumeration in the test suite)."""
    return _gate(i0, h=(-1.0, -1.0, 2.0))


def _gate(i0: float, h) -> PCircuit:
    j = np.array(
        [
            [0.0, -1.0, 2.0],
            [-1.0, 0.0, 2.0],
            [2.0, 2.0, 0.0],
        ]
    )
    return PCircuit(j=j, h=np.asarray(h, dtype=float), i0=i0)


def clamp(c: PCircuit, node: int, value: int) -> PCircuit:
    """Circuit with the node pinned at bipolar 2 * value - 1 (value in {0, 1})."""
    if not 0 <= node < c.n:
        raise ValueError(f"node {node} out of range")
    if value not in (0, 1):
        raise ValueError("clamp value must be 0 or 1")
    clamps = dict(c.clamps)
    clamps[node] = 2 * value - 1
    return PCircuit(j=c.j, h=c.h, i0=c.i0, clamps=clamps)


def compare_to_oracle(hist: StateHistogram, exact: dict) -> float:
    """L1 distance between sampled frequencies and an exact distribution."""
    if any(len(word) != hist.n for word in exact):
        raise ValueError("histogram and oracle describe different node counts")
    freqs, l1 = hist.frequencies(), 0.0
    # sorted, left to right: set order varies per run, and Python 3.12's sum is compensated
    for w in sorted(set(freqs) | set(exact)):
        l1 += abs(freqs.get(w, 0.0) - exact.get(w, 0.0))
    return float(l1)
