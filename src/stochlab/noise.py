"""Seeded, refinable Brownian paths, the one noise schedule, and the parameter
processes driving RODEs.

All randomness flows through counter-based Philox streams keyed by
(master seed, domain, index), so distinct purposes (base sampling, bridge
refinement levels, ensemble paths) get independent, reproducible streams.
philox_keys derives the keys of many streams in one vectorized pass, each
equal to the key numpy's SeedSequence(entropy=seed, spawn_key=(domain,
index)) would give; _keyed builds a stream on its key without reading OS
entropy.  _noise_pieces lays out in time the noise that ensembles (one
level) and refinement studies (a level per halving) step on: a level that
fits in one block is drawn whole on one re-keyed Philox (_fresh_streams),
the others in time blocks on one persistent bare Philox a path (_philox).
Each path's draw lands contiguously in a buffer.  sample_brownian and
refine are the one-path calls, so a path is drawn and refined alike alone
or in a stack, bit for bit.
Increments are the canonical storage; cumulative values are always derived.
write_csv, the one writer of every CSV the package emits, lives here at the
bottom of the import graph, where integrate, analyze and cli all import it.
"""
from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
import numpy as np

# Stream domains. Distinct first entries of the spawn key keep base paths,
# refinement levels, ensemble members and samplers statistically independent.
DOMAIN_BASE = 0
DOMAIN_REFINE = 1
DOMAIN_ENSEMBLE = 2
DOMAIN_SAMPLER = 3

_REFINE_CHUNK = 2**16  # noise values _refine_stack draws and refines at a time (512 KiB)
# Noise values _noise_pieces holds per time block: 2**19 float64 values (4
# MiB).  A run's memory then grows with the block, not with the horizon;
# blocked draws equal one-shot draws bit for bit, so no result depends on it.
_BLOCK_VALUES = 2**19
_key_source = None  # the shared seed sequence of _philox, made at its first call
_ZERO_COUNTER = np.zeros(4, np.uint64)  # the counter of a fresh Philox, as numpy reads it


# The hash constants of numpy's SeedSequence (O'Neill's seed_seq notes).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(values, n_words, what):
    """Little-endian 32-bit words of integers in [0, 2**(32 n_words)): Python
    ints for a scalar, uint64 arrays otherwise."""
    if isinstance(values, int) or np.ndim(values) == 0:
        v = operator.index(values)
        bad = v < 0 or v >> (32 * n_words)
    else:
        v = np.asarray(values)
        if v.dtype.kind in "fO" and not isinstance(values, np.ndarray):
            # Python ints: numpy makes floats of lists mixing int64 and
            # uint64 values, and objects of ints beyond 64 bits
            v = np.array(values, dtype=object)
            bad = any(operator.index(x) < 0 or x >> (32 * n_words) for x in v.flat)
        elif v.dtype.kind in "iu":
            bad = np.any(v < 0) or n_words == 1 and np.any(v > _MASK32)
            v = v.astype(np.uint64)
        else:
            raise TypeError(f"{what} must be integers, got {v.dtype}")
    if bad:
        raise ValueError(f"{what} must be integers in [0, 2**{32 * n_words}), got {values}")
    words = [(v >> (32 * j)) & _MASK32 for j in range(n_words)]
    return [w.astype(np.uint64) if isinstance(w, np.ndarray) else w for w in words]


def _hasher(init, mult):
    """SeedSequence's hashmix: xor in a running constant, advance the constant,
    multiply by it and fold the high half down.  Values are Python ints or
    uint64 arrays of 32-bit words; a product of two such words fits in 64
    bits, so masking gives the uint32 arithmetic."""
    hc = init

    def hashmix(value):
        nonlocal hc
        value = value ^ hc
        hc = hc * mult & _MASK32
        value = value * hc & _MASK32
        return value ^ (value >> 16)

    return hashmix


def philox_keys(seeds, domain, indices) -> np.ndarray:
    """Philox keys of the streams (seeds, domain, indices), broadcast together,
    as uint64 of shape broadcast + (2,).

    Each key equals SeedSequence(entropy=seed, spawn_key=(domain, index))
    .generate_state(2, np.uint64): this ports SeedSequence's mixing for
    seeds below 2**128 and domains and indices below 2**32, where its padded
    entropy pool is always (4 seed words, domain, index).  Other values
    raise ValueError.
    """
    entropy = _words(seeds, 4, "seeds") + _words(domain, 1, "domain") \
        + _words(indices, 1, "indices")
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    # generate_state(2, np.uint64): four output words, paired little-endian
    out = _hasher(_INIT_B, _MULT_B)
    state = [out(w) for w in pool]
    keys = np.array([state[0] | (state[1] << 32), state[2] | (state[3] << 32)], dtype=np.uint64)
    return keys if keys.ndim == 1 else np.moveaxis(keys, 0, -1)


def derive_seed(master: int, domain: int, index):
    """Independent 64-bit child seed for (master, domain, index): the first
    word of that stream's Philox key.  An array of indices gives a uint64
    array of seeds."""
    words = philox_keys(master, domain, index)[..., 0]
    return int(words) if words.ndim == 0 else words


def _philox(key):
    """Philox(key=key) for a 2-word uint64 key, bit for bit: the bare bit
    generator of a persistent stream.  Philox(key=) also builds a
    SeedSequence from OS entropy and never uses it; here every stream is
    built on one shared key source instead, whose key each thread sets just
    before a build and which the Philox constructor reads once, so a stream
    holds no seed sequence object of its own.  The preset counter array
    spares numpy the Python-level conversion of counter=0."""
    global _key_source
    if _key_source is None:  # numpy loads numpy.random lazily; importing it costs setup
        from numpy.random.bit_generator import ISeedSequence

        class _KeySource(threading.local, ISeedSequence):
            key = None  # per thread, so concurrent builds keep their own keys

            def generate_state(self, n_words, dtype=None):
                return self.key  # Philox asks for its 2-word uint64 key

            def __copy__(self):  # a copied stream shares the source: it holds no key
                return self

            def __deepcopy__(self, memo):
                return self
        _key_source = _KeySource()
    source = _key_source
    source.key = key
    bits = np.random.Philox(source, counter=_ZERO_COUNTER)
    source.key = None  # hold no key array past the build
    return bits


def _keyed(key) -> np.random.Generator:
    """Generator(Philox(key=key)) for a 2-word uint64 key, bit for bit."""
    return np.random.Generator(_philox(key))


def stream(seed: int, domain: int, index: int) -> np.random.Generator:
    """Derived generator for (seed, domain, index), counter-based (Philox)."""
    return _keyed(philox_keys(seed, domain, index))


def _fresh_streams(keys):
    """Yield, for each Philox key, a generator as fresh as _keyed(key), valid
    until the next one is yielded.  One Philox is re-keyed throughout, a
    third of the cost of building one; it suits streams drawn from once.
    The state holds Python ints, which the setter reads faster than arrays."""
    gen = _keyed(np.zeros(2, np.uint64))
    bits, state = gen.bit_generator, gen.bit_generator.state
    state["state"]["counter"] = state["state"]["counter"].tolist()
    state["buffer"] = state["buffer"].tolist()
    for key in keys:
        state["state"]["key"] = key.tolist()
        bits.state = state
        yield gen


def _normal_rows(gens, out, sd):
    """Fill out[p] with gens[p].normal(0.0, sd, out[p].shape), bit for bit, and
    return out.  A stream is a Generator or the bare Philox of a persistent
    stream (_philox), drawn through a Generator made here.  Each C-contiguous
    row takes a standard normal draw in place and the stack is scaled once:
    normal returns 0.0 + sd * z, and adding 0.0 changes no value but -0.0."""
    for row, gen in zip(out, gens):  # rows first: a longer gens loses no stream
        if isinstance(gen, np.random.BitGenerator):
            gen = np.random.Generator(gen)
        gen.standard_normal(out=row)
    out *= sd
    out += 0.0
    return out


def _grid_steps(T: float, h: float) -> int:
    """Step count N = ceil(T/h) of the grid of step h on [0, T]; raises
    ValueError unless T > 0, 0 < h <= T, T/h is finite and numpy can size
    the N + 1 float64 grid times (N + 1 <= np.iinfo(np.intp).max // 8)."""
    if not (T > 0 and 0 < h <= T and math.isfinite(T / h)):
        raise ValueError(f"need T > 0, 0 < h <= T and a finite T/h, got T={T}, h={h}")
    # ceil with a guard against T/h landing just above an integer in floats
    n = int(math.ceil(T / h - 1e-9))
    if n + 1 > np.iinfo(np.intp).max // 8:
        raise ValueError(f"a grid of {n + 1} times is more than a float64 array can hold, "
                         f"got T={T}, h={h}")
    return n


@dataclass(frozen=True)
class NoisePath:
    """Discretized Brownian path: uniform grid, per-step increments, seed, level."""

    times: np.ndarray
    increments: np.ndarray
    seed: int
    level: int = 0

    def __post_init__(self):
        self.times.flags.writeable = False
        self.increments.flags.writeable = False
        if self.increments.shape[0] != self.times.shape[0] - 1:
            raise ValueError("increments must have one row per grid step")

    @property
    def h(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]

    @property
    def dims(self) -> int:
        return self.increments.shape[1]

    def cumulative(self) -> np.ndarray:
        """W on the grid, shape (N+1, l), with W(t0) = 0 by convention."""
        w = np.zeros((self.n_steps + 1, self.dims))
        np.cumsum(self.increments, axis=0, out=w[1:])
        return w


def _brownian_stack(keys, n_steps: int, h: float, dims: int) -> np.ndarray:
    """Base increments (n_steps, P, dims) of the P paths whose streams keys
    (P, 2) key: path p, increments[:, p], is normal(0, sqrt h) of shape
    (n_steps, dims) drawn from its stream, re-keyed once (_fresh_streams)."""
    draws = np.empty((len(keys), n_steps, dims))
    return _normal_rows(_fresh_streams(keys), draws, math.sqrt(h)).transpose(1, 0, 2)


def sample_brownian(seed: int, T: float, h: float, dims: int = 1) -> NoisePath:
    """Sample N = ceil(T/h) i.i.d. N(0, h) increments per dimension.

    Deterministic: identical arguments give bitwise-identical paths, equal to
    the same seed's path in a stack of coupled paths.
    """
    if dims < 1:
        raise ValueError(f"dims must be >= 1, got {dims}")
    keys = philox_keys([seed], DOMAIN_BASE, 0)
    increments = _brownian_stack(keys, _grid_steps(T, h), h, dims)[:, 0]
    times = np.arange(len(increments) + 1) * h
    return NoisePath(times=times, increments=increments, seed=int(seed), level=0)


def refine(path: NoisePath) -> NoisePath:
    """Halve the step by Brownian-bridge conditioning.

    The path draws its midpoint noise from its own (seed, DOMAIN_REFINE,
    level + 1) stream, so it refines alike alone, in a stack of coupled
    paths or block by block in time (_refine_stack), bit for bit.

    Midpoint increments are parent/2 + xi with xi ~ N(0, h/4), so the two
    fine increments of every parent step sum back to the parent increment:
    exactly on most steps, within one ulp on the rest.  Rounded sums cannot
    be exact on every step without clipping the bridge tail (a float pair
    summing exactly to p must live on p's representational grid, which caps
    the midpoint deviation near |p|), and clipping would bias every strong
    convergence study run on refined families, so sub-ulp closure wins.
    """
    keys = philox_keys(path.seed, DOMAIN_REFINE, path.level + 1)[None]
    fine = _refine_stack(path.increments[:, None], path.h, _fresh_streams(keys))[:, 0]
    times = np.arange(len(fine) + 1) * (path.h / 2.0)
    return NoisePath(times=times, increments=fine, seed=path.seed, level=path.level + 1)


def _refine_scratch(n: int, p: int, l: int) -> int:
    """Values of the scratch buffer with which _refine_stack refines any
    (m, p, l) stack with m <= n: a chunk's midpoint draws and its two halves."""
    return 3 * min(p * n * l, max(_REFINE_CHUNK, n * l))


def _refine_stack(parent: np.ndarray, h: float, gens, fine=None, scratch=None) -> np.ndarray:
    """refine on the (N, P, l) increments of P paths on a grid of step h,
    path p drawing its midpoint noise from gens[p], its stream of the level
    one finer: returns the (2N, P, l) stack one level finer, written into
    fine where given.

    gens is consumed in path order, once per call, so it may be a one-shot
    iterator of fresh streams (_fresh_streams) or a list of persistent ones
    (_philox); each path's stream then continues where it stopped, so
    refining a stack in time blocks, on the same persistent streams, equals
    refining it whole, bit for bit.  Paths are refined in chunks of about
    _REFINE_CHUNK noise values: each path of a chunk draws contiguously, and
    the bridge arithmetic runs on that chunk alone, all in one flat scratch
    buffer of _refine_scratch(N, P, l) values (made here unless given), so
    nothing full-size is held but parent and fine.
    """
    n, p, l = parent.shape
    gens = iter(gens)
    step = max(1, _REFINE_CHUNK // max(n * l, 1))
    if scratch is None:
        scratch = np.empty(_refine_scratch(n, p, l))
    if fine is None:
        fine = np.empty((2 * n, p, l))
    for c in range(0, p, step):
        d = min(c + step, p)
        k = (d - c) * n * l
        xi = _normal_rows(gens, scratch[:k].reshape(d - c, n, l), math.sqrt(h) / 2.0)
        first, second = (scratch[j * k:(j + 1) * k].reshape(n, d - c, l) for j in (1, 2))
        coarse = parent[:, c:d]
        np.multiply(coarse, 0.5, out=first)
        first += xi.transpose(1, 0, 2)
        np.subtract(coarse, first, out=second)
        # where the rounded pair misses the parent by an ulp, re-deriving
        # first from the stored complement restores exact closure on most
        # such steps without touching the bridge statistics
        bad = np.add(first, second, out=scratch[:k].reshape(n, d - c, l)) != coarse
        if bad.any():
            np.subtract(coarse, second, out=first, where=bad)
        fine[0::2, c:d] = first
        fine[1::2, c:d] = second
    return fine


def _noise_pieces(keys, n: int, h0: float, dims: int, width: int | None = None):
    """Yield the noise of P paths in pieces (level, increments (rows, P,
    dims), times (rows + 1,)), a level per entry of keys, each level's pieces
    in time order tiling its grid.  Level 0 has n steps of h0, path p drawn
    from the stream keyed keys[0][p]; level j is the bridge refinement
    (refine) of level j - 1, path p drawing from the stream keyed keys[j][p].
    Blocks are sized for width paths (default P), for ranges of a wider run.

    The levels whose stacks fit in _BLOCK_VALUES values come whole, coarsest
    first, on streams used once.  The deeper ones then come in lockstep over
    time blocks of the last whole level's grid (level 0's, where none fits),
    each drawn or refined from its parent's piece on persistent streams, so
    memory grows neither with the horizon nor with the finest level.  A
    block's pieces hold at most _BLOCK_VALUES values, unless one grid step
    needs more, in buffers made once: a streamed piece is valid until the
    next is yielded, and a level's first piece is its longest.
    """
    levels, p, h, whole = len(keys), len(keys[0]), h0, 0
    width = width or p  # the ranges of one run then share their pieces' bounds
    while whole < levels and (n << whole) * width * dims <= _BLOCK_VALUES:
        whole += 1
    for level in range(whole):
        if level:
            increments = _refine_stack(increments, h, _fresh_streams(keys[level]))
            h /= 2.0
        else:
            increments = _brownian_stack(keys[0], n, h, dims)
        yield level, increments, np.arange(len(increments) + 1) * h
    if whole == levels:
        return
    # the grid the blocks tile, and the first streamed level's steps per grid step
    grid, ratio = (len(increments), 2) if whole else (n, 1)
    block = max(1, _BLOCK_VALUES // (ratio * (2 ** (levels - whole) - 1) * width * dims))
    streamed, top = [], h
    for level in range(whole, levels):
        if level:
            buf = np.empty((block * ratio, p, dims))
            h /= 2.0
        else:  # level 0 draws its block, each path's steps contiguous
            buf = np.empty((p, block, dims))
        streamed.append((level, ratio, h, [_philox(key) for key in keys[level]], buf))
        ratio *= 2
    del keys  # the streams hold all they need of it
    # up to the finest's parent, where a streamed level refines at all
    scratch = np.empty(_refine_scratch(block * ratio // 4, p, dims)) if levels > 1 else None
    for a in range(0, grid, block):
        b = min(a + block, grid)
        piece, hp = (increments[a:b] if whole else None), top
        for level, r, hl, gens, buf in streamed:
            if piece is None:
                piece = _normal_rows(gens, buf[:, :b - a], math.sqrt(hl)).transpose(1, 0, 2)
            else:
                piece = _refine_stack(piece, hp, gens, buf[:(b - a) * r], scratch)
            hp = hl
            yield level, piece, np.arange(a * r, b * r + 1) * hl


# dtype kind -> printf cell: text verbatim, ints exactly, bool/float at 17 significant digits
_CELLS = {"U": "%s", "b": "%.17g", "i": "%d", "u": "%d", "f": "%.17g"}


def write_csv(file, header: str, columns, comment: str | None = None):
    """Comma-separated columns under a mandatory header row, after one '# '
    line per comment line.  Text cells (dtype kind U) are written verbatim,
    int cells exactly, bool and float cells at 17 significant digits, one
    format per row.
    Raises ValueError, before the file is opened, for columns of unequal
    lengths or of any other dtype kind (complex, object, bytes)."""
    columns = [np.asarray(c) for c in columns]
    lengths = {len(c) for c in columns}
    if len(lengths) > 1 or any(c.dtype.kind not in _CELLS for c in columns):
        raise ValueError("write_csv takes text, bool, int or float columns of equal lengths, got "
                         + ", ".join(f"column {j}: {len(c)} x {c.dtype}" for j, c in enumerate(columns)))
    row = ",".join(_CELLS[c.dtype.kind] for c in columns) + "\n"
    with open(file, "w", newline="") as fh:
        if comment:
            for line in comment.rstrip("\n").split("\n"):
                fh.write(f"# {line}\n")
        fh.write(header + "\n")
        for i in range(0, max(lengths, default=0), 1024):  # Python numbers, 1024 rows at a time
            fh.writelines(map(row.__mod__, zip(*(c[i:i + 1024].tolist() for c in columns))))


@dataclass(frozen=True)
class ParameterProcess:
    """Sampled parameter process eta on a NoisePath grid.

    values has shape (N+1,) for scalar processes or (N+1, d) otherwise.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape[0] != self.times.shape[0]:
            raise ValueError("values must carry one sample per grid time")
        self.times.flags.writeable = False
        self.values.flags.writeable = False

    @property
    def dim(self) -> int:
        return 1 if self.values.ndim == 1 else self.values.shape[1]


def iterated_log(times: np.ndarray, w: np.ndarray, t_min: float = 3.0) -> np.ndarray:
    """eta_t = exp(W_t / sqrt(2 t log log t)) for t > t_min, 1 before, at the
    times (rows,) of the Brownian values w (rows, P) of P paths: (rows, P).

    The normalizer is undefined for t <= e, hence the clamp; by the law of
    the iterated logarithm the exponent is bounded, so eta is a bounded,
    strictly positive process.
    """
    if t_min <= math.e:
        raise ValueError(f"t_min must exceed e ~ 2.718, got {t_min}")
    values = np.ones_like(w)
    late = times > t_min
    t = times[late]
    values[late] = np.exp(w[late] / np.sqrt(2.0 * t * np.log(np.log(t)))[:, None])
    return values


def iterated_log_eta(path: NoisePath, t_min: float = 3.0) -> ParameterProcess:
    """iterated_log on one 1-dimensional path."""
    if path.dims != 1:
        raise ValueError("iterated_log_eta needs a 1-dimensional path")
    values = iterated_log(path.times, path.cumulative(), t_min)[:, 0]
    return ParameterProcess(times=path.times.copy(), values=values)

