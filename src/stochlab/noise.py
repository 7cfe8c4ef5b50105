"""Seeded, refinable Brownian paths and the parameter processes driving RODEs.

All randomness flows through counter-based Philox streams keyed by
(master seed, domain, index), so distinct purposes (base sampling, bridge
refinement levels, ensemble paths) get independent, reproducible streams.
philox_keys derives the keys of many streams in one vectorized pass, each
equal to the key numpy's SeedSequence(entropy=seed, spawn_key=(domain,
index)) would give; _keyed builds a stream on its key without reading OS
entropy.  Streams drawn from once (base draws, refinement levels, ensemble
samplers) share one re-keyed Philox, and each path's draw lands
contiguously in a stacked buffer: the base increments and the bridge
refinements of P coupled paths are drawn as (N, P, l) stacks, and
sample_brownian and refine are their one-path calls, so a path is drawn
and refined alike alone or in a stack, bit for bit.
Increments are the canonical storage; cumulative values are always derived.
write_csv, the one writer of every CSV the package emits, lives here at the
bottom of the import graph so that path_to_csv can use it too.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Stream domains. Distinct first entries of the spawn key keep base paths,
# refinement levels, ensemble members and samplers statistically independent.
DOMAIN_BASE = 0
DOMAIN_REFINE = 1
DOMAIN_ENSEMBLE = 2
DOMAIN_SAMPLER = 3

PROVENANCES = ("constant", "brownian-functional", "sde-driven")
_KeySeed = None  # the seed sequence class of _keyed, made at its first call


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


def _keyed(key) -> np.random.Generator:
    """Generator(Philox(key=key)) for a 2-word uint64 key, bit for bit, on a
    seed sequence whose state is the key: Philox(key=) reads OS entropy too."""
    global _KeySeed
    if _KeySeed is None:  # numpy loads numpy.random lazily; importing it costs setup
        from numpy.random.bit_generator import ISeedSequence
        class _KeySeed(ISeedSequence):
            def __init__(self, key):
                self.key = key

            def generate_state(self, n_words, dtype=None):
                return self.key  # Philox asks for its 2-word uint64 key
    return np.random.Generator(np.random.Philox(_KeySeed(key)))


def stream(seed: int, domain: int, index: int) -> np.random.Generator:
    """Derived generator for (seed, domain, index), counter-based (Philox)."""
    return _keyed(philox_keys(seed, domain, index))


def _fresh_streams(keys):
    """Yield, for each Philox key, a generator as fresh as _keyed(key), valid
    until the next one is yielded.  One Philox is re-keyed throughout, a
    third of the cost of building one; it suits streams drawn from once."""
    gen = _keyed(np.zeros(2, np.uint64))
    bits, state = gen.bit_generator, gen.bit_generator.state
    for key in keys:
        state["state"]["key"] = key
        bits.state = state
        yield gen


def _normal_rows(gens, out, sd):
    """Fill out[p] with gens[p].normal(0.0, sd, out[p].shape), bit for bit, and
    return out.  Each C-contiguous row takes a standard normal draw in place
    and the stack is scaled once: normal returns 0.0 + sd * z, and adding
    0.0 changes no value but -0.0."""
    for gen, row in zip(gens, out):
        gen.standard_normal(out=row)
    out *= sd
    out += 0.0
    return out


def _grid_steps(T: float, h: float) -> int:
    """Step count N = ceil(T/h) of the grid of step h on [0, T]; raises
    ValueError unless T > 0, 0 < h <= T and T/h is finite."""
    if not (T > 0 and 0 < h <= T and math.isfinite(T / h)):
        raise ValueError(f"need T > 0, 0 < h <= T and a finite T/h, got T={T}, h={h}")
    # ceil with a guard against T/h landing just above an integer in floats
    return int(math.ceil(T / h - 1e-9))


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


def _brownian_stack(seeds, T: float, h: float, dims: int) -> np.ndarray:
    """Base increments (N, P, dims) of the paths sampled from seeds: path p,
    increments[:, p], is drawn from its own (seeds[p], DOMAIN_BASE, 0) stream
    as normal(0, sqrt h) of shape (N, dims), N = ceil(T/h)."""
    n_steps = _grid_steps(T, h)
    if dims < 1:
        raise ValueError(f"dims must be >= 1, got {dims}")
    keys = philox_keys(seeds, DOMAIN_BASE, 0)
    draws = np.empty((len(keys), n_steps, dims))
    return _normal_rows(_fresh_streams(keys), draws, math.sqrt(h)).transpose(1, 0, 2)


def sample_brownian(seed: int, T: float, h: float, dims: int = 1) -> NoisePath:
    """Sample N = ceil(T/h) i.i.d. N(0, h) increments per dimension.

    Deterministic: identical arguments give bitwise-identical paths, equal to
    the same seed's path in a stack of coupled paths.
    """
    increments = _brownian_stack([seed], T, h, dims)[:, 0]
    times = np.arange(len(increments) + 1) * h
    return NoisePath(times=times, increments=increments, seed=int(seed), level=0)


def refine(path: NoisePath) -> NoisePath:
    """Halve the step by Brownian-bridge conditioning.

    The path draws its midpoint noise from its own (seed, DOMAIN_REFINE,
    level + 1) stream, so it refines alike alone or in a stack of coupled
    paths (_refine_stack), bit for bit.

    Midpoint increments are parent/2 + xi with xi ~ N(0, h/4), so the two
    fine increments of every parent step sum back to the parent increment:
    exactly on most steps, within one ulp on the rest.  Rounded sums cannot
    be exact on every step without clipping the bridge tail (a float pair
    summing exactly to p must live on p's representational grid, which caps
    the midpoint deviation near |p|), and clipping would bias every strong
    convergence study run on refined families, so sub-ulp closure wins.
    """
    fine = _refine_stack(path.increments[:, None], path.h, [path.seed], path.level)[:, 0]
    times = np.arange(len(fine) + 1) * (path.h / 2.0)
    return NoisePath(times=times, increments=fine, seed=path.seed, level=path.level + 1)


def _refine_stack(parent: np.ndarray, h: float, seeds, level: int) -> np.ndarray:
    """refine on the (N, P, l) increments of P paths at refinement level
    `level` on a grid of step h, path p sampled from seeds[p]: returns the
    (2N, P, l) stack one level finer.  Each path draws its midpoint noise
    contiguously; the bridge arithmetic runs once over the stack."""
    n, p, l = parent.shape
    keys = philox_keys(seeds, DOMAIN_REFINE, level + 1)
    xi = _normal_rows(_fresh_streams(keys), np.empty((p, n, l)), math.sqrt(h) / 2.0)
    first = 0.5 * parent + xi.transpose(1, 0, 2)
    del xi
    second = parent - first
    # where the rounded pair misses the parent by an ulp, re-deriving first
    # from the stored complement restores exact closure on most such steps
    # without touching the bridge statistics
    bad = (first + second) != parent
    if np.any(bad):
        first = np.where(bad, parent - second, first)
    fine = np.empty((2 * n, p, l))
    fine[0::2] = first
    fine[1::2] = second
    return fine


def coarse_sum(path: NoisePath) -> np.ndarray:
    """Pairwise sums of increments: the parent increments of a refined path."""
    if path.n_steps % 2 != 0:
        raise ValueError("coarse_sum needs an even number of steps")
    return path.increments[0::2] + path.increments[1::2]


def write_csv(file, header: str, columns, comment: str | None = None):
    """Comma-separated columns under a mandatory header row, after one '# '
    line per comment line.  str cells are written verbatim, every other cell
    at 17 significant digits."""
    rows = zip(*(np.asarray(c).tolist() for c in columns), strict=True)
    with open(file, "w", newline="") as fh:
        if comment:
            for line in comment.rstrip("\n").split("\n"):
                fh.write(f"# {line}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) + "\n")


def path_to_csv(path: NoisePath, file: str) -> None:
    """Write t (left endpoints) and dW columns at 17 significant digits."""
    write_csv(file, "t," + ",".join(f"dW_{k + 1}" for k in range(path.dims)),
              [path.times[:-1]] + list(path.increments.T),
              comment=f"seed={path.seed} level={path.level} h={path.h:.17g} "
                      f"n_steps={path.n_steps}")


def path_from_csv(file: str) -> NoisePath:
    """Read a path written by path_to_csv; increments round-trip exactly."""
    seed, level, h = 0, 0, None
    rows = []
    with open(file) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line.lstrip("# ").split():
                    key, _, val = tok.partition("=")
                    if key == "seed":
                        seed = int(val)
                    elif key == "level":
                        level = int(val)
                    elif key == "h":
                        h = float(val)
                continue
            if line.startswith("t,"):
                continue
            rows.append([float(v) for v in line.split(",")])
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[1] < 2:
        raise ValueError(f"{file}: expected columns t, dW_1..dW_l")
    if h is None:
        h = float(data[1, 0] - data[0, 0]) if data.shape[0] > 1 else float(data[0, 0])
    n = data.shape[0]
    times = np.arange(n + 1) * h
    return NoisePath(times=times, increments=data[:, 1:].copy(), seed=seed, level=level)


@dataclass(frozen=True)
class ParameterProcess:
    """Sampled parameter process eta on a NoisePath grid.

    values has shape (N+1,) for scalar processes or (N+1, d) otherwise.
    Bounded variants carry an explicit bound respected by every sample.
    """

    times: np.ndarray
    values: np.ndarray
    provenance: str = "constant"
    bound: Optional[float] = None

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.values.shape[0] != self.times.shape[0]:
            raise ValueError("values must carry one sample per grid time")
        if self.bound is not None and np.any(np.abs(self.values) > self.bound):
            raise ValueError("samples exceed the declared bound")
        self.times.flags.writeable = False
        self.values.flags.writeable = False

    @property
    def dim(self) -> int:
        return 1 if self.values.ndim == 1 else self.values.shape[1]


def constant_eta(times: np.ndarray, value) -> ParameterProcess:
    value = np.asarray(value, dtype=float)
    if value.ndim == 0:
        vals = np.full(len(times), float(value))
    else:
        vals = np.tile(value, (len(times), 1))
    return ParameterProcess(
        times=np.asarray(times, dtype=float),
        values=vals,
        provenance="constant",
        bound=float(np.max(np.abs(value))),
    )


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
    """iterated_log on one 1-dimensional path, with its maximum as the bound."""
    if path.dims != 1:
        raise ValueError("iterated_log_eta needs a 1-dimensional path")
    values = iterated_log(path.times, path.cumulative(), t_min)[:, 0]
    return ParameterProcess(
        times=path.times.copy(),
        values=values,
        provenance="brownian-functional",
        bound=float(np.max(np.abs(values))),
    )


def parameter_sde(
    g: Callable,
    sigma: Callable,
    eta0,
    path: NoisePath,
) -> ParameterProcess:
    """Euler-Maruyama sample of d eta = g(t,eta) dt + sigma(t,eta) dW on the grid."""
    eta0 = np.atleast_1d(np.asarray(eta0, dtype=float))
    scalar = np.asarray(eta0).size == 1 and np.ndim(eta0) <= 1
    d = eta0.shape[0]
    sig0 = np.atleast_2d(np.asarray(sigma(float(path.times[0]), eta0), dtype=float))
    if sig0.shape != (d, path.dims):
        raise ValueError(
            f"sigma must map R^{d} to a {d}x{path.dims} matrix, got shape {sig0.shape}"
        )
    h = path.h
    values = np.empty((path.n_steps + 1, d))
    values[0] = eta0
    eta = eta0.copy()
    for k in range(path.n_steps):
        t = float(path.times[k])
        drift = np.atleast_1d(np.asarray(g(t, eta), dtype=float))
        diff = np.atleast_2d(np.asarray(sigma(t, eta), dtype=float))
        eta = eta + drift * h + diff @ path.increments[k]
        values[k + 1] = eta
    if scalar and d == 1:
        values = values[:, 0]
    return ParameterProcess(
        times=path.times.copy(),
        values=values,
        provenance="sde-driven",
        bound=None,
    )
