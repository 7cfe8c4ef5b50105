"""Seeded, refinable Brownian paths and the parameter processes driving RODEs.

All randomness flows through counter-based Philox streams keyed by
(master seed, domain, index), so distinct purposes (base sampling, bridge
refinement levels, ensemble paths) get independent, reproducible streams.
Increments are the canonical storage; cumulative values are always derived.
write_csv, the one writer of every CSV the package emits, lives here at the
bottom of the import graph so that path_to_csv can use it too.
"""
from __future__ import annotations

import math
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


def stream(seed: int, domain: int, index: int) -> np.random.Generator:
    """Derived generator for (seed, domain, index), counter-based (Philox)."""
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(domain), int(index)))
    return np.random.Generator(np.random.Philox(ss))


def _n_steps(T: float, h: float) -> int:
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


def sample_brownian(seed: int, T: float, h: float, dims: int = 1) -> NoisePath:
    """Sample N = ceil(T/h) i.i.d. N(0, h) increments per dimension.

    Deterministic: identical arguments give bitwise-identical paths.
    """
    if T <= 0 or h <= 0 or h > T:
        raise ValueError(f"need T > 0 and 0 < h <= T, got T={T}, h={h}")
    if dims < 1:
        raise ValueError(f"dims must be >= 1, got {dims}")
    n = _n_steps(T, h)
    rng = stream(seed, DOMAIN_BASE, 0)
    increments = rng.normal(0.0, math.sqrt(h), size=(n, dims))
    times = np.arange(n + 1) * h
    return NoisePath(times=times, increments=increments, seed=int(seed), level=0)


def refine(path: NoisePath) -> NoisePath:
    """Halve the step by Brownian-bridge conditioning.

    Midpoint increments are parent/2 + xi with xi ~ N(0, h/4), so the two
    fine increments of every parent step sum back to the parent increment:
    exactly on most steps, within one ulp on the rest.  Rounded sums cannot
    be exact on every step without clipping the bridge tail (a float pair
    summing exactly to p must live on p's representational grid, which caps
    the midpoint deviation near |p|), and clipping would bias every strong
    convergence study run on refined families, so sub-ulp closure wins.
    """
    h = path.h
    parent = path.increments
    n, l = parent.shape
    rng = stream(path.seed, DOMAIN_REFINE, path.level + 1)
    xi = rng.normal(0.0, math.sqrt(h) / 2.0, size=(n, l))
    first = 0.5 * parent + xi
    second = parent - first
    # where the rounded pair misses the parent by an ulp, re-deriving first
    # from the stored complement restores exact closure on most such steps
    # without touching the bridge statistics
    bad = (first + second) != parent
    if np.any(bad):
        first = np.where(bad, parent - second, first)
    fine = np.empty((2 * n, l))
    fine[0::2] = first
    fine[1::2] = second
    times = np.arange(2 * n + 1) * (h / 2.0)
    return NoisePath(times=times, increments=fine, seed=path.seed, level=path.level + 1)


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


def iterated_log_eta(path: NoisePath, t_min: float = 3.0) -> ParameterProcess:
    """eta_t = exp(B_t / sqrt(2 t log log t)) for t > t_min, 1 before.

    The normalizer is undefined for t <= e, hence the clamp; by the law of
    the iterated logarithm the exponent is bounded, so eta is a bounded,
    strictly positive process.
    """
    if path.dims != 1:
        raise ValueError("iterated_log_eta needs a 1-dimensional path")
    if t_min <= math.e:
        raise ValueError(f"t_min must exceed e ~ 2.718, got {t_min}")
    t = path.times
    w = path.cumulative()[:, 0]
    values = np.ones_like(t)
    late = t > t_min
    denom = np.sqrt(2.0 * t[late] * np.log(np.log(t[late])))
    values[late] = np.exp(w[late] / denom)
    return ParameterProcess(
        times=t.copy(),
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
