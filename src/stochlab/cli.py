"""Reproducible experiment runner.

Configuration is a versioned YAML mapping (see README for the schema);
unknown keys are rejected before any computation.  Every subcommand writes
its outputs through one loop, run_task, and the _KINDS table states each
kind of output once, with the function that turns its result into a
verdict, a printed note and a CSV; an analysis kind's options are that
function's keyword-only parameters, and the row names their check.
`simulate` writes a trajectory (n_paths=1) or ensemble statistics;
`check`, `convergence` and `stability` run the `analyses` entries of their
kinds in order.

Every output file carries the full resolved config and seed in '# ' comment
lines; identical (config, seed) give byte-identical files.  Exit codes:
0 success, 1 failed check, integration abort, estimate that the paths
cannot give (a non-finite strong error) or a run that needs more memory
than the machine grants (one `out of memory:` line), 2 invalid
configuration (nothing written).
"""
from __future__ import annotations

import argparse
import dataclasses
import inspect
import math
import os
import sys
from collections import namedtuple

import numpy as np
import yaml

from . import __version__
from .analyze import (
    EstimateError,
    _attraction_estimator,
    _check_attraction,
    _check_convergence,
    _check_stability,
    _check_symplectic,
    _estimates,
    _stability_estimator,
    check_equilibrium,
    check_invariance,
    check_symplecticity,
    empirical_convergence_order,
    fibonacci_sphere,
    first_integral_drift,
    lyapunov_monotonicity,
    uniform_sphere_sampler,
)
from .integrate import (
    IntegrationError,
    Trajectory,
    _check_ensemble,
    _check_state,
    default_scheme,
    run_ensemble,
)
from .models import build_model, kubo_exact, scalar_linear_exact, wrap_angles
from .noise import ParameterProcess, _grid_steps, sample_brownian, write_csv
from .vecalg import ScalarField, linear_field, norm, norm_squared_field, sphere_field


class ConfigError(Exception):
    """Invalid configuration; reported on stderr with exit code 2."""


_TOP_KEYS = {"version", "seed", "model", "scheme", "T", "h", "n_paths", "x0",
             "functionals", "analyses"}
_MODEL_KEYS = {"name", "params"}


def _check_keys(mapping, allowed, where):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _number(value, where, integer=False):
    """A config value as a finite float, or as an int where integer is set.
    Numeric strings count (YAML 1.1 reads 1e-3 as one); bools, other values
    and, where an int is meant, non-integral numbers raise ConfigError."""
    number = None
    if isinstance(value, int) and not isinstance(value, bool):
        number = value
    elif isinstance(value, (float, str)):
        try:
            number = float(value)
        except ValueError:
            pass
    if (number is None or (isinstance(number, float) and not math.isfinite(number))
            or (integer and number != int(number))):
        raise ConfigError(f"{where} must be {'an integer' if integer else 'a number'}, "
                          f"got {value!r}")
    return int(number) if integer else float(number)


def _numeric(value, where):
    """A model parameter with each numeric string, in a vector or a matrix
    too, read as a number through _number; other values as they are."""
    if isinstance(value, list):
        return [_numeric(v, f"{where}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, str):
        try:
            float(value)
        except ValueError:
            return value
        return _number(value, where)
    return value


def _vector(value, model, where, key):
    """The config state vector under key: a list of model.n numbers, as floats."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: {key} must be a list of {model.n} numbers, got {value!r}")
    _api(where, _check_state, model, value, key)
    return [_number(v, f"{where}: {key}[{i}]") for i, v in enumerate(value)]


def _plain(obj):
    """Config values as plain Python types for a deterministic YAML dump."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    return obj


def load_config(path: str, seed_override, task: str):
    """Parse, validate and resolve the experiment configuration.

    Returns (resolved config dict, built ModelSpec, seed).  Every schema
    violation raises ConfigError before anything is computed or written.
    """
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}")
    _check_keys(raw, _TOP_KEYS, "config")
    if raw.get("version") != 1:
        raise ConfigError(f"config version must be 1, got {raw.get('version')!r}")

    seed = seed_override if seed_override is not None else raw.get("seed")
    if seed is None:
        raise ConfigError("a seed is required (config key 'seed' or --seed)")
    seed = _number(seed, "seed", integer=True)
    if not 0 <= seed < 2**128:
        raise ConfigError(f"seed must be an integer in [0, 2**128), got {seed}")

    model_cfg = raw.get("model")
    if model_cfg is None:
        raise ConfigError("config needs a 'model' section")
    _check_keys(model_cfg, _MODEL_KEYS, "model")
    if "name" not in model_cfg:
        raise ConfigError("model section needs a 'name'")
    params = model_cfg.get("params") or {}
    _check_keys(params, set(params), "model.params")
    params = {key: _numeric(value, f"model.params: {key}") for key, value in params.items()}
    try:
        model = build_model(str(model_cfg["name"]), **params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"model: {exc}")

    scheme = raw.get("scheme")
    if scheme is None:
        scheme = default_scheme(model)
    T = _number(raw.get("T", 10.0), "T")
    h = _number(raw.get("h", 1e-4), "h")
    n_paths = _number(raw.get("n_paths", 1), "n_paths", integer=True)
    _api("config", _check_ensemble, model, scheme, n_paths, T, h)

    x0 = raw.get("x0")
    if x0 is not None and not (x0 == "sphere" or isinstance(x0, (list, tuple))):
        raise ConfigError("x0 must be a state vector or the string 'sphere'")
    if isinstance(x0, (list, tuple)):
        x0 = _vector(x0, model, "config", "x0")
    if x0 == "sphere" and model.n != 3:
        raise ConfigError("x0 'sphere' needs a 3-dimensional model")

    functionals = raw.get("functionals", ["norm2"])
    if not isinstance(functionals, list) or not functionals:
        raise ConfigError("functionals must be a nonempty list of names")
    for name in functionals:
        _functional(name, model)  # raises ConfigError on unknown names

    analyses = raw.get("analyses", [])
    if not isinstance(analyses, list):
        raise ConfigError("analyses must be a list")
    resolved_analyses = []
    for i, entry in enumerate(analyses):
        where = f"analyses[{i}]"
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ConfigError(f"{where}: each analysis needs a 'kind'")
        kind = str(entry["kind"])
        if kind not in _ANALYSIS_KINDS:
            raise ConfigError(f"{where}: unknown kind {kind!r}; known: {_ANALYSIS_KINDS}")
        resolved_analyses.append({"kind": kind, **_options(kind, entry, model, scheme, where)})
    kinds = [_KINDS[a["kind"]] for a in resolved_analyses]
    if task != "simulate" and all(k.task != task for k in kinds):
        raise ConfigError(f"{task}: the analyses list has no entry that {task} runs")
    if x0 is None and (task == "simulate" or any(k.x0 for k in kinds)):
        raise ConfigError(f"task {task!r} needs an x0")
    vector = sorted(a["kind"] for a, k in zip(resolved_analyses, kinds) if k.x0 == "vector")
    if vector and not isinstance(x0, list):
        raise ConfigError(f"{vector[0]} analysis needs an explicit x0 vector")

    cfg = {
        "version": 1,
        "seed": seed,
        "model": {"name": model_cfg["name"], "params": _plain(model.params)},
        "scheme": scheme,
        "T": T,
        "h": h,
        "n_paths": n_paths,
        "x0": _plain(x0),
        "functionals": [str(n) for n in functionals],
        "analyses": _plain(resolved_analyses),
    }
    return cfg, model, seed


def _options(kind, entry, model, scheme, where):
    """An analyses entry's options: the keyword-only parameters of its kind's
    outcome, a parameter without a default required.  Each is read by its
    annotation, or else by its default's type: int and float through
    _number, list as a state vector, anything else as given.  The kind's
    check then takes, by parameter name, options and model, the entry's
    scheme, the model's closed form and where (API rules via _api)."""
    params = {name: p for name, p in inspect.signature(_KINDS[kind].outcome).parameters.items()
              if p.kind == p.KEYWORD_ONLY}
    _check_keys(entry, {"kind", *params}, where)
    missing = sorted(name for name, p in params.items()
                     if p.default is p.empty and name not in entry)
    if missing:
        raise ConfigError(f"{where} ({kind}): missing options {missing}")
    opts = {}
    for name, p in params.items():
        value = entry.get(name, p.default)
        how = p.annotation if p.annotation is not p.empty else type(p.default).__name__
        if how in ("int", "float"):
            value = _number(value, f"{where}: {name}", how == "int")
        elif how == "list":
            value = _vector(value, model, where, name)
        opts[name] = value
    check = _KINDS[kind].check
    if check is not None:
        given = {**opts, "model": model, "closed_form": _closed_form(model), "where": where,
                 "scheme": scheme if opts.get("scheme") is None else opts["scheme"]}
        _api(where, check, **{name: given[name] for name in inspect.signature(check).parameters})
    return opts


def _output(out, entries, i):
    """Path of entries[i]'s CSV: {kind}.csv, or {kind}_{i+1}.csv where the
    kind repeats among entries, so no entry overwrites another's file."""
    kind = entries[i]["kind"]
    suffix = "" if sum(e["kind"] == kind for e in entries) == 1 else f"_{i + 1}"
    return os.path.join(out, f"{kind}{suffix}.csv")


def _api(where, check, /, *args, **kwargs):
    """check(*args, **kwargs), raising its ValueError as a ConfigError located at where."""
    try:
        check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}")


def _functional(functional, model) -> ScalarField:
    """Named state functionals for CSV columns and check analyses."""
    name = str(functional)
    if name in ("norm2", "energy"):
        return dataclasses.replace(norm_squared_field(), name=name)
    if name == "sphere":
        return dataclasses.replace(sphere_field(), name=name)
    if name == "norm":
        return ScalarField(norm, name="norm")
    if name in ("align", "neg_align"):
        b = model.params.get("b")
        if b is None or model.n != 3:
            raise ConfigError(f"functional {name!r} needs a 3-dimensional model with a "
                        "field parameter b")
        bhat = np.asarray(b, dtype=float)
        bhat = bhat / np.linalg.norm(bhat)
        return linear_field((1.0 if name == "align" else -1.0) * bhat, name=name)
    raise ConfigError(f"unknown functional {name!r}; known: align, energy, neg_align, "
                "norm, norm2, sphere")


def _closed_form(model):
    if model.name == "scalar_linear":
        a, b = model.params["a"], model.params["b_scalar"]
        return lambda x0, t, w: scalar_linear_exact(a, b, x0[0], t, w)
    if model.name == "kubo":
        a, s = model.params["a"], model.params["sigma"]
        return lambda x0, t, w: kubo_exact(a, s, x0, t, w[:, 0])
    return None


def _comment(label: str, cfg: dict, *lines: str) -> str:
    """Header comment lines: the tool version and label, the seed, the
    resolved config and then lines."""
    dump = yaml.safe_dump(cfg, default_flow_style=True, sort_keys=True, width=10**9)
    return "\n".join([f"stochlab {__version__} {label}", f"seed={cfg['seed']}",
                      f"config: {dump.strip()}", *lines])


def _initial(cfg, model):
    if cfg["x0"] == "sphere":
        return uniform_sphere_sampler
    return np.asarray(cfg["x0"], dtype=float)


def _single_trajectory(cfg, model) -> Trajectory:
    stats, states = run_ensemble(
        model, _initial(cfg, model), cfg["scheme"], 1, cfg["seed"],
        functionals=(), T=cfg["T"], h=cfg["h"], return_states=True,
    )
    return Trajectory(times=stats.times, states=states[0])


# one output's result as run_task reports it: its verdict (a simulation or an
# estimate always passes), the note it prints, its CSV header and columns, and
# the comment lines after the config
_Outcome = namedtuple("_Outcome", "passed note header columns comment", defaults=((),))


def _trajectory(_, cfg, model):
    """simulate's one path: its states, angles wrapped, and their functionals."""
    traj = _single_trajectory(cfg, model)
    states = wrap_angles(model, traj.states)
    fields = [_functional(name, model) for name in cfg["functionals"]]
    header = ["t", *(f"x{i + 1}" for i in range(model.n)), *(f.name for f in fields)]
    return _Outcome(True, f"{len(traj.times)} rows", ",".join(header),
                    [traj.times, *states.T, *(np.asarray(f.value(states)) for f in fields)])


def _ensemble(_, cfg, model):
    """simulate's paths: per time, each functional's mean and variance over them."""
    stats = run_ensemble(model, _initial(cfg, model), cfg["scheme"], cfg["n_paths"], cfg["seed"],
                         functionals=[_functional(name, model) for name in cfg["functionals"]],
                         T=cfg["T"], h=cfg["h"])
    names = [f"{name}_{moment}" for name in stats.functional_names for moment in ("mean", "var")]
    return _Outcome(True, f"{stats.n_paths} paths, {len(stats.times)} rows",
                    ",".join(["t", *names]),
                    [stats.times, *(c for pair in zip(stats.mean, stats.variance) for c in pair)])


def _report(report, note, *comment):
    """An invariance or equilibrium report as its residual table."""
    return _Outcome(report.verdict, note, "criterion,value,passed", list(zip(*report.rows())),
                    comment)


def _check_sphere(model, manifold, samples, eta_T, eta_h, where):
    """The rules of an invariance entry that check_invariance cannot state:
    the one manifold, the model it needs, and the grid of a RODE's eta."""
    if manifold != "sphere":
        raise ValueError(f"unknown manifold {manifold!r}")
    if model.n != 3:
        raise ValueError("sphere invariance needs a 3-dimensional model")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _api(f"{where} (eta_T, eta_h)", _grid_steps, eta_T, eta_h)


def _invariance(_, cfg, model, *, tol: float, samples=200, manifold="sphere", eta_T=10.0,
                eta_h=1e-3):
    eta = None
    if model.interpretation == "rode":
        path = sample_brownian(cfg["seed"], eta_T, eta_h)
        eta = ParameterProcess(path.times, model.eta_builder(path.times, path.cumulative())[:, 0])
    report = check_invariance(model, sphere_field(), fibonacci_sphere(samples), tol=tol,
                              eta_samples=eta)
    return _report(report, f"max residual {max(c.max_residual for c in report.conditions):.3g}")


def _equilibrium(_, cfg, model, *, point: list, tol: float):
    report = check_equilibrium(model, point, tol=tol)
    bad = [t.name for t in report.drift_terms + report.diffusion_columns if not t.vanishes]
    return _report(report, "all terms vanish" if report.verdict else f"nonzero: {', '.join(bad)}",
                   f"point={','.join(f'{v:.17g}' for v in point)}")


def _lyapunov(_, cfg, model, *, functional: str, step_tol=1e-6):
    stats = lyapunov_monotonicity(_single_trajectory(cfg, model), _functional(functional, model),
                                  step_tol=step_tol)
    return _Outcome(stats.n_violations == 0,
                    f"{stats.n_violations} violations, max increase {stats.max_increase:.3g}",
                    "n_violations,max_increase,n_steps",
                    [[stats.n_violations], [stats.max_increase], [stats.n_steps]])


def _first_integral(_, cfg, model, *, functional: str, tol: float):
    drift = first_integral_drift(_single_trajectory(cfg, model), _functional(functional, model))
    return _Outcome(drift.max_drift <= tol, f"max drift {drift.max_drift:.3g}",
                    "max_drift,terminal_drift", [[drift.max_drift], [drift.terminal_drift]])


def _symplecticity(_, cfg, model, *, tol: float):
    path = None
    if model.noise_dim:
        path = sample_brownian(cfg["seed"], cfg["T"], cfg["h"], dims=model.noise_dim)
    defect = check_symplecticity(model, cfg["scheme"], np.asarray(cfg["x0"], dtype=float),
                                 h=cfg["h"], T=cfg["T"], path=path)
    return _Outcome(defect <= tol, f"defect {defect:.3g}", "defect", [[defect]])


# a convergence entry's defaults are the refinement study's own
_STUDY = inspect.signature(empirical_convergence_order).parameters


def _convergence(_, cfg, model, *, oracle: str, levels: int, n_paths: int, scheme=None,
                 T=_STUDY["T"].default, h0=_STUDY["h0"].default,
                 oracle_gap=_STUDY["oracle_gap"].default):
    est = empirical_convergence_order(
        model, np.asarray(cfg["x0"], dtype=float), cfg["scheme"] if scheme is None else scheme,
        oracle=str(oracle), levels=levels, n_paths=n_paths, seed=cfg["seed"], T=T, h0=h0,
        closed_form=_closed_form(model), oracle_gap=oracle_gap,
    )
    return _Outcome(True, f"slope {est.slope:.4f} +/- {est.half_width:.4f}", "step_size,error",
                    [est.step_sizes, est.errors],
                    (f"slope={est.slope:.17g} half_width={est.half_width:.17g}",))


def _stability(est, cfg, model, *, x0_radius: float, delta: float):
    return _Outcome(True, f"exceedance {est.probability:.4f} +/- {est.half_width:.4f}",
                    "probability,half_width,n_paths,n_exceed",
                    [[est.probability], [est.half_width], [est.n_paths], [est.n_exceed]])


def _attraction(est, cfg, model, *, target: list, eps: float):
    return _Outcome(True, f"fraction {est.fraction:.4f} +/- {est.half_width:.4f}",
                    "fraction,half_width,n_paths,n_attracted",
                    [[est.fraction], [est.half_width], [est.n_paths], [est.n_attracted]])


# output kind -> (subcommand, the x0 it needs: None, "any" (a vector or
# 'sphere') or "vector", the function that maps (a stability kind's
# estimate or None, cfg, model, and the entry's options as keywords) to an
# _Outcome, and the check of those options).  n_paths picks simulate's kind;
# every other kind is an analysis, run where a config's analyses entry names it.
_Kind = namedtuple("_Kind", "task x0 outcome check")

_KINDS = {
    "trajectory": _Kind("simulate", "any", _trajectory, None),
    "ensemble": _Kind("simulate", "any", _ensemble, None),
    "invariance": _Kind("check", None, _invariance, _check_sphere),
    "equilibrium": _Kind("check", None, _equilibrium, None),
    "lyapunov": _Kind("check", "any", _lyapunov, _functional),
    "first-integral": _Kind("check", "any", _first_integral, _functional),
    "symplecticity": _Kind("check", "vector", _symplecticity, _check_symplectic),
    "convergence": _Kind("convergence", "vector", _convergence, _check_convergence),
    "stability": _Kind("stability", None, _stability, _check_stability),
    "attraction": _Kind("stability", "any", _attraction, _check_attraction),
}
_ANALYSIS_KINDS = sorted(kind for kind, row in _KINDS.items() if row.task != "simulate")

# subcommand -> the label on the first comment line of each output it
# writes, and the line it prints for that output
_TASKS = {"simulate": ("simulate", "simulate: wrote {dest} ({note})"),
          "check": ("check {kind}", "check {kind}: {verdict} ({note}) -> {dest}"),
          "convergence": ("convergence", "{kind}: {note} -> {dest}"),
          "stability": ("stability {kind}", "{kind}: {note} -> {dest}")}


def run_task(task, cfg, model, out) -> int:
    """Write task's outputs in order, one CSV and one printed line each; 1 if
    a check failed, else 0.  simulate writes its one kind, and the other
    tasks one output per analyses entry of their kinds.  Stability entries
    whose starts are bitwise equal share one ensemble pass
    (analyze._estimates), run when the first of them is reached."""
    entries = [a for a in cfg["analyses"] if _KINDS[a["kind"]].task == task]
    if task == "simulate":
        entries = [{"kind": "trajectory" if cfg["n_paths"] == 1 else "ensemble"}]
    inputs = [None] * len(entries)
    if task == "stability":
        ensemble = (model, cfg["scheme"], cfg["n_paths"], cfg["T"], cfg["h"])
        inputs = _estimates([
            _stability_estimator(*ensemble, e["x0_radius"], e["delta"])
            if e["kind"] == "stability" else
            _attraction_estimator(*ensemble, _initial(cfg, model), e["target"], e["eps"])
            for e in entries
        ], *ensemble, cfg["seed"])
    label, line = _TASKS[task]
    all_pass = True
    for i, (entry, given) in enumerate(zip(entries, inputs)):
        kind = entry["kind"]
        result = _KINDS[kind].outcome(given, cfg, model,
                                      **{k: v for k, v in entry.items() if k != "kind"})
        dest = _output(out, entries, i)
        write_csv(dest, result.header, result.columns,
                  comment=_comment(label.format(kind=kind), cfg, *result.comment))
        all_pass &= result.passed
        print(line.format(kind=kind, note=result.note, dest=dest,
                          verdict="pass" if result.passed else "FAIL"))
    return 0 if all_pass else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stochlab",
        description="Stochastisation laboratory: simulate catalog models and "
                    "run persistence analyses from a YAML config.",
    )
    parser.add_argument("task", choices=sorted(_TASKS))
    parser.add_argument("--config", required=True, help="YAML experiment config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; must be >= 1. Runs are "
                             "single-threaded and no output depends on it")
    args = parser.parse_args(argv)

    try:
        cfg, model, _ = load_config(args.config, args.seed, args.task)
        if args.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {args.threads}")
        os.makedirs(args.out, exist_ok=True)
        # Overflow to inf is the expected signature of a diverging path; the
        # finite-state check turns it into a diagnosable abort.
        with np.errstate(over="ignore", invalid="ignore"):
            return run_task(args.task, cfg, model, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"integration aborted: {exc}", file=sys.stderr)
        return 1
    except EstimateError as exc:
        print(f"estimate failed: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
