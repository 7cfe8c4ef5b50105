"""End-to-end command line tests: exit codes, CSV artifacts, reproducibility."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import stochlab
from stochlab import analyze, cli
from stochlab.analyze import empirical_convergence_order, stability_probability
from stochlab.cli import main
from stochlab.integrate import IntegrationError, run_ensemble
from stochlab.models import build_model
from stochlab.vecalg import norm_squared_field


def write_cfg(tmp_path, cfg, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(cfg if isinstance(cfg, str) else yaml.safe_dump(cfg))
    return str(p)


def base_cfg(**over):
    cfg = {
        "version": 1,
        "seed": 5,
        "model": {"name": "ell",
                  "params": {"interpretation": "stratonovich",
                             "eps": 0.1, "alpha": 1.0}},
        "T": 1.0,
        "h": 1e-3,
        "x0": [0.6, 0.0, 0.8],
    }
    cfg.update(over)
    return cfg


def read_rows(path):
    """Split a CSV with string cells into (comment lines, header, rows)."""
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return comments, body[0].split(","), [ln.split(",") for ln in body[1:]]


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy loads numpy.random lazily; importing it would add to every CLI run's setup
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, stochlab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_simulate_trajectory_stays_on_sphere(tmp_path, load_csv):
    cfg = write_cfg(tmp_path, base_cfg(functionals=["norm2", "sphere"]))
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    comments, names, data = load_csv(str(out / "trajectory.csv"))
    assert names == ["t", "x1", "x2", "x3", "norm2", "sphere"]
    assert data.shape == (1001, 6)
    assert abs(data[-1, 4] - 1.0) <= 1e-3
    header = "\n".join(comments)
    assert "seed=5" in header
    assert "config:" in header
    assert "ell" in header and "stratonovich" in header


def test_simulate_is_rerun_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, base_cfg())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


def test_ensemble_output_independent_of_threads(tmp_path, load_csv):
    cfg = write_cfg(tmp_path, base_cfg(x0="sphere", n_paths=8, T=0.5))
    a, b = tmp_path / "t1", tmp_path / "t3"
    assert main(["simulate", "--config", cfg, "--out", str(a), "--threads", "1"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b), "--threads", "3"]) == 0
    assert (a / "ensemble.csv").read_bytes() == (b / "ensemble.csv").read_bytes()
    _, names, data = load_csv(str(a / "ensemble.csv"))
    assert names == ["t", "norm2_mean", "norm2_var"]
    assert np.allclose(data[:, 1], 1.0, atol=1e-3)


def test_simulate_trajectory_csv_holds_wrapped_states_and_their_functionals(tmp_path, load_csv):
    cfg = write_cfg(tmp_path, base_cfg(
        seed=15, T=8.0, h=1e-2, x0=[1.0, 2.0, 0.0, 0.5], functionals=["norm2"],
        model={"name": "isochronous", "params": {"omega": [1.0, 2.5], "eps": 0.3}}))
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    comments, names, data = load_csv(str(out / "trajectory.csv"))
    assert names == ["t", "x1", "x2", "x3", "x4", "norm2"]
    assert comments[0] == f"# stochlab {stochlab.__version__} simulate"
    assert np.array_equal(data[:, 0], np.arange(801) * 1e-2)
    angles = data[:, 3:5]
    assert ((0.0 <= angles) & (angles < 2 * np.pi)).all()
    assert (np.diff(angles, axis=0) < -np.pi).any(axis=0).all()  # each angle wrapped
    assert np.allclose(data[:, 5], np.sum(data[:, 1:5] ** 2, axis=1), rtol=1e-15, atol=0.0)


def test_simulate_ensemble_csv_holds_the_api_statistics(tmp_path, load_csv):
    cfg = write_cfg(tmp_path, base_cfg(
        seed=11, T=0.2, h=0.05, x0=[1.0], n_paths=8, scheme="euler_maruyama",
        model={"name": "scalar_linear", "params": {"a": -1.0, "b_scalar": 0.5}}))
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    comments, names, data = load_csv(str(out / "ensemble.csv"))
    assert names == ["t", "norm2_mean", "norm2_var"]
    assert comments[0] == f"# stochlab {stochlab.__version__} simulate"
    stats = run_ensemble(build_model("scalar_linear", a=-1.0, b_scalar=0.5), [1.0],
                         "euler_maruyama", 8, 11, [norm_squared_field()], T=0.2, h=0.05)
    assert np.array_equal(data, np.stack([stats.times, stats.mean[0], stats.variance[0]], 1))


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path, base_cfg(x0="sphere"))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b), "--seed", "6"]) == 0
    assert (a / "trajectory.csv").read_bytes() != (b / "trajectory.csv").read_bytes()
    comments, _, _ = read_rows(b / "trajectory.csv")
    assert any(c == "# seed=6" for c in comments)


def test_seed_range_ends_below_2_to_the_128(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_cfg(x0="sphere", T=0.01))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "top"),
                 "--seed", str(2**128 - 1)]) == 0
    out = tmp_path / "over"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--seed", str(2**128)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_check_invariance_stratonovich_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_cfg(
        analyses=[{"kind": "invariance", "tol": 1e-9, "samples": 100}]))
    out = tmp_path / "run"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    assert "check invariance: pass" in capsys.readouterr().out
    comments, header, rows = read_rows(out / "invariance.csv")
    assert header == ["criterion", "value", "passed"]
    assert all(r[2] == "1" for r in rows)


def test_check_invariance_ito_fails_with_trace(tmp_path, capsys):
    cfg = base_cfg(analyses=[{"kind": "invariance", "tol": 1e-9, "samples": 100}])
    cfg["model"]["params"]["interpretation"] = "ito"
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "run"
    assert main(["check", "--config", path, "--out", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out
    _, _, rows = read_rows(out / "invariance.csv")
    trace = {r[0]: r for r in rows}["second_order_trace"]
    # tr(sigma sigma^T) = 2 eps^2 (1 + alpha^2) = 0.04 on the unit sphere
    assert float(trace[1]) == pytest.approx(0.04, rel=1e-9)
    assert trace[2] == "0"


def test_check_lyapunov_and_equilibrium_on_damped_precession(tmp_path):
    cfg = write_cfg(tmp_path, base_cfg(
        model={"name": "ll", "params": {"alpha": 1.0}},
        T=5.0, h=1e-2,
        analyses=[
            {"kind": "lyapunov", "functional": "neg_align"},
            {"kind": "equilibrium", "point": [0.0, 0.0, 1.0], "tol": 1e-12},
        ]))
    out = tmp_path / "run"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "lyapunov.csv").exists()
    assert (out / "equilibrium.csv").exists()
    _, header, rows = read_rows(out / "lyapunov.csv")
    assert header == ["n_violations", "max_increase", "n_steps"]
    assert rows[0][0] == "0"


def test_repeated_kinds_write_one_file_each(tmp_path):
    points = ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    cfg = write_cfg(tmp_path, base_cfg(
        model={"name": "ll", "params": {"alpha": 1.0}},
        analyses=[{"kind": "first-integral", "functional": "norm2", "tol": 1e-3}]
        + [{"kind": "equilibrium", "point": p, "tol": 1e-12} for p in points]))
    out = tmp_path / "run"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 1
    assert sorted(f.name for f in out.iterdir()) == [
        "equilibrium_2.csv", "equilibrium_3.csv", "first-integral.csv"]
    verdicts = [read_rows(out / f"equilibrium_{i}.csv")[2][-1][-1] for i in (2, 3)]
    assert verdicts == ["1", "0"]


def test_equilibrium_files_name_their_point(tmp_path):
    """Both poles of ll pass with every term zero, so only the point's
    comment line tells their files apart."""
    points = ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.1, 0.0, 0.0])
    cfg = write_cfg(tmp_path, base_cfg(
        model={"name": "ll", "params": {"alpha": 1.0}},
        analyses=[{"kind": "equilibrium", "point": p, "tol": 1e-12} for p in points]))
    out = tmp_path / "run"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 1
    files = [read_rows(out / f"equilibrium_{i}.csv") for i in (1, 2, 3)]
    assert [comments[-1] for comments, _, _ in files] == [
        "# point=0,0,1", "# point=0,0,-1", "# point=0.10000000000000001,0,0"]
    assert all(comments[:-1] == files[0][0][:-1] for comments, _, _ in files)
    assert files[0][1:] == files[1][1:]
    assert (out / "equilibrium_1.csv").read_bytes() != (out / "equilibrium_2.csv").read_bytes()


def test_check_rode_invariance(tmp_path):
    cfg = write_cfg(tmp_path, {
        "version": 1, "seed": 3,
        "model": {"name": "rode_ll"},
        "T": 1.0, "h": 1e-2,
        "analyses": [{"kind": "invariance", "tol": 1e-9, "samples": 50}],
    })
    out = tmp_path / "run"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0


def test_check_kubo_symplecticity_and_first_integral(tmp_path, load_csv):
    cfg = write_cfg(tmp_path, {
        "version": 1, "seed": 11,
        "model": {"name": "kubo", "params": {"a": 1.0, "sigma": 0.5}},
        "scheme": "heun", "T": 1.0, "h": 1e-3, "x0": [1.0, 0.0],
        "analyses": [
            {"kind": "symplecticity", "tol": 1e-2},
            {"kind": "first-integral", "functional": "norm2", "tol": 1e-3},
        ],
    })
    out = tmp_path / "run"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    _, names, data = load_csv(str(out / "symplecticity.csv"))
    assert names == ["defect"]
    assert 0.0 < data[0, 0] < 1e-2
    _, names, data = load_csv(str(out / "first-integral.csv"))
    assert names == ["max_drift", "terminal_drift"]
    assert data[0, 0] < 1e-3


def test_convergence_scalar_linear_euler(tmp_path, load_csv):
    cfg = write_cfg(tmp_path, {
        "version": 1, "seed": 2,
        "model": {"name": "scalar_linear", "params": {"a": -1.0, "b_scalar": 1.0}},
        "x0": [1.0],
        "analyses": [{"kind": "convergence", "oracle": "closed_form",
                      "levels": 3, "n_paths": 40, "h0": 2.0**-4}],
    })
    out = tmp_path / "run"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
    comments, names, data = load_csv(str(out / "convergence.csv"))
    assert names == ["step_size", "error"]
    assert data.shape == (3, 2)
    slope_line = [c for c in comments if c.startswith("# slope=")][0]
    slope = float(slope_line.split()[1].split("=")[1])
    assert 0.1 < slope < 1.0


def test_stability_of_deterministic_decay(tmp_path, load_csv):
    cfg = write_cfg(tmp_path, {
        "version": 1, "seed": 4,
        "model": {"name": "scalar_linear", "params": {"a": -1.0, "b_scalar": 0.0}},
        "T": 1.0, "h": 1e-2, "n_paths": 20,
        "analyses": [{"kind": "stability", "x0_radius": 0.01, "delta": 0.5}],
    })
    out = tmp_path / "run"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
    _, names, data = load_csv(str(out / "stability.csv"))
    assert names == ["probability", "half_width", "n_paths", "n_exceed"]
    assert data[0, 0] == 0.0
    assert data[0, 3] == 0.0


def test_attraction_to_pole(tmp_path, load_csv):
    cfg = write_cfg(tmp_path, {
        "version": 1, "seed": 4,
        "model": {"name": "ll", "params": {"alpha": 1.0}},
        "T": 10.0, "h": 1e-2, "n_paths": 4, "x0": [0.6, 0.0, 0.8],
        "analyses": [{"kind": "attraction", "target": [0.0, 0.0, 1.0],
                      "eps": 1e-2}],
    })
    out = tmp_path / "run"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
    _, names, data = load_csv(str(out / "attraction.csv"))
    assert names == ["fraction", "half_width", "n_paths", "n_attracted"]
    assert data[0, 0] == 1.0


def test_stability_honours_the_config_scheme(tmp_path, load_csv):
    cfg = {
        "version": 1, "seed": 3, "model": {"name": "rode_ll"},
        "T": 5.0, "h": 1e-2, "n_paths": 20, "x0": [0.6, 0.0, 0.8],
        "analyses": [{"kind": "stability", "x0_radius": 1.0, "delta": 1.001},
                     {"kind": "attraction", "target": [0.0, 0.0, 1.0], "eps": 1e-3}],
    }
    counts = {}
    for scheme in ("rode_euler", "rode_heun"):
        out = tmp_path / scheme
        path = write_cfg(tmp_path, dict(cfg, scheme=scheme), name=f"{scheme}.yaml")
        assert main(["stability", "--config", path, "--out", str(out)]) == 0
        counts[scheme] = (load_csv(str(out / "stability.csv"))[2][0, 3],
                          load_csv(str(out / "attraction.csv"))[2][0, 3])
    # Euler lengthens every rotated state, so every path leaves the ball
    assert counts["rode_euler"] == (20, 0)
    assert counts["rode_heun"] == (1, 8)


def test_integration_abort_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "version": 1, "seed": 1,
        "model": {"name": "scalar_linear", "params": {"a": 100.0, "b_scalar": 0.0}},
        "T": 50.0, "h": 0.1, "x0": [1.0],
    })
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "integration aborted" in err
    assert "non-finite" in err
    # the message names the failing path's last finite state, to 17 digits
    model = build_model("scalar_linear", a=100.0, b_scalar=0.0)
    with pytest.raises(IntegrationError) as info:
        run_ensemble(model, [1.0], "euler_maruyama", 1, 1, (), T=50.0, h=0.1)
    assert np.isfinite(info.value.states[-2]).all()
    assert err.rstrip().endswith(f"last finite state [{info.value.states[-2][0]:.17g}]")


def test_refinement_study_abort_names_the_last_finite_state(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "version": 1, "seed": 1, "x0": [1.0],
        "model": {"name": "scalar_linear", "params": {"a": 1e4, "b_scalar": 1.0}},
        "analyses": [{"kind": "convergence", "oracle": "finest_refinement",
                      "levels": 3, "n_paths": 4, "h0": 1.0, "T": 100.0}],
    })
    out = tmp_path / "run"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("integration aborted: non-finite state at step ")
    last = err.split("last finite state [")[1].split("]")[0]
    assert np.isfinite(float(last)) and float(last) > 1e300
    assert not (out / "convergence.csv").exists()


def test_non_finite_strong_error_exits_1_without_a_csv(tmp_path, capsys):
    # exp(a T) overflows, so the closed-form oracle is inf while EM stays finite
    cfg = write_cfg(tmp_path, {
        "version": 1, "seed": 1, "x0": [1.0],
        "model": {"name": "scalar_linear", "params": {"a": 1e4, "b_scalar": 1.0}},
        "analyses": [{"kind": "convergence", "oracle": "closed_form",
                      "levels": 3, "n_paths": 8, "h0": 1 / 16, "T": 1.0}],
    })
    out = tmp_path / "run"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("estimate failed: errors must be positive and finite for a "
                            "log-log fit; level 0 (h=0.0625) has inf\n")
    assert not (out / "convergence.csv").exists()


def _stability_cfg(x0, analyses):
    return {
        "version": 1, "seed": 4, "T": 0.5, "h": 1e-2, "n_paths": 20, "x0": x0,
        "model": {"name": "scalar_linear", "params": {"a": -1.0, "b_scalar": 1.0}},
        "analyses": analyses,
    }


_STABILITY = {"kind": "stability", "x0_radius": 0.01, "delta": 0.012}
_ATTRACTION = {"kind": "attraction", "target": [0.0], "eps": 0.01}


@pytest.mark.parametrize("x0, passes", [([0.01], 1), ([0.02], 2), ([-0.01], 2)],
                         ids=["equal_starts", "distinct_starts", "negated_start"])
def test_stability_entries_share_one_pass_per_start(tmp_path, capsys, monkeypatch,
                                                     x0, passes):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return run_ensemble(*args, **kwargs)

    monkeypatch.setattr(analyze, "run_ensemble", counted)
    cfg = write_cfg(tmp_path, _stability_cfg(x0, [_STABILITY, _ATTRACTION]))
    shared = tmp_path / "shared"
    assert main(["stability", "--config", cfg, "--out", str(shared)]) == 0
    assert len(calls) == passes
    stdout = capsys.readouterr().out
    # the same config with every entry in a pass of its own writes the same bytes
    monkeypatch.setattr(analyze, "_start_key", lambda start: object())
    alone = tmp_path / "alone"
    assert main(["stability", "--config", cfg, "--out", str(alone)]) == 0
    assert len(calls) == passes + 2
    assert capsys.readouterr().out == stdout.replace(str(shared), str(alone))
    for name in ("stability.csv", "attraction.csv"):
        assert (shared / name).read_bytes() == (alone / name).read_bytes()
    # and a config holding one entry alone writes the same rows
    for entry, name in ((_STABILITY, "stability.csv"), (_ATTRACTION, "attraction.csv")):
        single = tmp_path / name
        path = write_cfg(tmp_path, _stability_cfg(x0, [entry]), name=f"{name}.yaml")
        assert main(["stability", "--config", path, "--out", str(single)]) == 0
        assert read_rows(single / name)[1:] == read_rows(shared / name)[1:]


def test_stability_abort_keeps_the_files_of_earlier_entries(tmp_path, capsys):
    # x0 = 0 stays at 0, while the stability start at 0.01 overflows
    cfg = write_cfg(tmp_path, {
        "version": 1, "seed": 1, "T": 50.0, "h": 0.1, "n_paths": 4, "x0": [0.0],
        "model": {"name": "scalar_linear", "params": {"a": 100.0, "b_scalar": 0.0}},
        "analyses": [_ATTRACTION, _STABILITY],
    })
    out = tmp_path / "run"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 1
    assert "integration aborted" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["attraction.csv"]


_LL = {"name": "ll", "params": {"alpha": 1.0}}
_KUBO = {"name": "kubo", "params": {"a": 1.0, "sigma": 0.5}}
_LINEAR = {"name": "scalar_linear", "params": {"a": -1.0, "b_scalar": 1.0}}

# case -> (task, config without its None values, exit code, stdout with {out}
# for the output directory)
KIND_RUNS = {
    "invariance": ("check", base_cfg(
        seed=7, analyses=[{"kind": "invariance", "tol": 1e-9, "samples": 16}]), 0,
        "check invariance: pass (max residual 2.22e-16) -> {out}/invariance.csv"),
    "equilibrium": ("check", base_cfg(
        model=_LL, analyses=[{"kind": "equilibrium", "point": [0.0, 0.0, 1.0], "tol": 1e-12}]),
        0, "check equilibrium: pass (all terms vanish) -> {out}/equilibrium.csv"),
    "equilibrium_fails": ("check", base_cfg(
        model=_LL, analyses=[{"kind": "equilibrium", "point": [1.0, 0.0, 0.0], "tol": 1e-12}]),
        1, "check equilibrium: FAIL (nonzero: precession, damping) -> {out}/equilibrium.csv"),
    "lyapunov": ("check", base_cfg(
        model=_LL, h=1e-2, analyses=[{"kind": "lyapunov", "functional": "neg_align"}]), 0,
        "check lyapunov: pass (0 violations, max increase 0) -> {out}/lyapunov.csv"),
    "first-integral": ("check", base_cfg(
        seed=11, model=_KUBO, scheme="heun", h=2.0**-7, x0=[1.0, 0.0],
        analyses=[{"kind": "first-integral", "functional": "norm2", "tol": 1e-3}]), 0,
        "check first-integral: pass (max drift 0.000382) -> {out}/first-integral.csv"),
    "symplecticity": ("check", base_cfg(
        seed=11, model=_KUBO, scheme="heun", h=2.0**-7, x0=[1.0, 0.0],
        analyses=[{"kind": "symplecticity", "tol": 1e-2}]), 0,
        "check symplecticity: pass (defect 0.000338) -> {out}/symplecticity.csv"),
    "convergence": ("convergence", base_cfg(
        seed=2, model=_LINEAR, scheme=None, x0=[1.0],
        analyses=[{"kind": "convergence", "oracle": "closed_form", "levels": 3,
                   "n_paths": 30, "h0": 2.0**-4}]), 0,
        "convergence: slope 0.6676 +/- 0.1749 -> {out}/convergence.csv"),
    "stability": ("stability", base_cfg(
        seed=4, model=_LINEAR, scheme=None, T=2.0, h=1e-2, n_paths=50, x0=[0.01],
        analyses=[{"kind": "stability", "x0_radius": 0.01, "delta": 0.02}]), 0,
        "stability: exceedance 0.2000 +/- 0.1109 -> {out}/stability.csv"),
    "attraction": ("stability", base_cfg(
        seed=4, model=_LINEAR, scheme=None, T=2.0, h=1e-2, n_paths=50, x0=[0.01],
        analyses=[{"kind": "attraction", "target": [0.0], "eps": 0.005}]), 0,
        "attraction: fraction 0.9600 +/- 0.0543 -> {out}/attraction.csv"),
    "trajectory": ("simulate", base_cfg(), 0,
                   "simulate: wrote {out}/trajectory.csv (1001 rows)"),
    "ensemble": ("simulate", base_cfg(n_paths=8), 0,
                 "simulate: wrote {out}/ensemble.csv (8 paths, 1001 rows)"),
}


@pytest.mark.parametrize("case", sorted(KIND_RUNS))
def test_each_kind_prints_its_line_and_exit_code(tmp_path, capsys, case):
    task, cfg, code, line = KIND_RUNS[case]
    cfg = {k: v for k, v in cfg.items() if v is not None}
    out = tmp_path / "run"
    assert main([task, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == code
    assert capsys.readouterr().out == line.format(out=out) + "\n"


@pytest.mark.parametrize("task, cfg, message", [
    ("check", base_cfg(model=_LL, x0=None,
                       analyses=[{"kind": "lyapunov", "functional": "neg_align"}]),
     "task 'check' needs an x0"),
    ("stability", base_cfg(model=_LINEAR, scheme=None, x0=None,
                           analyses=[{"kind": "attraction", "target": [0.0], "eps": 0.1}]),
     "task 'stability' needs an x0"),
    ("convergence", base_cfg(x0="sphere",
                             analyses=[{"kind": "convergence", "oracle": "finest_refinement",
                                        "levels": 3, "n_paths": 8}]),
     "convergence analysis needs an explicit x0 vector"),
], ids=["lyapunov_without_x0", "attraction_without_x0", "convergence_with_sphere_x0"])
def test_the_x0_a_kind_needs_is_checked_before_any_run(tmp_path, capsys, task, cfg, message):
    cfg = {k: v for k, v in cfg.items() if v is not None}
    out = tmp_path / "out"
    assert main([task, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["trajectory", "ensemble"])
def test_simulate_outputs_are_no_analysis_kinds(tmp_path, capsys, kind):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, base_cfg(analyses=[{"kind": kind}]))
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: analyses[0]: unknown kind {kind!r}; known: ['attraction', "
        "'convergence', 'equilibrium', 'first-integral', 'invariance', 'lyapunov', "
        "'stability', 'symplecticity']\n")
    assert not out.exists()


# kind -> (task, config keys, a minimal entry, the entry load_config resolves:
# each default filled in, each number and vector of the type it is read as)
RESOLVED = {
    "invariance": ("check", {}, {"kind": "invariance", "tol": 1e-9},
                   {"kind": "invariance", "tol": 1e-9, "samples": 200, "manifold": "sphere",
                    "eta_T": 10.0, "eta_h": 1e-3}),
    "equilibrium": ("check", {"model": _LL},
                    {"kind": "equilibrium", "point": [0, 0, 1], "tol": "1e-12"},
                    {"kind": "equilibrium", "point": [0.0, 0.0, 1.0], "tol": 1e-12}),
    "lyapunov": ("check", {"model": _LL}, {"kind": "lyapunov", "functional": "neg_align"},
                 {"kind": "lyapunov", "functional": "neg_align", "step_tol": 1e-6}),
    "first-integral": ("check", {"model": _KUBO, "scheme": "heun", "x0": [1.0, 0.0]},
                       {"kind": "first-integral", "functional": "norm2", "tol": 1},
                       {"kind": "first-integral", "functional": "norm2", "tol": 1.0}),
    "symplecticity": ("check", {"model": _KUBO, "scheme": "heun", "x0": [1.0, 0.0]},
                      {"kind": "symplecticity", "tol": 1e-2},
                      {"kind": "symplecticity", "tol": 1e-2}),
    "convergence": ("convergence", {},
                    {"kind": "convergence", "oracle": "finest_refinement", "levels": 3.0,
                     "n_paths": "8"},
                    {"kind": "convergence", "oracle": "finest_refinement", "levels": 3,
                     "n_paths": 8, "scheme": None, "T": 1.0, "h0": 0.015625, "oracle_gap": 3}),
    "stability": ("stability", {}, {"kind": "stability", "x0_radius": 0.1, "delta": 1},
                  {"kind": "stability", "x0_radius": 0.1, "delta": 1.0}),
    "attraction": ("stability", {}, {"kind": "attraction", "target": [0, 0, 1], "eps": 0.1},
                   {"kind": "attraction", "target": [0.0, 0.0, 1.0], "eps": 0.1}),
}


@pytest.mark.parametrize("kind", sorted(RESOLVED))
def test_each_kind_resolves_to_its_typed_options(tmp_path, kind):
    """The resolved entry holds every option, with its default where the
    entry sets none, as the type the config: comment dumps: a default that
    turned from 10.0 into 10 would change the bytes of every output."""
    task, over, entry, resolved = RESOLVED[kind]
    cfg, _, _ = cli.load_config(write_cfg(tmp_path, base_cfg(analyses=[entry], **over)),
                                None, task)
    assert cfg["analyses"] == [resolved]
    assert [{k: type(v) for k, v in a.items()} for a in cfg["analyses"]] == [
        {k: type(v) for k, v in resolved.items()}]


BAD_CONFIGS = {
    "not_yaml": ("simulate", "version: [1"),
    "not_a_mapping": ("simulate", "- 1\n- 2\n"),
    "unknown_top_key": ("simulate", base_cfg(flavor="mint")),
    "bad_version": ("simulate", base_cfg(version=2)),
    "missing_seed": ("simulate", {k: v for k, v in base_cfg().items() if k != "seed"}),
    "negative_seed": ("simulate", base_cfg(seed=-1)),
    "seed_of_129_bits": ("simulate", base_cfg(seed=2**128)),
    "missing_model": ("simulate", {k: v for k, v in base_cfg().items() if k != "model"}),
    "unknown_model": ("simulate", base_cfg(model={"name": "perpetuum_mobile"})),
    "bad_model_param": ("simulate", base_cfg(
        model={"name": "ll", "params": {"gamma_factor": 2}})),
    "unknown_scheme": ("simulate", base_cfg(scheme="leapfrog")),
    "scheme_a_list": ("simulate", base_cfg(scheme=["heun"])),
    "scheme_zero": ("simulate", base_cfg(scheme=0)),
    "scheme_false": ("simulate", base_cfg(scheme=False)),
    "scheme_empty": ("simulate", base_cfg(scheme="")),
    "convergence_scheme_zero": ("convergence", base_cfg(
        analyses=[{"kind": "convergence", "oracle": "finest_refinement",
                   "levels": 3, "n_paths": 8, "scheme": 0}])),
    "grid_overflow": ("simulate", base_cfg(T=1e300, h=1e-300)),
    "eta_grid_beyond_numpy": ("check", base_cfg(
        model={"name": "rode_ll"},
        analyses=[{"kind": "invariance", "tol": 1e-9, "eta_T": 1.0, "eta_h": 1e-20}])),
    "negative_paths": ("simulate", base_cfg(n_paths=-1)),
    "scheme_mismatch": ("simulate", base_cfg(scheme="euler_maruyama")),
    "nonpositive_T": ("simulate", base_cfg(T=0.0)),
    "h_above_T": ("simulate", base_cfg(h=2.0)),
    "zero_paths": ("simulate", base_cfg(n_paths=0)),
    "x0_wrong_length": ("simulate", base_cfg(x0=[1.0, 0.0])),
    "x0_sphere_planar_model": ("simulate", {
        "version": 1, "seed": 1, "x0": "sphere",
        "model": {"name": "kubo"}, "scheme": "heun"}),
    "missing_x0": ("simulate", {k: v for k, v in base_cfg().items() if k != "x0"}),
    "unknown_functional": ("simulate", base_cfg(functionals=["entropy"])),
    "empty_functionals": ("simulate", base_cfg(functionals=[])),
    "unknown_analysis_kind": ("check", base_cfg(analyses=[{"kind": "numerology"}])),
    "analysis_missing_option": ("check", base_cfg(analyses=[{"kind": "invariance"}])),
    "analysis_unknown_option": ("check", base_cfg(
        analyses=[{"kind": "invariance", "tol": 1e-9, "mood": "hopeful"}])),
    "no_check_entries": ("check", base_cfg(analyses=[])),
    "too_few_levels": ("convergence", base_cfg(
        analyses=[{"kind": "convergence", "oracle": "finest_refinement",
                   "levels": 2, "n_paths": 8}])),
    "unknown_oracle": ("convergence", base_cfg(
        analyses=[{"kind": "convergence", "oracle": "crystal_ball",
                   "levels": 3, "n_paths": 8}])),
    "closed_form_unavailable": ("convergence", base_cfg(
        model={"name": "ll"}, scheme=None,
        analyses=[{"kind": "convergence", "oracle": "closed_form",
                   "levels": 3, "n_paths": 8}])),
    "convergence_scheme_mismatch": ("convergence", base_cfg(
        analyses=[{"kind": "convergence", "oracle": "finest_refinement",
                   "levels": 3, "n_paths": 8, "scheme": "euler_maruyama"}])),
    "convergence_needs_vector_x0": ("convergence", base_cfg(
        x0="sphere",
        analyses=[{"kind": "convergence", "oracle": "finest_refinement",
                   "levels": 3, "n_paths": 8}])),
    "delta_not_above_radius": ("stability", base_cfg(
        analyses=[{"kind": "stability", "x0_radius": 0.5, "delta": 0.5}])),
    "nonpositive_eps": ("stability", base_cfg(
        analyses=[{"kind": "attraction", "target": [0.0, 0.0, 1.0], "eps": 0.0}])),
    "symplecticity_needs_planar": ("check", base_cfg(
        analyses=[{"kind": "symplecticity", "tol": 1e-2}])),
    "seed_not_a_number": ("simulate", base_cfg(seed="abc")),
    "seed_not_integral": ("simulate", base_cfg(seed=1.5)),
    "T_not_a_number": ("simulate", base_cfg(T="abc")),
    "h_a_list": ("simulate", base_cfg(h=[1])),
    "n_paths_not_integral": ("simulate", base_cfg(n_paths=2.5)),
    "n_paths_a_bool": ("simulate", base_cfg(n_paths=True)),
    "x0_not_numbers": ("simulate", base_cfg(x0=["a", "b", "c"])),
    "x0_radius_not_a_number": ("stability", base_cfg(
        analyses=[{"kind": "stability", "x0_radius": "abc", "delta": 0.5}])),
    "equilibrium_point_not_a_list": ("check", base_cfg(
        analyses=[{"kind": "equilibrium", "tol": 1e-9, "point": 1.0}])),
    "eta_h_above_eta_T": ("check", base_cfg(
        analyses=[{"kind": "invariance", "tol": 1e-9, "eta_T": 1.0, "eta_h": 2.0}])),
    "levels_not_integral": ("convergence", base_cfg(
        analyses=[{"kind": "convergence", "oracle": "finest_refinement",
                   "levels": 3.7, "n_paths": 8}])),
    "convergence_zero_paths": ("convergence", base_cfg(
        analyses=[{"kind": "convergence", "oracle": "finest_refinement",
                   "levels": 3, "n_paths": 0}])),
    "convergence_zero_oracle_gap": ("convergence", base_cfg(
        analyses=[{"kind": "convergence", "oracle": "finest_refinement",
                   "levels": 3, "n_paths": 8, "oracle_gap": 0}])),
    "convergence_negative_h0": ("convergence", base_cfg(
        analyses=[{"kind": "convergence", "oracle": "finest_refinement",
                   "levels": 3, "n_paths": 8, "h0": -1}])),
    "kubo_sigma_a_bool": ("simulate", base_cfg(
        model={"name": "kubo", "params": {"sigma": True}}, scheme="heun", x0=[1.0, 0.0])),
    "ell_eps_nan": ("simulate", base_cfg(
        model={"name": "ell", "params": {"interpretation": "ito", "eps": float("nan")}},
        scheme="euler_maruyama")),
    "ll_alpha_inf": ("simulate", base_cfg(
        model={"name": "ll", "params": {"alpha": float("inf")}}, scheme="rk4")),
    "ll_b_nan": ("simulate", base_cfg(
        model={"name": "ll", "params": {"b": [0.0, 0.0, float("nan")]}}, scheme="rk4")),
    "ll_b_beyond_float": ("simulate", base_cfg(
        model={"name": "ll", "params": {"b": [0, 0, 10**400]}}, scheme="rk4")),
    "kubo_a_nan_string": ("simulate", base_cfg(
        model={"name": "kubo", "params": {"a": "nan"}}, scheme="heun", x0=[1.0, 0.0])),
    "larmor_sigma_mat_inf_string": ("simulate", base_cfg(
        model={"name": "larmor_external", "params": {"sigma_mat": [[1, 0, 0], [0, "-inf", 0],
                                                                   [0, 0, 1]]}})),
    "scalar_linear_a_bool": ("simulate", base_cfg(
        model={"name": "scalar_linear", "params": {"a": True, "b_scalar": 0.5}},
        scheme="euler_maruyama", x0=[1.0])),
    "isochronous_omega_nan": ("simulate", base_cfg(
        model={"name": "isochronous", "params": {"omega": [1.0, float("nan")]}},
        scheme="heun", x0=[1.0, 1.0, 0.0, 0.0])),
    "rode_t_min_below_e": ("simulate", base_cfg(
        model={"name": "rode_ll", "params": {"t_min": 2.0}})),
    "rode_without_eta_builder_simulate": ("simulate", base_cfg(
        model={"name": "rode_ll", "params": {"scalar_eta": False}})),
    "rode_without_eta_builder_stability": ("stability", base_cfg(
        model={"name": "rode_ll", "params": {"scalar_eta": False}}, n_paths=4,
        analyses=[{"kind": "stability", "x0_radius": 0.1, "delta": 0.5}])),
    "rode_without_eta_builder_convergence": ("convergence", base_cfg(
        model={"name": "rode_ll", "params": {"scalar_eta": False}},
        analyses=[{"kind": "convergence", "oracle": "finest_refinement",
                   "levels": 3, "n_paths": 8}])),
    "invariance_zero_samples": ("check", base_cfg(
        analyses=[{"kind": "invariance", "tol": 1e-9, "samples": 0}])),
    "invariance_unknown_manifold": ("check", base_cfg(
        analyses=[{"kind": "invariance", "tol": 1e-9, "manifold": "torus"}])),
    "invariance_planar_model": ("check", base_cfg(
        model={"name": "kubo"}, scheme="heun", x0=[1.0, 0.0],
        analyses=[{"kind": "invariance", "tol": 1e-9}])),
    "zero_x0_radius": ("stability", base_cfg(
        analyses=[{"kind": "stability", "x0_radius": 0.0, "delta": 0.5}])),
    "h0_above_analysis_T": ("convergence", base_cfg(
        analyses=[{"kind": "convergence", "oracle": "finest_refinement",
                   "levels": 3, "n_paths": 8, "h0": 2.0, "T": 1.0}])),
    "attraction_target_wrong_length": ("stability", base_cfg(
        analyses=[{"kind": "attraction", "target": [0.0, 1.0], "eps": 0.1}])),
}


# case -> its one config error, as main prints it to stderr; {path} stands for
# the config file's path
BAD_CONFIG_ERRORS = {
    "T_not_a_number": "T must be a number, got 'abc'",
    "analysis_missing_option": "analyses[0] (invariance): missing options ['tol']",
    "analysis_unknown_option": "analyses[0]: unknown keys ['mood']",
    "attraction_target_wrong_length": (
        "analyses[0]: target has 2 components, ell_stratonovich needs 3"),
    "bad_model_param": "model: ll: unknown parameters ['gamma_factor']",
    "bad_version": "config version must be 1, got 2",
    "closed_form_unavailable": (
        "analyses[0]: the closed_form oracle needs a closed form; none for 'll'"),
    "convergence_needs_vector_x0": "convergence analysis needs an explicit x0 vector",
    "convergence_negative_h0": (
        "analyses[0]: need T > 0, 0 < h <= T and a finite T/h, got T=1.0, h=-1.0"),
    "convergence_scheme_mismatch": (
        "analyses[0]: scheme 'euler_maruyama' integrates ito models, not stratonovich"),
    "convergence_scheme_zero": (
        "analyses[0]: unknown scheme 0; known: ['euler_maruyama', 'heun', 'rk4', 'rode_euler', "
        "'rode_heun']"),
    "convergence_zero_oracle_gap": "analyses[0]: oracle_gap must be >= 1, got 0",
    "convergence_zero_paths": "analyses[0]: n_paths must be >= 1, got 0",
    "delta_not_above_radius": (
        "analyses[0]: need delta > x0_radius > 0, got delta=0.5, x0_radius=0.5"),
    "ell_eps_nan": "model: ell: eps must hold finite numbers, got nan",
    "empty_functionals": "functionals must be a nonempty list of names",
    "equilibrium_point_not_a_list": "analyses[0]: point must be a list of 3 numbers, got 1.0",
    "eta_grid_beyond_numpy": (
        "analyses[0] (eta_T, eta_h): a grid of 100000000000000000001 times is more than a "
        "float64 array can hold, got T=1.0, h=1e-20"),
    "eta_h_above_eta_T": (
        "analyses[0] (eta_T, eta_h): need T > 0, 0 < h <= T and a finite T/h, got T=1.0, h=2.0"),
    "grid_overflow": "config: need T > 0, 0 < h <= T and a finite T/h, got T=1e+300, h=1e-300",
    "h0_above_analysis_T": (
        "analyses[0]: need T > 0, 0 < h <= T and a finite T/h, got T=1.0, h=2.0"),
    "h_a_list": "h must be a number, got [1]",
    "h_above_T": "config: need T > 0, 0 < h <= T and a finite T/h, got T=1.0, h=2.0",
    "invariance_planar_model": "analyses[0]: sphere invariance needs a 3-dimensional model",
    "invariance_unknown_manifold": "analyses[0]: unknown manifold 'torus'",
    "invariance_zero_samples": "analyses[0]: samples must be >= 1",
    "isochronous_omega_nan": "model: isochronous: omega must hold finite numbers, got [1.0, nan]",
    "kubo_a_nan_string": "model.params: a must be a number, got 'nan'",
    "kubo_sigma_a_bool": "model: kubo: sigma must hold finite numbers, got True",
    "larmor_sigma_mat_inf_string": "model.params: sigma_mat[1][1] must be a number, got '-inf'",
    "levels_not_integral": "analyses[0]: levels must be an integer, got 3.7",
    "ll_alpha_inf": "model: ll: alpha must hold finite numbers, got inf",
    "ll_b_beyond_float": "model: ll: b must hold finite numbers, got [0, 0, " + str(10**400) + "]",
    "ll_b_nan": "model: ll: b must hold finite numbers, got [0.0, 0.0, nan]",
    "missing_model": "config needs a 'model' section",
    "missing_seed": "a seed is required (config key 'seed' or --seed)",
    "missing_x0": "task 'simulate' needs an x0",
    "n_paths_a_bool": "n_paths must be an integer, got True",
    "n_paths_not_integral": "n_paths must be an integer, got 2.5",
    "negative_paths": "config: n_paths must be >= 1, got -1",
    "negative_seed": "seed must be an integer in [0, 2**128), got -1",
    "no_check_entries": "check: the analyses list has no entry that check runs",
    "nonpositive_T": "config: need T > 0, 0 < h <= T and a finite T/h, got T=0.0, h=0.001",
    "nonpositive_eps": "analyses[0]: eps must be positive, got 0.0",
    "not_a_mapping": "config must be a mapping",
    "not_yaml": ('config is not valid YAML: while parsing a flow sequence\n'
                 '  in "{path}", line 1, column 10\n'
                 "expected ',' or ']', but got '<stream end>'\n"
                 '  in "{path}", line 1, column 12'),
    "rode_t_min_below_e": "model: rode_ll: t_min must exceed e ~ 2.718, got 2.0",
    "rode_without_eta_builder_convergence": (
        "config: RODE runs need a model with an eta_builder; rode_ll has none"),
    "rode_without_eta_builder_simulate": (
        "config: RODE runs need a model with an eta_builder; rode_ll has none"),
    "rode_without_eta_builder_stability": (
        "config: RODE runs need a model with an eta_builder; rode_ll has none"),
    "scalar_linear_a_bool": "model: scalar_linear: a must hold finite numbers, got True",
    "scheme_a_list": (
        "config: unknown scheme ['heun']; known: ['euler_maruyama', 'heun', 'rk4', "
        "'rode_euler', 'rode_heun']"),
    "scheme_empty": (
        "config: unknown scheme ''; known: ['euler_maruyama', 'heun', 'rk4', 'rode_euler', "
        "'rode_heun']"),
    "scheme_false": (
        "config: unknown scheme False; known: ['euler_maruyama', 'heun', 'rk4', 'rode_euler', "
        "'rode_heun']"),
    "scheme_mismatch": "config: scheme 'euler_maruyama' integrates ito models, not stratonovich",
    "scheme_zero": (
        "config: unknown scheme 0; known: ['euler_maruyama', 'heun', 'rk4', 'rode_euler', "
        "'rode_heun']"),
    "seed_not_a_number": "seed must be an integer, got 'abc'",
    "seed_not_integral": "seed must be an integer, got 1.5",
    "seed_of_129_bits": (
        "seed must be an integer in [0, 2**128), got 340282366920938463463374607431768211456"),
    "symplecticity_needs_planar": (
        "analyses[0]: symplecticity check needs a planar ode, ito or stratonovich model"),
    "too_few_levels": "analyses[0]: need at least 3 levels, got 2",
    "unknown_analysis_kind": (
        "analyses[0]: unknown kind 'numerology'; known: ['attraction', 'convergence', "
        "'equilibrium', 'first-integral', 'invariance', 'lyapunov', 'stability', "
        "'symplecticity']"),
    "unknown_functional": (
        "unknown functional 'entropy'; known: align, energy, neg_align, norm, norm2, sphere"),
    "unknown_model": (
        "model: unknown catalog model 'perpetuum_mobile'; known: ell, etore_invariantized, "
        "isochronous, kubo, larmor, larmor_external, larmor_preserving, ll, modified_etore, "
        "rode_ll, scalar_linear"),
    "unknown_oracle": "analyses[0]: unknown oracle 'crystal_ball'",
    "unknown_scheme": (
        "config: unknown scheme 'leapfrog'; known: ['euler_maruyama', 'heun', 'rk4', "
        "'rode_euler', 'rode_heun']"),
    "unknown_top_key": "config: unknown keys ['flavor']",
    "x0_not_numbers": "config: x0[0] must be a number, got 'a'",
    "x0_radius_not_a_number": "analyses[0]: x0_radius must be a number, got 'abc'",
    "x0_sphere_planar_model": "x0 'sphere' needs a 3-dimensional model",
    "x0_wrong_length": "config: x0 has 2 components, ell_stratonovich needs 3",
    "zero_paths": "config: n_paths must be >= 1, got 0",
    "zero_x0_radius": "analyses[0]: need delta > x0_radius > 0, got delta=0.5, x0_radius=0.0",
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_invalid_config_exits_2_and_writes_nothing(tmp_path, capsys, case):
    """Each invalid config prints its one error, located and worded as pinned
    in BAD_CONFIG_ERRORS, and writes nothing."""
    task, cfg = BAD_CONFIGS[case]
    if isinstance(cfg, dict) and cfg.get("scheme", "keep") is None:
        del cfg["scheme"]
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main([task, "--config", path, "--out", str(out)]) == 2
    message = BAD_CONFIG_ERRORS[case].replace("{path}", path)
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists() or not any(out.iterdir())


ELL = build_model("ell", interpretation="stratonovich", eps=0.1, alpha=1.0)


@pytest.mark.parametrize("task, cfg, call", [
    ("simulate", base_cfg(h=2.0),
     lambda: run_ensemble(ELL, [0.6, 0.0, 0.8], "heun", 1, 5, (), T=1.0, h=2.0)),
    ("convergence", base_cfg(analyses=[{"kind": "convergence", "oracle": "finest_refinement",
                                        "levels": 2, "n_paths": 8}]),
     lambda: empirical_convergence_order(ELL, [0.6, 0.0, 0.8], "heun", "finest_refinement",
                                         levels=2, n_paths=8, seed=5)),
    ("stability", base_cfg(analyses=[{"kind": "stability", "x0_radius": 0.5, "delta": 0.5}]),
     lambda: stability_probability(ELL, 0.5, 0.5, T=1.0, n_paths=1, seed=5)),
], ids=["grid", "convergence", "stability"])
def test_config_errors_print_the_api_message(tmp_path, capsys, task, cfg, call):
    with pytest.raises(ValueError) as info:
        call()
    out = tmp_path / "out"
    assert main([task, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert f": {info.value}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("message,line", [
    ("Unable to allocate 74.5 GiB for an array with shape (10000000002,) and data type int64",
     "out of memory: Unable to allocate 74.5 GiB for an array with shape (10000000002,) and "
     "data type int64"),
    ("", "out of memory: an allocation failed"),
], ids=["numpy", "bare"])
def test_running_out_of_memory_exits_1_with_one_line(tmp_path, capsys, monkeypatch, message,
                                                     line):
    """A run the machine cannot hold ends with exit 1 and one stderr line, as
    numpy's MemoryError or a bare one, not a traceback."""
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_ensemble", exhausted)
    cfg = write_cfg(tmp_path, base_cfg(n_paths=4))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [line]


@pytest.mark.parametrize("opts", [{"levels": 60}, {"levels": 3, "oracle_gap": 10**30}],
                         ids=["levels_60", "oracle_gap_1e30"])
def test_a_study_beyond_array_indexing_exits_2_before_any_refinement(tmp_path, capsys,
                                                                     monkeypatch, opts):
    """levels: 60 from h0 = 2**-6 asks for a finest stack of 64 x 2**62 steps;
    it used to pass load_config and then run for more than a minute."""
    def no_study(*args):
        raise AssertionError("a study ran")

    monkeypatch.setattr(analyze, "_coupled_paths", no_study)
    cfg = base_cfg(analyses=[{"kind": "convergence", "oracle": "finest_refinement",
                              "n_paths": 8, **opts}])
    out = tmp_path / "out"
    assert main(["convergence", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert "more values than an array can index" in err[0]
    assert not out.exists()


def test_integral_floats_and_numeric_strings_resolve_like_numbers(tmp_path):
    # YAML 1.1 reads 1e-3 as a string; both configs resolve to seed 5, h 0.001
    outs = []
    for i, over in enumerate(({}, {"seed": 5.0, "h": "1e-3"})):
        cfg = write_cfg(tmp_path, base_cfg(T=0.01, **over), name=f"cfg{i}.yaml")
        out = tmp_path / f"run{i}"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        outs.append((out / "trajectory.csv").read_bytes())
    assert outs[0] == outs[1]


def test_a_grid_that_numpy_cannot_size_exits_2_with_one_line(tmp_path, capsys):
    """T: 1.0, h: 1.0e-20 used to make --out and then end in a traceback
    from np.arange."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, base_cfg(T=1.0, h=1e-20))
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: config: a grid of 100000000000000000001 times is more than a float64 "
        "array can hold, got T=1.0, h=1e-20"]
    assert not out.exists()


@pytest.mark.parametrize("written, plain", [
    ("{name: kubo, params: {a: 1e-3}}", "{name: kubo, params: {a: 0.001}}"),
    ("{name: larmor_external, params: {sigma_mat: [[1e0, 0, 0], [0, 2e0, 0], [0, 0, 1]]}}",
     "{name: larmor_external, params: {sigma_mat: [[1.0, 0, 0], [0, 2.0, 0], [0, 0, 1]]}}"),
], ids=["scalar", "matrix"])
def test_numeric_strings_in_model_parameters_resolve_like_numbers(tmp_path, written, plain):
    """YAML 1.1 reads 1e-3 as a string; it used to reach the builder as one
    and exit 2 with `bad operand type for unary -: 'str'`."""
    x0 = "[1.0, 0.0]" if "kubo" in written else "[0.6, 0.0, 0.8]"
    outs = []
    for i, model in enumerate((written, plain)):
        cfg = write_cfg(tmp_path, f"version: 1\nseed: 3\nT: 0.05\nh: 0.01\nx0: {x0}\n"
                                  f"model: {model}\n", name=f"cfg{i}.yaml")
        out = tmp_path / f"run{i}"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        outs.append((out / "trajectory.csv").read_bytes())
    assert outs[0] == outs[1]


# every catalog model with parameters off their defaults; ints where a
# config may give them
ROUND_TRIPS = {
    "larmor": ({"b": [0.3, -0.2, 1.1]}, [0.6, 0.0, 0.8]),
    "larmor_external": ({"b": [0, 1, 1], "eps": 0.3,
                         "sigma_mat": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]}, [0.6, 0.0, 0.8]),
    "larmor_preserving": ({"b": [0.5, 0.0, 1.0], "gamma": 0.4}, [0.6, 0.0, 0.8]),
    "ll": ({"b": [0.2, 0.1, 1.0], "alpha": 0.3}, [0.6, 0.0, 0.8]),
    "ell": ({"interpretation": "ito", "b": [0.0, 1.0, 1.0], "alpha": 0.5, "eps": 0.2},
            "sphere"),
    "etore_invariantized": ({"b": [1.0, 0.0, 1.0], "alpha": 0.7, "eps": 0.2}, [0.6, 0.0, 0.8]),
    "modified_etore": ({"b": [0, 0, 2], "alpha": 0.6, "eps": 0.25}, [0.6, 0.0, 0.8]),
    "rode_ll": ({"b": [0.0, 0.5, 1.0], "alpha": 0.5, "t_min": 3.5}, [0.6, 0.0, 0.8]),
    "kubo": ({"a": 2.0, "sigma": 0.3}, [1.0, 0.0]),
    "scalar_linear": ({"a": -0.5, "b_scalar": 0.7}, [1.0]),
    "isochronous": ({"omega": [1, 2.5], "eps": 0.3}, [1.0, 2.0, 0.0, 0.5]),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
def test_the_config_comment_reruns_to_the_same_bytes(tmp_path, name):
    """A CSV's config: comment is the full resolved configuration: run as a
    config, it writes the same file.  larmor_external used to drop sigma_mat."""
    params, x0 = ROUND_TRIPS[name]
    cfg = {"version": 1, "seed": 4, "T": 0.05, "h": 0.01, "x0": x0,
           "n_paths": 4 if x0 == "sphere" else 1, "model": {"name": name, "params": params}}
    csvs = []
    for i in range(2):
        out = tmp_path / f"run{i}"
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg, f"cfg{i}.yaml"),
                     "--out", str(out)]) == 0
        (csv,) = out.glob("*.csv")
        csvs.append(csv.read_bytes())
        comments, _, _ = read_rows(csv)
        (line,) = [c for c in comments if c.startswith("# config: ")]
        cfg = yaml.safe_load(line[len("# config: "):])
    assert csvs[0] == csvs[1]
    assert {key: cfg["model"]["params"][key] for key in params} == params


def test_missing_config_file_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                 "--out", str(out)]) == 2
    assert "not found" in capsys.readouterr().err
    assert not out.exists()


def test_bad_thread_count_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, base_cfg())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--threads", "0"]) == 2
    assert not out.exists()


def test_unknown_task_is_a_usage_error(tmp_path):
    cfg = write_cfg(tmp_path, base_cfg())
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify", "--config", cfg])
    assert exc.value.code == 2
