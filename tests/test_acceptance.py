"""Desk-scale acceptance battery.

Each test exercises one advertised guarantee end to end and records a
one-line verdict in the summary (see conftest).  Measured values are
asserted at the stated tolerances; nothing is tuned to pass.
"""
import math
import runpy
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from stochlab.analyze import (
    check_equilibrium,
    check_invariance,
    check_symplecticity,
    conversion_gap_decay,
    empirical_convergence_order,
    functional_drift_decay,
    ll_decomposition_residual,
    one_step_generator_check,
    sphere_minus_cap,
    stability_probability,
    uniform_sphere_sampler,
)
from stochlab.cli import main
from stochlab.integrate import (
    apply_generator,
    integrate_path,
    run_ensemble,
    strat_to_ito,
)
from stochlab.models import build_model, scalar_linear_exact
from stochlab.noise import sample_brownian
from stochlab.vecalg import (
    PoissonStructure,
    ScalarField,
    bracket_field,
    casimir_field,
    casimir_residual,
    field_product,
    norm_squared_field,
    quadratic_field,
    rigid_body_bracket,
    sphere_field,
)

E3 = np.array([0.0, 0.0, 1.0])
ROOT = Path(__file__).resolve().parents[1]


def _random_quadratic(rng):
    return quadratic_field(rng.normal(size=(3, 3)), rng.normal(size=3), rng.normal())


def test_bracket_algebra_identities(acceptance):
    rng = np.random.default_rng(1)
    F, G, H = (_random_quadratic(rng) for _ in range(3))
    s = PoissonStructure(+1)
    pts = rng.normal(size=(100, 3))
    FG = field_product(F, G)
    gh, hf, fg = (bracket_field(a, b, s) for a, b in ((G, H), (H, F), (F, G)))
    anti = leib = jac = 0.0
    for z in pts:
        anti = max(anti, abs(rigid_body_bracket(F, G, z, s)
                             + rigid_body_bracket(G, F, z, s)))
        leib = max(leib, abs(rigid_body_bracket(FG, H, z, s)
                             - F.value(z) * rigid_body_bracket(G, H, z, s)
                             - G.value(z) * rigid_body_bracket(F, H, z, s)))
        jac = max(jac, abs(rigid_body_bracket(F, gh, z, s)
                           + rigid_body_bracket(G, hf, z, s)
                           + rigid_body_bracket(H, fg, z, s)))
    cas = casimir_residual(casimir_field(), s, pts, [F, G, H])
    passed = anti <= 1e-10 and leib <= 1e-10 and jac <= 1e-10 and cas <= 1e-12
    acceptance("01", passed,
               f"bracket residuals anti {anti:.2e} leibniz {leib:.2e} "
               f"jacobi {jac:.2e} casimir {cas:.2e}")
    assert anti <= 1e-10
    assert leib <= 1e-10
    assert jac <= 1e-10
    assert cas <= 1e-12


def test_damped_precession_is_bracket_plus_double_bracket(acceptance):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        z, b = rng.normal(size=3), rng.normal(size=3)
        worst = max(worst, ll_decomposition_residual(z, b, rng.uniform(0.0, 2.0)))
    acceptance("02", worst <= 1e-14, f"max relative decomposition gap {worst:.2e}")
    assert worst <= 1e-14


def test_stratonovich_sphere_invariance_at_unit_amplitude(acceptance):
    model = build_model("ell", interpretation="stratonovich", eps=1.0, alpha=1.0)
    t0 = time.perf_counter()
    path = sample_brownian(31, 10.0, 1e-4, dims=3)
    traj = integrate_path(model, [0.6, 0.0, 0.8], "heun", path=path)
    elapsed = time.perf_counter() - t0
    dev = float(np.max(np.abs(np.sum(traj.states**2, axis=1) - 1.0)))
    passed = dev <= 1e-3 and elapsed <= 30.0
    acceptance("03", passed,
               f"heun max|norm2-1| {dev:.3e} (bound 1e-3), runtime {elapsed:.1f}s")
    assert elapsed <= 30.0
    assert dev <= 1e-3


def test_ito_norm_growth_matches_generator_rate(acceptance):
    model = build_model("ell", interpretation="ito", eps=0.1, alpha=1.0)
    stats = run_ensemble(model, np.array([0.6, 0.0, 0.8]), "euler_maruyama",
                         1000, 17, functionals=[norm_squared_field()],
                         T=1.0, h=1e-3)
    slope = float(np.polyfit(stats.times, np.log(stats.mean[0]), 1)[0])
    rel = abs(slope - 0.04) / 0.04
    acceptance("04", rel <= 0.10,
               f"E[norm2] growth rate {slope:.5f} vs 0.04 ({rel:.1%} off)")
    assert rel <= 0.10


def test_conversion_gap_shrinks_on_coupled_paths(acceptance):
    strat = build_model("kubo")
    ito = strat_to_ito(strat)
    decay = conversion_gap_decay(strat, ito, [1.0, 0.0], levels=5, n_paths=200,
                                 seed=5)
    passed = bool(np.all(decay.ratios >= 1.3))
    acceptance("05", passed,
               f"gap ratios per halving {np.round(decay.ratios, 3).tolist()}")
    assert np.all(decay.ratios >= 1.3)


def test_kubo_energy_decay_order_and_symplectic_defect(acceptance):
    kubo = build_model("kubo", a=1.0, sigma=0.5)
    est = functional_drift_decay(kubo, [1.0, 0.0], casimir_field(), "heun",
                                 levels=4, n_paths=300, seed=13)
    h = 1e-3
    path = sample_brownian(21, 1.0, h, dims=1)
    defect = check_symplecticity(kubo, "heun", [1.0, 0.0], h=h, T=1.0, path=path)
    passed = est.slope >= 1.0 and defect <= 10.0 * h
    acceptance("06", passed,
               f"|H0(x_T)-H0(x_0)| order {est.slope:.3f} +/- {est.half_width:.3f}; "
               f"symplectic defect {defect:.2e} (bound {10 * h:.0e})")
    assert est.slope >= 1.0
    assert defect <= 10.0 * h


def _abs_power_field(r: float) -> ScalarField:
    return ScalarField(
        value=lambda x: np.abs(x[0]) ** r,
        gradient=lambda x: r * np.abs(x) ** (r - 2.0) * x,
        hessian=lambda x: np.array([[r * (r - 1.0) * abs(x[0]) ** (r - 2.0)]]),
        name=f"abs_pow_{r}",
    )


def _linear_exceedance_probability(a, b, x0, delta, T):
    """Exact P(sup_{t<=T} |x_t| >= delta) for the Ito SDE dx = a x dt + b x dW.

    log|x_t| = log x0 + (a - b^2/2) t + b W_t, so this is the chance that
    Brownian motion with drift mu = (a - b^2/2)/b reaches c = ln(delta/x0)/b
    by time T (reflection principle with a Girsanov weight).
    """
    mu = (a - 0.5 * b * b) / b
    c = math.log(delta / x0) / b
    phi = lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0))
    rt = math.sqrt(T)
    return phi((mu * T - c) / rt) + math.exp(2.0 * mu * c) * phi((-c - mu * T) / rt)


def test_scalar_linear_order_stability_and_generator(acceptance):
    # strong order of Euler-Maruyama against the exact solution
    model = build_model("scalar_linear", a=-1.0, b_scalar=1.0)
    cf = lambda x0, t, w: scalar_linear_exact(-1.0, 1.0, x0[0], t, w)
    est = empirical_convergence_order(model, [1.0], "euler_maruyama", "closed_form",
                                      levels=5, n_paths=1000, seed=42, h0=2.0**-4,
                                      closed_form=cf)
    order_ok = abs(est.slope - 0.5) <= 0.15

    # exceedance probability of |x_t| over delta, stable vs unstable drift
    stable = build_model("scalar_linear", a=-1.0, b_scalar=1.0)
    unstable = build_model("scalar_linear", a=1.0, b_scalar=1.0)
    p_s = stability_probability(stable, 0.01, 0.5, T=10.0, n_paths=2000, seed=23,
                                h=1e-3)
    p_u = stability_probability(unstable, 0.01, 0.5, T=10.0, n_paths=2000, seed=23,
                                h=1e-3)
    # Ito unstable case: a - b^2/2 = 0.5 > 0; the Stratonovich misreading
    # (drift a + b^2/2) would give 0.986 instead of the exact 0.755
    p_exact = _linear_exceedance_probability(1.0, 1.0, 0.01, 0.5, T=10.0)
    se_u = math.sqrt(p_exact * (1.0 - p_exact) / p_u.n_paths)
    dev_u = (p_u.probability - p_exact) / se_u
    prob_ok = p_s.probability <= 0.05 and abs(dev_u) <= 4.0

    # generator on |x|^r reproduces [a + b^2 (r-1)/2] r |x|^r
    gen_worst = 0.0
    for r in (1.5, 2.0, 3.0, 4.0):
        V = _abs_power_field(r)
        for x in (0.7, -1.3, 2.0):
            got = apply_generator(model, V, 0.0, [x])
            want = (-1.0 + 0.5 * (r - 1.0)) * r * abs(x) ** r
            gen_worst = max(gen_worst, abs(got - want) / max(abs(want), 1.0))
    gen_ok = gen_worst <= 1e-12

    acceptance("07", order_ok and prob_ok and gen_ok,
               f"EM order {est.slope:.3f}; exceedance stable {p_s.probability:.3f} "
               f"(<=0.05) unstable {p_u.probability:.4f} vs exact {p_exact:.4f} "
               f"({dev_u:+.2f} SE, bound +/-{4.0 * se_u:.4f}); "
               f"generator residual {gen_worst:.1e}")
    assert order_ok, f"EM order {est.slope:.3f} not within 0.5 +/- 0.15"
    assert gen_worst <= 1e-12
    assert p_s.probability <= 0.05
    assert abs(p_u.probability - p_exact) <= 4.0 * se_u, (
        f"unstable exceedance {p_u.probability:.4f} vs exact {p_exact:.4f}")


def test_one_step_statistics_match_generator(acceptance):
    model = build_model("ell", interpretation="ito", eps=0.1, alpha=1.0)
    x = np.array([0.6, 0.0, 0.8])
    h = 1e-3
    chk = one_step_generator_check(model, norm_squared_field(), x, h=h,
                                   n_samples=10**5, seed=99)
    fx = model.drift(0.0, x)
    tol = 4.0 * chk.se_rate + 2.0 * float(np.sum(fx * fx)) * h
    acceptance("08", chk.residual <= tol,
               f"MC rate {chk.mc_rate:.5f} vs LV {chk.generator_value:.5f}, "
               f"residual {chk.residual:.2e} <= {tol:.2e}")
    assert chk.residual <= tol


def test_checker_classification_matrix(acceptance):
    pts = __import__("stochlab.analyze", fromlist=["fibonacci_sphere"]).fibonacci_sphere(100)
    sphere = sphere_field()

    strat = check_invariance(build_model("ell", interpretation="stratonovich",
                                         eps=0.1, alpha=1.0), sphere, pts, tol=1e-9)
    ito = check_invariance(build_model("ell", interpretation="ito",
                                       eps=0.1, alpha=1.0), sphere, pts, tol=1e-9)
    ito_trace = {c.name: c for c in ito.conditions}["second_order_trace"]

    larmor = check_invariance(build_model("ell", interpretation="ito",
                                          eps=0.5, alpha=0.0), sphere, pts, tol=1e-9)
    larmor_trace = {c.name: c for c in larmor.conditions}["second_order_trace"]
    trace_exact = abs(larmor_trace.max_residual - 2 * 0.5**2) <= 1e-12

    poles_ok = all(
        check_equilibrium(build_model("larmor_preserving"), p, tol=1e-12).verdict
        for p in (E3, -E3)
    )

    mod = check_equilibrium(build_model("modified_etore"), E3, tol=1e-12)
    terms = {t.name: t for t in mod.drift_terms}
    mod_ok = (terms["landau-lifshitz"].vanishes
              and all(c.vanishes for c in mod.diffusion_columns)
              and not terms["rescaling"].vanishes
              and not mod.verdict)

    passed = (strat.verdict and not ito.verdict and not ito_trace.passed
              and trace_exact and not larmor.verdict and poles_ok and mod_ok)
    acceptance("09", passed,
               "stratonovich invariant, ito rejected "
               f"(trace {ito_trace.max_residual:.3f}), pure-rotation trace "
               f"{larmor_trace.max_residual:.3f} = 2 eps^2, poles persist, "
               "rescaling term flagged")
    assert strat.verdict
    assert not ito.verdict and not ito_trace.passed
    assert trace_exact and not larmor.verdict
    assert poles_ok
    assert mod_ok


def test_rode_sphere_persistence_and_attraction(acceptance):
    model = build_model("rode_ll")  # b = e3, alpha = 1, bounded random rate
    h = 1e-3
    t0 = time.perf_counter()
    _, states = run_ensemble(model, uniform_sphere_sampler, "rode_heun", 100, 29,
                             functionals=(), T=50.0, h=h, return_states=True)
    elapsed = time.perf_counter() - t0
    norm_dev = float(np.max(np.abs(np.linalg.norm(states, axis=2) - 1.0)))
    dV = np.diff(-states[:, :, 2], axis=1)
    violations = int(np.sum(dV > 1e-6))
    final_dist = np.linalg.norm(states[:, -1, :] - E3, axis=1)
    fraction = float(np.mean(final_dist <= 1e-2))
    passed = (norm_dev <= 10 * h and violations == 0 and fraction >= 0.95
              and elapsed <= 60.0)
    acceptance("10", passed,
               f"pathwise max|norm-1| {norm_dev:.2e} (bound {10 * h:.0e}), "
               f"{violations} Lyapunov violations, attraction {fraction:.2f}, "
               f"runtime {elapsed:.0f}s")
    assert elapsed <= 60.0
    assert norm_dev <= 10 * h
    assert violations == 0
    assert fraction >= 0.95


def test_deterministic_baseline_conserves_and_attracts(acceptance):
    model = build_model("ll")  # b = e3, alpha = 1
    pts = sphere_minus_cap(100, E3, 1e-3)
    _, states = run_ensemble(model, lambda k, rng: pts[k], "rk4", len(pts), 0,
                             functionals=(), T=20.0, h=1e-3, return_states=True)
    norm_dev = float(np.max(np.abs(np.linalg.norm(states, axis=2) - 1.0)))
    V = -states[:, :, 2]
    dV = np.diff(V, axis=1)
    increases = int(np.sum(dV > 0.0))
    # zero steps are allowed only once V has saturated at the minimum
    stalls_away = int(np.sum((dV == 0.0) & (V[:, :-1] > -1.0 + 1e-12)))
    strict_overall = bool(np.all(V[:, -1] < V[:, 0]))
    worst_dist = float(np.max(np.linalg.norm(states[:, -1, :] - E3, axis=1)))
    passed = (norm_dev <= 1e-10 and increases == 0 and stalls_away == 0
              and strict_overall and worst_dist <= 1e-2)
    acceptance("11", passed,
               f"rk4 max|norm-1| {norm_dev:.2e} (bound 1e-10), V increases "
               f"{increases}, worst distance to pole {worst_dist:.2e} over "
               f"{len(pts)} starts")
    assert norm_dev <= 1e-10
    assert increases == 0
    assert stalls_away == 0
    assert strict_overall
    assert worst_dist <= 1e-2


_REPRO_RUNS = [
    ("simulate", {
        "version": 1, "seed": 5, "T": 0.5, "h": 1e-3, "x0": [0.6, 0.0, 0.8],
        "model": {"name": "ell", "params": {"interpretation": "stratonovich",
                                            "eps": 0.1, "alpha": 1.0}}}),
    ("simulate", {
        "version": 1, "seed": 6, "T": 0.5, "h": 1e-3, "x0": "sphere",
        "n_paths": 16,
        "model": {"name": "ell", "params": {"interpretation": "ito",
                                            "eps": 0.1, "alpha": 1.0}}}),
    ("simulate", {
        "version": 1, "seed": 8, "T": 2.0, "h": 1e-2, "x0": [0.6, 0.0, 0.8],
        "model": {"name": "rode_ll"}}),
    ("check", {
        "version": 1, "seed": 7,
        "model": {"name": "ell", "params": {"interpretation": "stratonovich",
                                            "eps": 0.1, "alpha": 1.0}},
        "analyses": [{"kind": "invariance", "tol": 1e-9, "samples": 64}]}),
    ("check", {
        "version": 1, "seed": 11, "scheme": "heun", "T": 1.0, "h": 2.0**-7,
        "x0": [1.0, 0.0],
        "model": {"name": "kubo", "params": {"a": 1.0, "sigma": 0.5}},
        "analyses": [{"kind": "symplecticity", "tol": 1e-2},
                     {"kind": "first-integral", "functional": "norm2",
                      "tol": 1e-3}]}),
    ("convergence", {
        "version": 1, "seed": 2, "x0": [1.0],
        "model": {"name": "scalar_linear", "params": {"a": -1.0, "b_scalar": 1.0}},
        "analyses": [{"kind": "convergence", "oracle": "closed_form",
                      "levels": 3, "n_paths": 30, "h0": 2.0**-4}]}),
    ("stability", {
        "version": 1, "seed": 4, "T": 2.0, "h": 1e-2, "n_paths": 50,
        "x0": [0.01],
        "model": {"name": "scalar_linear", "params": {"a": -1.0, "b_scalar": 1.0}},
        "analyses": [{"kind": "stability", "x0_radius": 0.01, "delta": 0.5},
                     {"kind": "attraction", "target": [0.0], "eps": 0.1}]}),
    # the attraction start differs from the first stability start and equals
    # the second's, so the entries take two ensemble passes, not three
    ("stability", {
        "version": 1, "seed": 9, "T": 2.0, "h": 1e-2, "n_paths": 50,
        "x0": [0.02],
        "model": {"name": "scalar_linear", "params": {"a": -1.0, "b_scalar": 1.0}},
        "analyses": [{"kind": "stability", "x0_radius": 0.01, "delta": 0.025},
                     {"kind": "attraction", "target": [0.0], "eps": 0.01},
                     {"kind": "stability", "x0_radius": 0.02, "delta": 0.025}]}),
    # past t_min = 3, where the eta of rode_ll moves and the ensemble draws
    # its driving noise per time block
    ("simulate", {
        "version": 1, "seed": 10, "T": 5.0, "h": 0.01, "x0": "sphere", "n_paths": 16,
        "model": {"name": "rode_ll"}}),
    # the paper's Ito experiment with every norm functional, over two time
    # blocks of the ensemble
    ("simulate", {
        "version": 1, "seed": 12, "T": 0.3, "h": 1e-3, "x0": "sphere", "n_paths": 700,
        "functionals": ["norm2", "sphere", "energy", "norm", "align"],
        "model": {"name": "ell", "params": {"interpretation": "ito",
                                            "eps": 0.1, "alpha": 1.0}}}),
    # the check kinds the runs above leave out; both poles of damped
    # precession persist, and the repeated kind names its files by entry
    ("check", {
        "version": 1, "seed": 13, "T": 1.0, "h": 1e-2, "x0": [0.6, 0.0, 0.8],
        "model": {"name": "ll", "params": {"alpha": 1.0}},
        "analyses": [{"kind": "lyapunov", "functional": "neg_align"},
                     {"kind": "equilibrium", "point": [0.0, 0.0, 1.0], "tol": 1e-12},
                     {"kind": "equilibrium", "point": [0.0, 0.0, -1.0], "tol": 1e-12}]}),
    # a noise matrix other than the identity, which the config comment records
    ("simulate", {
        "version": 1, "seed": 14, "T": 0.5, "h": 1e-2, "x0": [0.6, 0.0, 0.8],
        "model": {"name": "larmor_external",
                  "params": {"eps": 0.3, "sigma_mat": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0],
                                                       [0.5, 0.0, 3.0]]}}}),
    # angles past 2 pi on both circles, which a trajectory wraps before it
    # writes them and its functionals
    ("simulate", {
        "version": 1, "seed": 15, "T": 8.0, "h": 1e-2, "x0": [1.0, 2.0, 0.0, 0.5],
        "functionals": ["norm2"],
        "model": {"name": "isochronous", "params": {"omega": [1.0, 2.5], "eps": 0.3}}}),
]


def test_outputs_match_the_committed_digests():
    # a change that moves a CSV updates tests/repro_digests.txt and says why
    tool = runpy.run_path(str(ROOT / "tools" / "repro_digests.py"))
    lines = [f"{digest}  {name}" for digest, name in tool["digests"](_REPRO_RUNS)]
    assert lines == (ROOT / "tests" / "repro_digests.txt").read_text().splitlines()


def test_outputs_reproduce_across_runs_and_threads(tmp_path, acceptance, two_cpus):
    """Two usable CPUs whatever the machine has, so --threads 4 steps the
    ensembles in two processes."""
    compared = 0
    mismatches = []
    for i, (task, cfg) in enumerate(_REPRO_RUNS):
        cfg_path = tmp_path / f"cfg{i}.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        outs = {}
        for tag, threads in (("first", 1), ("second", 1), ("four", 4)):
            out = tmp_path / f"run{i}_{tag}"
            rc = main([task, "--config", str(cfg_path), "--out", str(out),
                       "--threads", str(threads)])
            assert rc == 0, f"{task} config {i} exited {rc}"
            outs[tag] = out
        for csv in sorted(outs["first"].glob("*.csv")):
            for other in ("second", "four"):
                compared += 1
                if (outs[other] / csv.name).read_bytes() != csv.read_bytes():
                    mismatches.append(f"{task}/{csv.name}/{other}")
    acceptance("12", not mismatches,
               f"{compared} CSV comparisons byte-identical across reruns and "
               f"thread counts 1 vs 4" + (f"; mismatches {mismatches}"
                                          if mismatches else ""))
    assert not mismatches
