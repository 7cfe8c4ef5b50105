"""Ensembles stepped in forked workers, a contiguous range of paths each:
how many processes start, and that aborts, exceptions, warnings, prints and
failures to map, fork or finish are those of one process, with no worker
left behind.  Byte equality of the
CSVs across --threads is tested with the CLI (test_cli, acceptance 12)."""
import errno
import hashlib
import os
import signal
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from stochlab import integrate, noise
from stochlab.cli import main
from stochlab.integrate import IntegrationError, ModelSpec, run_ensemble
from stochlab.models import build_model
from stochlab.vecalg import norm_squared_field

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")


@pytest.fixture
def forks(monkeypatch):
    """The list of pids that os.fork returned in this process."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted)
    return pids


def _no_children():
    """Every worker was reaped: this process has no child left."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus,n_paths,threads,workers", [
    (2, 16, 10**6, 1),   # capped by the usable CPUs
    (4, 2, 10**6, 1),    # by the paths
    (4, 16, 2, 1),       # by --threads
    (4, 16, 1, 0),       # one process starts none
])
def test_the_process_count_is_the_least_of_threads_paths_and_usable_cpus(
        monkeypatch, forks, cpus, n_paths, threads, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    model = build_model("ell", interpretation="ito")
    stats = run_ensemble(model, [1.0, 0.0, 0.0], "euler_maruyama", n_paths, 3,
                         [norm_squared_field()], T=0.05, h=0.01, threads=threads)
    assert len(forks) == workers
    monkeypatch.delattr(os, "fork")  # where os.fork does not exist, one process
    alone = run_ensemble(model, [1.0, 0.0, 0.0], "euler_maruyama", n_paths, 3,
                         [norm_squared_field()], T=0.05, h=0.01, threads=threads)
    assert np.array_equal(stats.mean, alone.mean)
    assert np.array_equal(stats.variance, alone.variance)
    _no_children()


def test_fewer_than_one_thread_is_rejected():
    model = build_model("ell", interpretation="ito")
    with pytest.raises(ValueError, match="threads must be >= 1, got 0"):
        run_ensemble(model, [1.0, 0.0, 0.0], "euler_maruyama", 4, 3, (), T=0.05, h=0.01,
                     threads=0)


def _write(tmp_path, **cfg):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"version": 1, **cfg}))
    return str(path)


def test_a_million_threads_start_at_most_the_usable_cpus(tmp_path, two_cpus, forks):
    cfg = _write(tmp_path, seed=5, T=0.1, h=1e-2, n_paths=16, x0="sphere",
                 scheme="euler_maruyama", functionals=["norm2"],
                 model={"name": "ell", "params": {"interpretation": "ito"}})
    outs = []
    for threads in ("1", "1000000"):
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / threads),
                     "--threads", threads]) == 0
        outs.append((tmp_path / threads / "ensemble.csv").read_bytes())
    assert len(forks) == 1
    assert outs[0] == outs[1]
    _no_children()


def test_an_abort_in_the_last_range_reads_as_in_one_process(tmp_path, capsys, two_cpus, forks):
    """Path 3 of 4 overflows first (seed 2), in the range of the worker:
    the exit code, the stderr line, the error's path and states, and the
    rows an observer saw up to the failing step are those of one process."""
    cfg = _write(tmp_path, seed=2, T=50.0, h=0.1, n_paths=4, x0=[1.0],
                 model={"name": "scalar_linear", "params": {"a": 0.0, "b_scalar": 30.0}})
    lines = []
    for threads in ("1", "2"):
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / threads),
                     "--threads", threads]) == 1
        lines.append(capsys.readouterr().err)
    assert lines[0] == lines[1]
    assert "path index 3, last finite state" in lines[0]
    model = build_model("scalar_linear", a=0.0, b_scalar=30.0)
    errors, seen = [], {1: [], 2: []}
    for threads in (1, 2):
        with pytest.raises(IntegrationError) as info, \
                np.errstate(over="ignore", invalid="ignore"):
            run_ensemble(model, [1.0], "euler_maruyama", 4, 2, (), T=50.0, h=0.1,
                         observers=[lambda k, block: seen[threads].append((k, block.copy()))],
                         threads=threads)
        errors.append(info.value)
    assert [k for k, _ in seen[1]] == [k for k, _ in seen[2]]
    assert all(np.array_equal(a, b, equal_nan=True) for (_, a), (_, b) in zip(seen[1], seen[2]))
    assert len(seen[1][-1][1]) + seen[1][-1][0] == errors[0].step + 2
    assert errors[0].path_index == errors[1].path_index == 3
    assert errors[0].step == errors[1].step
    assert str(errors[0]) == str(errors[1])
    assert np.array_equal(errors[0].states, errors[1].states, equal_nan=True)
    assert len(forks) == 2  # one worker for the CLI run, one for the API run
    _no_children()


def _noise_action(t, xs, ws):
    return [0.3 * x * ws[0] for x in xs]


def _refuses_large(t, xs, ws):
    if any(np.any(abs(x) > 5.0) for x in xs):
        raise ValueError("this kernel takes no state above 5")
    return [-x for x in xs], _noise_action(t, xs, ws)


def _complex_when_large(t, xs, ws):
    gain = 0.5 + 0.25j if any(np.any(abs(x) > 5.0) for x in xs) else 0.5
    return [gain * x for x in xs], _noise_action(t, xs, ws)


def _divides_where_large(t, xs, ws):
    # 1 / 0 warns where |x| > 5, and 1 / inf = 0 keeps the state finite
    zero = [np.where(abs(x) > 5.0, 0.0, 1.0) for x in xs]
    return [0.0 * (1.0 / (1.0 / z)) - x for x, z in zip(xs, zero)], _noise_action(t, xs, ws)


class Odd(Exception):
    """An exception whose __init__ takes other arguments than its args."""

    def __init__(self, a, b):
        super().__init__(f"odd {a} {b}")


class OddWarning(UserWarning):
    def __init__(self, a, b):
        super().__init__(f"odd {a} {b}")


def _raise_odd():
    raise Odd(1, 2)


def _local():
    return lambda: None


_LOCAL = _local()  # pickle cannot find it by name


def _where_large(act):
    """A decaying kernel that calls act() where a state component exceeds 5."""
    def kernel(t, xs, ws):
        if any(np.any(abs(x) > 5.0) for x in xs):
            act()
        return [-x for x in xs], _noise_action(t, xs, ws)
    return kernel


def _large_last(k, rng):
    """Paths 2 and 3 of 4, the worker's, start above 5."""
    return np.array([1.0, 10.0 if k >= 2 else 1.0])


@pytest.mark.parametrize("kernel,error,message", [
    (_refuses_large, ValueError, "this kernel takes no state above 5"),
    (_complex_when_large, TypeError, "a real x0 takes complex states; start from a complex x0"),
    # pytest's own filters make a warning an error, here in the worker
    (_divides_where_large, RuntimeWarning, "divide by zero encountered in divide"),
    # pickle rebuilds it by calling Odd("odd 1 2"), which takes two arguments
    (_where_large(_raise_odd), Odd, "odd 1 2"),
], ids=["raises", "complex", "warning_as_error", "init_takes_other_arguments"])
def test_an_exception_in_the_last_range_reaches_the_parent(two_cpus, forks, kernel, error,
                                                          message):
    model = ModelSpec(n=2, noise_dim=1, interpretation="ito", kernel=kernel)
    for threads in (1, 2):
        with pytest.raises(error) as info, np.errstate(divide="warn"):
            run_ensemble(model, _large_last, "euler_maruyama", 4, 7, (), T=0.1, h=0.01,
                         threads=threads)
        assert type(info.value) is error and str(info.value) == message
        _no_children()
    assert len(forks) == 1


@pytest.mark.parametrize("kernel,start,expected", [
    (_divides_where_large, lambda k, rng: np.array([10.0, 10.0]),
     (RuntimeWarning, "divide by zero encountered in divide")),
    (_divides_where_large, _large_last, (RuntimeWarning, "divide by zero encountered in divide")),
    (_where_large(lambda: warnings.warn(OddWarning(1, 2))), _large_last,
     (OddWarning, "odd 1 2")),
    (_where_large(lambda: warnings.warn(UserWarning(_LOCAL))), _large_last,
     (UserWarning, str(_LOCAL))),
], ids=["both_ranges", "last_range", "init_takes_other_arguments", "args_do_not_pickle"])
def test_warnings_read_as_in_one_process(two_cpus, forks, kernel, start, expected):
    """Under Python's default filters each warning shows once, whether both
    ranges warn or only the worker's, and whether it pickles as it is, by
    value (its __init__ takes other arguments) or only as its text (its
    args hold a local object)."""
    model = ModelSpec(n=2, noise_dim=1, interpretation="ito", kernel=kernel)
    shown = []
    for threads in (1, 2):
        with warnings.catch_warnings(record=True) as caught, np.errstate(divide="warn"):
            warnings.resetwarnings()
            run_ensemble(model, start, "euler_maruyama", 4, 7, (), T=0.1, h=0.01,
                         threads=threads)
        shown.append([(w.category, str(w.message), w.filename, w.lineno) for w in caught])
    assert shown[0] == shown[1]
    assert [(c, m) for c, m, _, _ in shown[0]] == [expected]
    assert len(forks) == 1
    _no_children()


_PRINTS = textwrap.dedent("""
    import os, sys
    import numpy as np
    from stochlab.integrate import ModelSpec, run_ensemble

    os.sched_getaffinity = lambda pid: {0, 1}  # two usable CPUs: 2 threads fork once


    def kernel(t, xs, ws):
        if t == 0.0 and np.any(abs(xs[1]) > 5.0):
            print("a large start")
        return [-x for x in xs], [0.3 * x * ws[0] for x in xs]


    print("before")
    run_ensemble(ModelSpec(n=2, noise_dim=1, interpretation="ito", kernel=kernel),
                 lambda k, rng: np.array([1.0, 10.0 if k >= 2 else 1.0]),
                 "euler_maruyama", 4, 7, (), T=0.1, h=0.01, threads=int(sys.argv[1]))
    print("after")
""")


def test_a_worker_prints_as_one_process_does():
    """With stdout a pipe and no PYTHONUNBUFFERED, the worker's print, made
    only in its range, reaches stdout, and what the parent printed before
    the fork is written once."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + env.get("PYTHONPATH", "").split(os.pathsep))
    outs = [subprocess.run([sys.executable, "-c", _PRINTS, threads], env=env, capture_output=True,
                           text=True, check=True).stdout for threads in ("1", "2")]
    assert outs == ["before\na large start\nafter\n"] * 2


@pytest.mark.parametrize("threads", [1, 2])
def test_an_ode_ensemble_draws_nothing(monkeypatch, two_cpus, forks, no_draws, threads):
    """An ll/rk4 ensemble, its one level in blocks of 8 steps, builds no
    stream and draws no normal value, here or in the worker, and steps the
    states recorded when ODE ensembles skipped the noise schedule."""
    monkeypatch.setattr(noise, "_BLOCK_VALUES", 8 * 6)
    _, states = run_ensemble(build_model("ll"), [0.6, 0.0, 0.8], "rk4", 6, 4,
                             [norm_squared_field()], T=0.5, h=0.01, return_states=True,
                             threads=threads)
    assert hashlib.sha256(states.tobytes()).hexdigest() == \
        "abb2e3060a3dea63556f347b339f6b41cef7870c845720c71852d0ffe296a8e8"
    assert len(forks) == threads - 1
    _no_children()


def test_a_state_buffer_that_cannot_be_mapped_exits_1_with_one_line(tmp_path, capsys,
                                                                    monkeypatch):
    """An mmap that fails with ENOMEM raises MemoryError naming its size, as
    numpy's own allocations do, so the CLI prints one line and writes no CSV."""
    def enomem(fileno, length):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")
    monkeypatch.setattr(integrate.mmap, "mmap", enomem)
    cfg = _write(tmp_path, seed=5, T=0.01, h=1e-3, n_paths=1.0e12, x0=[1.0, 0.0, 0.0],
                 scheme="euler_maruyama", functionals=["norm2"],
                 model={"name": "ell", "params": {"interpretation": "ito"}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "out of memory: Unable to map 48000000000000 bytes for the states of "
        "1000000000000 paths"]
    assert list(out.iterdir()) == []


def _dies_in_worker(parent):
    """A decaying kernel that kills its process where that is not parent;
    np.isfinite stops the fusing trace, so the test runs at every step."""
    def kernel(t, xs, ws):
        np.isfinite(xs[0])
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return [-x for x in xs], _noise_action(t, xs, ws)
    return kernel


def test_a_worker_killed_by_a_signal_is_named_by_its_paths_and_signal(two_cpus, forks):
    model = ModelSpec(n=2, noise_dim=1, interpretation="ito", kernel=_dies_in_worker(os.getpid()))
    with pytest.raises(ChildProcessError) as info:
        run_ensemble(model, [1.0, 1.0], "euler_maruyama", 4, 7, (), T=0.1, h=0.01, threads=2)
    assert str(info.value) == f"the worker stepping paths 2 to 3 was killed by signal " \
                              f"{int(signal.SIGKILL)}"
    assert len(forks) == 1
    _no_children()


def test_a_worker_that_exits_early_exits_1_with_one_line(tmp_path, capsys, monkeypatch,
                                                        two_cpus):
    parent, step_piece = os.getpid(), integrate._step_piece

    def exits_in_worker(*args):
        if os.getpid() != parent:
            os._exit(3)
        return step_piece(*args)
    monkeypatch.setattr(integrate, "_step_piece", exits_in_worker)
    cfg = _write(tmp_path, seed=5, T=0.1, h=1e-2, n_paths=4, x0=[1.0, 0.0, 0.0],
                 scheme="euler_maruyama", functionals=["norm2"],
                 model={"name": "ell", "params": {"interpretation": "ito"}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--threads", "2"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "worker failed: the worker stepping paths 2 to 3 exited with status 3"]
    assert list(out.iterdir()) == []
    _no_children()


def test_a_fork_that_raises_after_the_child_exists_leaves_no_worker(monkeypatch, two_cpus):
    """As os.fork does on Python 3.12 and later in a process of several
    threads, where a filter makes its DeprecationWarning an error."""
    fork = os.fork

    def raising():
        if fork():
            raise DeprecationWarning("use of fork() may lead to deadlocks in the child.")
        return 0
    monkeypatch.setattr(os, "fork", raising)
    with pytest.raises(DeprecationWarning, match="may lead to deadlocks"):
        run_ensemble(build_model("ell", interpretation="ito"), [1.0, 0.0, 0.0],
                     "euler_maruyama", 4, 3, (), T=0.05, h=0.01, threads=2)
    _no_children()
