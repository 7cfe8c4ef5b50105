"""Noise path sampling, dyadic refinement, and parameter process tests."""
import copy
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stochlab.noise import (
    DOMAIN_BASE,
    DOMAIN_ENSEMBLE,
    DOMAIN_REFINE,
    NoisePath,
    ParameterProcess,
    _REFINE_CHUNK,
    _brownian_stack,
    _fresh_streams,
    _grid_steps,
    _keyed,
    _normal_rows,
    _philox,
    _refine_stack,
    iterated_log_eta,
    philox_keys,
    refine,
    sample_brownian,
    stream,
)


def _seed_sequence_stream(seed, domain, index):
    """The generator stream() built before its keys were derived in numpy."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(domain, index))
    return np.random.Generator(np.random.Philox(ss))


def test_stream_is_deterministic_and_domain_separated():
    a = stream(42, DOMAIN_BASE, 0).normal(size=8)
    b = stream(42, DOMAIN_BASE, 0).normal(size=8)
    assert np.array_equal(a, b)
    c = stream(42, DOMAIN_REFINE, 0).normal(size=8)
    d = stream(42, DOMAIN_BASE, 1).normal(size=8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, stream(43, DOMAIN_BASE, 0).normal(size=8))


@given(seed=st.integers(0, 2**128 - 1), domain=st.integers(0, 3),
       index=st.integers(0, 2**32 - 1))
@example(seed=0, domain=0, index=0)
@example(seed=2**32 - 1, domain=1, index=2**32 - 1)
@example(seed=2**32, domain=2, index=1)
@example(seed=2**64 - 1, domain=3, index=7)
@example(seed=2**64, domain=0, index=2**32 - 1)
@example(seed=2**128 - 1, domain=3, index=0)
def test_philox_keys_equal_seed_sequence_bit_for_bit(seed, domain, index):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(domain, index))
    key = philox_keys(seed, domain, index)
    assert key.dtype == np.uint64
    assert np.array_equal(key, ss.generate_state(2, np.uint64))
    # broadcast over an array of seeds and an array of indices alike
    assert np.array_equal(philox_keys([seed, 5], domain, index)[0], key)
    assert np.array_equal(philox_keys(seed, domain, [1, index])[1], key)
    assert np.array_equal(stream(seed, domain, index).normal(size=16),
                          _seed_sequence_stream(seed, domain, index).normal(size=16))


@given(key=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
       sizes=st.lists(st.integers(0, 9), min_size=2, max_size=5))
@example(key=(0, 0), sizes=[1, 3, 5])
@example(key=(2**64 - 1, 2**64 - 1), sizes=[4, 0, 7])
@example(key=(0, 2**64 - 1), sizes=[2, 2])
def test_keyed_generator_equals_philox_of_the_key_draw_for_draw(key, sizes):
    key = np.array(key, dtype=np.uint64)
    ours, numpys = _keyed(key), np.random.Generator(np.random.Philox(key=key))
    fresh = next(_fresh_streams([key]))
    for size in sizes:  # successive draws cross the 4-word Philox buffer
        a, b, c = np.empty(size), np.empty(size), np.empty(size)
        ours.standard_normal(out=a)
        numpys.standard_normal(out=b)
        fresh.standard_normal(out=c)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        assert np.array_equal(c.view(np.uint64), b.view(np.uint64))


@given(key=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
       blocks=st.lists(st.integers(0, 9), min_size=1, max_size=5), sd=st.floats(0.01, 10.0))
@example(key=(0, 0), blocks=[1, 3, 5], sd=1.0)
@example(key=(2**64 - 1, 2**64 - 1), blocks=[4, 0, 7], sd=0.5)
def test_a_bare_philox_stream_drawn_in_blocks_equals_the_keyed_philox_drawn_whole(
        key, blocks, sd):
    """A persistent stream is a bare Philox; _normal_rows draws it through a
    Generator made at each call, and its blocks continue one another."""
    key = np.array(key, dtype=np.uint64)
    bits = _philox(key)
    assert isinstance(bits, np.random.Philox)
    drawn = np.concatenate([_normal_rows([bits], np.empty((1, b, 2)), sd)[0] for b in blocks])
    whole = np.random.Generator(np.random.Philox(key=key)).normal(0.0, sd, (sum(blocks), 2))
    assert drawn.tobytes() == whole.tobytes()


def test_building_a_stream_leaves_the_draws_of_another_unchanged():
    keys = philox_keys(9, DOMAIN_ENSEMBLE, [0, 1])
    a = _philox(keys[0])
    first = _normal_rows([a], np.empty((1, 5)), 1.0)[0].copy()
    b = _philox(keys[1])
    _normal_rows([b], np.empty((1, 7)), 1.0)
    later = _normal_rows([a], np.empty((1, 6)), 1.0)[0]
    whole = np.random.Generator(np.random.Philox(key=keys[0])).normal(0.0, 1.0, 11)
    assert np.concatenate([first, later]).tobytes() == whole.tobytes()


def test_streams_built_at_once_in_two_threads_keep_their_own_keys(monkeypatch):
    """Each build sets the key of one shared source, which Philox reads in
    its constructor.  Here both threads have set their keys before either
    Philox is built, so a source shared between threads would hand one of
    them the other's key."""
    barrier = threading.Barrier(2, timeout=10)
    philox = np.random.Philox

    def built_after_both_keys_are_set(*args, **kwargs):
        barrier.wait()
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", built_after_both_keys_are_set)
    drawn = {}

    def draw(index):
        drawn[index] = stream(42, DOMAIN_ENSEMBLE, index).normal(size=8)

    threads = [threading.Thread(target=draw, args=(i,)) for i in (3, 4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    monkeypatch.undo()
    assert not any(t.is_alive() for t in threads)
    assert sorted(drawn) == [3, 4]
    for index, values in drawn.items():
        assert np.array_equal(values, _seed_sequence_stream(42, DOMAIN_ENSEMBLE, index).normal(size=8))


def test_a_copied_stream_draws_what_the_original_draws():
    gen = stream(5, DOMAIN_ENSEMBLE, 2)
    gen.normal(size=3)
    twin, bits = copy.deepcopy(gen), copy.copy(gen.bit_generator)
    expected = gen.normal(size=6)
    assert twin.normal(size=6).tobytes() == expected.tobytes()
    assert np.random.Generator(bits).normal(size=6).tobytes() == expected.tobytes()


def test_philox_keys_of_one_stream_are_a_pair_of_words():
    key = philox_keys(7, DOMAIN_ENSEMBLE, 5)
    assert key.shape == (2,) and key.dtype == np.uint64
    assert np.array_equal(key, philox_keys(np.uint64(7), DOMAIN_ENSEMBLE, np.int32(5)))
    assert np.array_equal(key, philox_keys([7], DOMAIN_ENSEMBLE, 5)[0])


def test_philox_keys_vectorize_over_uint64_seeds():
    seeds = np.array([0, 1, 2**32, 2**63 + 5, 2**64 - 1], dtype=np.uint64)
    keys = philox_keys(seeds, 1, np.arange(5))
    assert keys.shape == (5, 2)
    for p, s in enumerate(seeds):
        ss = np.random.SeedSequence(entropy=int(s), spawn_key=(1, p))
        assert np.array_equal(keys[p], ss.generate_state(2, np.uint64))


@pytest.mark.parametrize("seed,domain,index", [
    (2**128, 0, 0), (2**200, 1, 3), (-1, 0, 0), (0, 0, 2**32), (0, 0, -1),
    (0, 2**32, 0), ([1, 2**128], 0, 0), (0, 0, np.array([0, 2**32])),
])
def test_philox_keys_reject_values_outside_the_ported_layout(seed, domain, index):
    with pytest.raises(ValueError):
        philox_keys(seed, domain, index)


def test_normal_rows_scale_like_normal_even_at_negative_zero():
    """normal(0, sd) returns 0.0 + sd * z, which has no -0.0; a standard
    normal draw can be -0.0, so the scaled rows must not keep its sign."""
    class Fixed:
        def standard_normal(self, out):
            out[...] = [-0.0, -1.5, 2.0]

    z = np.array([-0.0, -1.5, 2.0])
    rows = _normal_rows([Fixed(), Fixed()], np.empty((2, 3)), 0.3)
    expected = 0.0 + 0.3 * z
    assert np.array_equal(rows, [expected, expected])
    assert np.array_equal(np.signbit(rows), [np.signbit(expected)] * 2)


def test_normal_rows_take_one_stream_per_row_from_a_shared_iterator():
    keys = philox_keys(np.arange(5), DOMAIN_REFINE, 1)
    whole = _normal_rows(_fresh_streams(keys), np.empty((5, 4, 2)), 0.5)
    streams = _fresh_streams(keys)
    split = np.concatenate([_normal_rows(streams, np.empty((2, 4, 2)), 0.5),
                            _normal_rows(streams, np.empty((3, 4, 2)), 0.5)])
    assert np.array_equal(whole, split)
    assert next(streams, None) is None


@pytest.mark.parametrize("T, h", [(1e300, 1e-300), (float("inf"), 1.0)])
def test_a_grid_without_a_finite_step_count_is_rejected(T, h):
    with pytest.raises(ValueError, match="finite T/h"):
        sample_brownian(1, T=T, h=h)


def test_a_grid_that_numpy_cannot_size_is_rejected_before_any_array():
    """N + 1 float64 times must fit in np.iinfo(np.intp).max bytes: 2**59
    steps pass, 2**60 do not.  Neither grid is made."""
    assert np.iinfo(np.intp).max // 8 == 2**60 - 1
    assert _grid_steps(1.0, 2.0**-59) == 2**59
    for T, h in [(1.0, 2.0**-60), (1.0, 1e-20)]:
        with pytest.raises(ValueError, match="more than a float64 array can hold"):
            _grid_steps(T, h)


def test_sample_brownian_grid_and_shapes():
    p = sample_brownian(7, T=1.0, h=2.0**-6, dims=2)
    assert p.n_steps == 64
    assert p.dims == 2
    assert p.level == 0
    assert p.h == 2.0**-6
    # the grid is the literal arange product, bitwise
    assert np.array_equal(p.times, np.arange(65) * 2.0**-6)
    w = p.cumulative()
    assert w.shape == (65, 2)
    assert np.all(w[0] == 0.0)
    assert np.allclose(w[-1], np.sum(p.increments, axis=0))


@pytest.mark.parametrize("seed,T,h,dims", [(7, 1.0, 2.0**-6, 2), (2**64 + 3, 1.0, 1e-3, 1)])
def test_sample_brownian_equals_the_old_normal_draw_and_its_stack_column(seed, T, h, dims):
    p = sample_brownian(seed, T, h, dims)
    old = _seed_sequence_stream(seed, DOMAIN_BASE, 0).normal(
        0.0, np.sqrt(h), size=(p.n_steps, dims))
    assert np.array_equal(p.increments, old)
    stack = _brownian_stack(philox_keys([11, seed, 0], DOMAIN_BASE, 0), p.n_steps, h, dims)
    assert stack.shape == (p.n_steps, 3, dims)
    assert np.array_equal(stack[:, 1], old)


def test_sample_brownian_nondyadic_step_count():
    p = sample_brownian(7, T=1.0, h=1e-3)
    assert p.n_steps == 1000


def test_sample_brownian_deterministic():
    p = sample_brownian(123, T=2.0, h=0.25, dims=3)
    q = sample_brownian(123, T=2.0, h=0.25, dims=3)
    assert np.array_equal(p.increments, q.increments)
    r = sample_brownian(124, T=2.0, h=0.25, dims=3)
    assert not np.array_equal(p.increments, r.increments)


def test_increment_variance_scales_with_h():
    p = sample_brownian(99, T=64.0, h=2.0**-4, dims=1)
    std = np.std(p.increments)
    assert 0.9 * 2.0**-2 < std < 1.1 * 2.0**-2


def test_noise_path_validates_shapes_and_is_frozen():
    times = np.arange(5) * 0.5
    with pytest.raises(ValueError):
        NoisePath(times=times, increments=np.zeros((3, 1)), seed=0)
    p = NoisePath(times=times, increments=np.zeros((4, 1)), seed=0)
    with pytest.raises(ValueError):
        p.times[0] = 1.0


def test_refine_halves_grid_bitwise():
    p = sample_brownian(5, T=1.0, h=2.0**-3)
    f = refine(p)
    assert f.level == 1
    assert f.n_steps == 2 * p.n_steps
    assert np.array_equal(f.times, np.arange(17) * 2.0**-4)


def _level_streams(seeds, level):
    """The one-shot streams from which the paths of seeds draw refinement level `level`."""
    return _fresh_streams(philox_keys(seeds, DOMAIN_REFINE, level))


def test_stacked_refine_equals_per_path_refine_bit_for_bit():
    seeds = [3, 2**64 + 9, 17, 0]
    paths = [sample_brownian(s, T=1.0, h=2.0**-4, dims=2) for s in seeds]
    stack = np.stack([p.increments for p in paths], axis=1)
    for level in range(3):
        fine = _refine_stack(stack, paths[0].h, _level_streams(seeds, level + 1))
        paths = [refine(p) for p in paths]
        assert fine.shape == (len(paths[0].increments), len(seeds), 2)
        for j, p in enumerate(paths):
            assert p.level == level + 1
            assert np.array_equal(fine[:, j], p.increments)
        stack = fine


@pytest.mark.parametrize("dims, per_chunk", [(2, 2), (3, 1)])
def test_chunked_refine_equals_per_path_refine_bit_for_bit(dims, per_chunk):
    # 2**14 steps: a chunk holds per_chunk paths, and 5 paths leave a short last chunk
    seeds = [3, 2**64 + 9, 17, 0, 8]
    paths = [sample_brownian(s, T=1.0, h=2.0**-14, dims=dims) for s in seeds]
    assert _REFINE_CHUNK // (2**14 * dims) == per_chunk
    fine = _refine_stack(np.stack([p.increments for p in paths], axis=1), paths[0].h,
                         _level_streams(seeds, 1))
    for j, p in enumerate(paths):
        assert np.array_equal(fine[:, j], refine(p).increments)


@pytest.mark.parametrize("split", [1, 7, 15])
def test_refine_in_two_time_halves_on_persistent_streams_equals_refining_whole(split):
    """Each path's persistent stream continues where its first half stopped,
    also across path chunks: 2**14 steps of 2 dimensions refine 2 paths a
    chunk, so a list of streams restarted at path 0 in each chunk would
    fail, and a short last chunk is left."""
    seeds = [3, 2**64 + 9, 17, 0, 8]
    parent = np.stack([sample_brownian(s, T=1.0, h=2.0**-14, dims=2).increments
                       for s in seeds], axis=1)
    whole = _refine_stack(parent, 2.0**-14, _level_streams(seeds, 1))
    gens = [_philox(key) for key in philox_keys(seeds, DOMAIN_REFINE, 1)]
    cut = split * 1024
    halves = np.concatenate([_refine_stack(parent[:cut], 2.0**-14, gens),
                             _refine_stack(parent[cut:], 2.0**-14, gens)])
    assert halves.tobytes() == whole.tobytes()


def test_refine_of_a_path_without_noise_dimensions_is_empty():
    p = NoisePath(times=np.arange(4) * 0.5, increments=np.zeros((3, 0)), seed=0)
    assert refine(p).increments.shape == (6, 0)


def test_refine_holds_nothing_full_size_but_its_parent_and_output():
    """A level's whole midpoint draw and bridge temporaries beside the output
    peaked near three times the output's bytes."""
    seeds = np.arange(1000)
    parent = _brownian_stack(philox_keys(seeds, DOMAIN_BASE, 0), 2**10, 2.0**-10, 1)
    tracemalloc.start()
    try:
        fine = _refine_stack(parent, 2.0**-10, _level_streams(seeds, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fine.shape == (2048, 1000, 1)
    assert peak < fine.nbytes + 4 * 2**20


def test_refine_is_deterministic():
    p = sample_brownian(5, T=1.0, h=2.0**-3, dims=2)
    assert np.array_equal(refine(p).increments, refine(p).increments)


def test_refine_sums_close_within_one_ulp_and_mostly_exact():
    p = sample_brownian(21, T=4.0, h=2.0**-6, dims=2)
    f = refine(p)
    sums = f.increments[0::2] + f.increments[1::2]
    diff = np.abs(sums - p.increments)
    # pair sums land back on the parent increment exactly on most steps and
    # never further than one rounding granule of the summands
    tol = np.spacing(np.abs(f.increments[0::2]) + np.abs(f.increments[1::2]))
    assert np.all(diff <= tol)
    assert np.mean(sums == p.increments) > 0.5


def test_refine_preserves_terminal_value():
    p = sample_brownian(33, T=8.0, h=2.0**-5)
    f = refine(refine(p))
    drift = abs(float(np.sum(f.increments) - np.sum(p.increments)))
    assert drift < 1e-12


def test_refine_midpoint_noise_has_bridge_scale():
    # W_mid - (W_l + W_r)/2 must be N(0, h/4): the refinement cannot shrink
    # or inflate the bridge law without biasing coupled convergence studies
    p = sample_brownian(17, T=32.0, h=2.0**-4)
    f = refine(p)
    xi = f.increments[0::2, 0] - 0.5 * p.increments[:, 0]
    target = np.sqrt(p.h) / 2.0
    assert 0.9 < np.std(xi) / target < 1.1
    # and it is uncorrelated with the parent increments
    corr = np.corrcoef(xi, p.increments[:, 0])[0, 1]
    assert abs(corr) < 0.1


def test_refined_quadratic_variation_is_stable_over_levels():
    p = sample_brownian(3, T=16.0, h=2.0**-3)
    qv = [float(np.sum(p.increments**2))]
    for _ in range(3):
        p = refine(p)
        qv.append(float(np.sum(p.increments**2)))
    assert all(0.7 * 16.0 < v < 1.3 * 16.0 for v in qv)


def test_parameter_process_validation():
    t = np.arange(4) * 1.0
    with pytest.raises(ValueError):
        ParameterProcess(times=t, values=np.ones(3))
    p = ParameterProcess(times=t, values=np.ones((4, 2)))
    assert p.dim == 2


def test_iterated_log_eta_clamps_before_t_min():
    p = sample_brownian(4, T=10.0, h=0.5)
    eta = iterated_log_eta(p, t_min=3.0)
    early = p.times <= 3.0
    assert np.all(eta.values[early] == 1.0)
    assert np.all(eta.values > 0.0)
    # spot-check the formula at one late grid point
    k = int(np.argmax(p.times > 3.0))
    t = p.times[k]
    w = p.cumulative()[k, 0]
    expected = np.exp(w / np.sqrt(2.0 * t * np.log(np.log(t))))
    assert eta.values[k] == pytest.approx(expected, rel=1e-12)


def test_iterated_log_eta_validates_inputs():
    p = sample_brownian(4, T=10.0, h=0.5, dims=2)
    with pytest.raises(ValueError):
        iterated_log_eta(p)
    q = sample_brownian(4, T=10.0, h=0.5)
    with pytest.raises(ValueError):
        iterated_log_eta(q, t_min=2.0)
