import multiprocessing
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from dcinv import core
from dcinv.core import (
    PIPELINE_PADDING,
    BoxScaler,
    Normalization,
    SampleSet,
    WeightedEdf,
    WeightVector,
    as_box,
    fit_box,
    grid_points,
    ordered_map,
)
from dcinv.edf import wedf_eval


def test_fit_box_padding():
    # width 0.6, PIPELINE_PADDING (1e-3) of it on each side, with the same roundings
    box = fit_box(np.array([[0.2], [0.8]]))
    pad = PIPELINE_PADDING * (0.8 - 0.2)
    assert box.lower[0] == 0.2 - pad and box.upper[0] == 0.8 + pad
    assert np.allclose([box.lower[0], box.upper[0]], [0.1994, 0.8006])


def test_fit_box_2d_componentwise():
    box = fit_box(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(box.lower, [-1e-3, -1e-3])
    assert np.allclose(box.upper, [1.001, 1.001])


def test_fit_box_empty_rejected():
    with pytest.raises(ValueError):
        fit_box(np.empty((0, 1)))


def test_fit_box_zero_width_dimension_widened():
    with pytest.warns(UserWarning, match="zero-width"):
        box = fit_box(np.array([[1.0, 0.2], [1.0, 0.8]]))
    assert box.upper[0] - box.lower[0] == pytest.approx(1e-9 * (1 + 2 * PIPELINE_PADDING))
    assert box.upper[1] == 0.8 + PIPELINE_PADDING * (0.8 - 0.2)


def test_scale_identity_box():
    box = BoxScaler([0.0], [1.0])
    assert box.scale(np.array([[0.5]]))[0, 0] == 0.5


def test_scale_midpoint():
    box = BoxScaler([0.4], [0.6])
    assert box.scale(np.array([[0.5]]))[0, 0] == pytest.approx(0.5)


def test_scale_2d_parameter_box():
    box = BoxScaler([1.9, 0.5], [2.1, 1.5])
    out = box.scale(np.array([[2.0, 1.0]]))
    assert np.allclose(out, [[0.5, 0.5]])


def test_scale_unscale_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = rng.integers(1, 4)
        lo = rng.normal(size=d)
        hi = lo + rng.uniform(0.1, 5.0, size=d)
        box = BoxScaler(lo, hi)
        pts = rng.uniform(lo, hi, size=(20, d))
        back = box.unscale(box.scale(pts))
        assert np.max(np.abs(back - pts)) < 1e-12


def test_scale_to_unit_maps_inside():
    samples = SampleSet(np.array([[1.95, 0.7], [2.05, 1.3]]))
    box = fit_box(samples)
    scaled = box.scale(samples)
    assert np.all(scaled >= 0.0) and np.all(scaled <= 1.0)


def test_as_box_rejects_anything_but_rows_of_bounds():
    for bad in ([[0.5]], [[[0.0, 1.0]]], [0.0, 1.0, 2.0]):
        with pytest.raises(ValueError, match="rows of"):
            as_box(bad)


def test_degenerate_box_rejected():
    with pytest.raises(ValueError):
        BoxScaler([0.0, 1.0], [1.0, 1.0])


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        SampleSet(np.zeros((2, 2, 2)))
    ss = SampleSet([1.0, 2.0, 3.0])
    assert ss.dim == 1 and ss.n == 3


def test_sample_set_immutable_and_ordered():
    pts = np.array([[3.0], [1.0], [2.0]])
    ss = SampleSet(pts)
    with pytest.raises(ValueError):
        ss.points[0, 0] = 9.0
    assert ss.points[0, 0] == 3.0  # order preserved, index stable


def test_weight_vector_normalization():
    WeightVector(np.array([0.5, 1.5]))  # mean one
    WeightVector(np.array([0.25, 0.75]), Normalization.SUM_ONE)
    with pytest.raises(ValueError):
        WeightVector(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        WeightVector(np.array([-0.1, 2.1]))


def test_weighted_edf_shape_checks():
    samples = SampleSet([0.2, 0.6])
    with pytest.raises(ValueError):
        WeightedEdf(samples, WeightVector(np.ones(3)))
    wedf = WeightedEdf.plain(samples)
    assert wedf_eval(wedf, [1.0]) == 1.0


def reference_grid_points(axes):
    """The meshgrid-ravel-stack that ``grid_points`` replaced in five places."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@pytest.mark.parametrize("lengths", [(5,), (1,), (4, 3), (1, 6), (3, 1, 2), (2, 4, 5)])
def test_grid_points_bit_equal_to_meshgrid_stack(lengths):
    rng = np.random.default_rng(len(lengths) * 10 + lengths[0])
    axes = [rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300) for n in lengths]
    got = grid_points(axes)
    ref = reference_grid_points(axes)
    assert got.shape == (int(np.prod(lengths)), len(lengths))
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


# ordered_map forks its workers; where the platform cannot fork, tasks run in process
needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="worker processes are forked")


def square(x):
    return x * x


def worker_pid(_):
    return os.getpid()


@needs_fork
def test_ordered_map_asks_for_no_more_workers_than_tasks():
    # worker k runs tasks k, k + w, ...: the pids show how many workers ran
    parent = os.getpid()
    pids = list(ordered_map(worker_pid, range(3), 64))
    assert len(set(pids)) == 3 and parent not in pids
    pids = list(ordered_map(worker_pid, range(5), 2))
    assert pids[0::2] == [pids[0]] * 3 and pids[1::2] == [pids[1]] * 2
    assert len({parent, *pids}) == 3
    assert list(ordered_map(worker_pid, [5], 64)) == [parent]  # one task runs in process
    assert list(ordered_map(worker_pid, range(4), 1)) == [parent] * 4
    assert list(ordered_map(square, [], 64)) == []
    assert multiprocessing.active_children() == []


RUNTIME_MARK = "as imported"


def runtime_mark(_):
    return RUNTIME_MARK


@needs_fork
def test_ordered_map_forks_its_workers(monkeypatch):
    # a forked worker sees what the parent set after import; a spawned one would not
    monkeypatch.setattr(sys.modules[__name__], "RUNTIME_MARK", "set at run time")
    assert list(ordered_map(runtime_mark, range(4), 2)) == ["set at run time"] * 4


def big_result(args):
    """Mark that task ``i`` started, then return a result larger than a pipe buffers."""
    directory, i = args
    open(os.path.join(directory, str(i)), "w").close()
    return str(i) * 1_000_000


@needs_fork
@pytest.mark.parametrize("workers", [2, 3])
def test_ordered_map_runs_only_a_few_tasks_ahead_of_the_reader(tmp_path, workers):
    # a worker blocks in its send until the reader takes its result, so it
    # starts at most two tasks that the reader has not taken
    results = ordered_map(big_result, [(str(tmp_path), i) for i in range(40)], workers)
    assert next(results) == "0" * 1_000_000
    time.sleep(0.5)  # time for the workers to run ahead, if they could
    assert len(os.listdir(tmp_path)) <= 1 + 2 * workers
    assert [r[0] for r in results] == [str(i)[0] for i in range(1, 40)]
    assert len(os.listdir(tmp_path)) == 40
    assert multiprocessing.active_children() == []


def raise_on_three(x):
    if x == 3:
        raise ValueError(f"payload {x} refused")
    return x


def exit_in_worker(parent_pid):
    if os.getpid() == parent_pid:  # never end the test process itself
        raise AssertionError("the task ran in the parent process")
    os._exit(1)


def test_ordered_map_raises_a_worker_exception_as_itself():
    with pytest.raises(ValueError, match="payload 3 refused") as info:
        list(ordered_map(raise_on_three, range(10), 2))
    assert type(info.value) is ValueError
    assert "in raise_on_three" in str(info.value.__cause__)  # the worker's traceback
    assert multiprocessing.active_children() == []


@needs_fork
def test_ordered_map_reports_a_dead_worker():
    with pytest.raises(BrokenProcessPool):
        list(ordered_map(exit_in_worker, [os.getpid()] * 4, 2))
    assert multiprocessing.active_children() == []


def test_ordered_map_closed_early_leaves_no_worker():
    results = ordered_map(square, range(40), 2)
    assert next(results) == 0
    results.close()
    assert multiprocessing.active_children() == []


def test_cpu_count_is_the_affinity_set():
    if hasattr(os, "sched_getaffinity"):
        assert core.cpu_count() == len(os.sched_getaffinity(0))
    assert core.cpu_count() >= 1
