"""A replicate's run b in its forked worker: the same bytes as inline,
the worker's errors, deaths and log records reach the caller, no worker
outlives ``run_replicate``, and the BLAS thread count comes back."""

import logging
import os
import signal
import time

import pytest

from dasim import pipeline, topdown
from dasim.cli import main
from dasim.config import RunConfig
from dasim.errors import InfeasibleConstraints, ParameterError

needs_fork = pytest.mark.skipif(not pipeline._can_fork(),
                                reason="run b runs inline without fork or a second CPU")


def _replicate_arrays(rep):
    hh = rep.households
    return [rep.nms_a.values, rep.nms_b.values, rep.post_a.counts, rep.post_b.counts,
            rep.swapped.counts, hh.block_rows, hh.sizes, hh.adults, hh.cells, hh.gq_counts]


def test_forked_run_b_matches_inline(monkeypatch, tmp_path):
    world = pipeline.build_world(RunConfig(replicates=2))
    real, pids = pipeline._run_b, tmp_path / "pids"

    def run_b(world, seed):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(world, seed)

    monkeypatch.setattr(pipeline, "_run_b", run_b)
    forks = pipeline._can_fork()
    forked = [pipeline.run_replicate(world, r) for r in range(2)]
    workers = {int(p) for p in pids.read_text().split()}
    pids.unlink()
    monkeypatch.delattr(os, "fork")
    inline = [pipeline.run_replicate(world, r) for r in range(2)]

    assert workers == {os.getpid()} if not forks else (
        len(workers) == 2 and os.getpid() not in workers)
    assert pids.read_text().split() == [str(os.getpid())] * 2
    for got, want in zip(forked, inline):
        assert (got.seed_a, got.seed_b, got.swap_stats) == (want.seed_a, want.seed_b,
                                                          want.swap_stats)
        assert (got.nms_b.nodes, got.nms_b.seed) == (want.nms_b.nodes, want.nms_b.seed)
        assert (got.post_b.kind, got.post_b.run_seed) == (want.post_b.kind, want.post_b.run_seed)
        for a, b in zip(_replicate_arrays(got), _replicate_arrays(want)):
            assert a.dtype == b.dtype and not a.flags.writeable
            assert a.tobytes() == b.tobytes()


def _fail_at_seed(monkeypatch, seed, exc):
    """TopDown raises ``exc(message)`` for the run measured with ``seed``;
    the message names the process that ran it."""
    parent, real = os.getpid(), pipeline.topdown_postprocess

    def postprocess(nms, *args, **kwargs):
        if nms.seed == seed:
            where = "parent" if os.getpid() == parent else "worker"
            raise exc(f"no fit for seed {seed} in the {where}")
        return real(nms, *args, **kwargs)

    monkeypatch.setattr(pipeline, "topdown_postprocess", postprocess)


@needs_fork
@pytest.mark.parametrize("exc, code", [(InfeasibleConstraints, 3), (ParameterError, 1)])
def test_a_worker_error_keeps_its_type_and_message(tmp_path, monkeypatch, capsys, exc, code):
    # the default seed is 0, so replicate 0's run b is measured with seed 1
    _fail_at_seed(monkeypatch, 1, exc)
    assert main(["simulate", "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == "error: no fit for seed 1 in the worker\n"


@needs_fork
def test_a_failure_in_run_a_kills_the_worker(monkeypatch):
    real = pipeline._run_b

    def slow_run_b(world, seed):
        time.sleep(60)
        return real(world, seed)

    monkeypatch.setattr(pipeline, "_run_b", slow_run_b)
    _fail_at_seed(monkeypatch, 0, InfeasibleConstraints)
    start = time.monotonic()
    with pytest.raises(InfeasibleConstraints, match="seed 0 in the parent"):
        pipeline.run_replicate(pipeline.build_world(RunConfig()), 0)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_a_worker_killed_by_a_signal_is_exit_two(tmp_path, monkeypatch, capsys):
    parent = os.getpid()

    def run_b(world, seed):
        assert os.getpid() != parent, "run b ran outside its worker"
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(pipeline, "_run_b", run_b)
    assert main(["simulate", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: the worker for run b of replicate 0 was killed by signal {int(signal.SIGKILL)}\n")


def test_run_replicate_restores_the_blas_thread_count(monkeypatch):
    blas = pipeline._openblas()
    if blas is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    get, put = blas
    during, real = [], pipeline.swap_release

    def swap_release(*args):
        during.append(get())
        return real(*args)

    monkeypatch.setattr(pipeline, "swap_release", swap_release)
    original = get()
    put(2)
    try:
        pipeline.run_replicate(pipeline.build_world(RunConfig()), 0)
        assert get() == 2
    finally:
        put(original)
    assert during == [1 if pipeline._can_fork() else 2]


class _Collect(logging.Handler):
    def __init__(self, records):
        super().__init__()
        self.records = records

    def emit(self, record):
        self.records.append(record)


@pytest.fixture
def topdown_records():
    """Every record the ``dasim.topdown`` logger handles in this process."""
    records, logger = [], logging.getLogger("dasim.topdown")
    handler = _Collect(records)
    logger.addHandler(handler)
    yield records
    logger.removeHandler(handler)


def test_forked_run_b_logs_like_inline(monkeypatch, topdown_records):
    monkeypatch.setattr(topdown, "_CAP", 1)  # every solve hits the cap and warns
    world = pipeline.build_world(RunConfig())
    pipeline.run_replicate(world, 0)
    forked = [(r.name, r.levelno, r.getMessage()) for r in topdown_records]
    pids = {r.process for r in topdown_records}
    topdown_records.clear()
    monkeypatch.delattr(os, "fork")
    pipeline.run_replicate(world, 0)
    inline = [(r.name, r.levelno, r.getMessage()) for r in topdown_records]

    assert forked and forked == inline
    assert {r.process for r in topdown_records} == {os.getpid()}
    if pipeline._can_fork():
        assert len(pids) == 2 and os.getpid() in pids


def test_a_worker_warning_with_unpicklable_args_arrives_formatted(monkeypatch, topdown_records):
    class Unpicklable:
        def __reduce__(self):
            raise TypeError("not picklable")

        def __str__(self):
            return "an unpicklable value"

    real = pipeline._run_b

    def run_b(world, seed):
        logging.getLogger("dasim.topdown").warning("run b saw %s", Unpicklable())
        return real(world, seed)

    monkeypatch.setattr(pipeline, "_run_b", run_b)
    pipeline.run_replicate(pipeline.build_world(RunConfig()), 0)
    assert [r.getMessage() for r in topdown_records] == ["run b saw an unpicklable value"]


@needs_fork
def test_a_worker_warning_before_its_error_arrives(tmp_path, monkeypatch, capsys,
                                                   topdown_records):
    real = pipeline._run_b

    def run_b(world, seed):
        logging.getLogger("dasim.topdown").warning("run b for seed %d starts", seed)
        return real(world, seed)

    monkeypatch.setattr(pipeline, "_run_b", run_b)
    _fail_at_seed(monkeypatch, 1, InfeasibleConstraints)
    assert main(["simulate", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.endswith("error: no fit for seed 1 in the worker\n")
    (record,) = topdown_records
    assert record.getMessage() == "run b for seed 1 starts"
    assert record.process != os.getpid()
