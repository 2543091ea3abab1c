"""A replicate's run b in its forked worker: the same bytes as inline,
each run's files written by the process that computed it, the worker
sends back only its error, if any, and its log records, which reach the
caller as its deaths do, a failed run or write leaves no manifest, no
worker outlives ``run_replicate``, and the BLAS thread count comes
back."""

import logging
import os
import signal
import time

import pytest

from dasim import pipeline, topdown
from dasim.artifacts import write_histogram_csv, write_nmf_csv
from dasim.cli import main
from dasim.config import RunConfig
from dasim.errors import InfeasibleConstraints, ParameterError

needs_fork = pytest.mark.skipif(not pipeline._can_fork(),
                                reason="run b runs inline without fork or a second CPU")


def _discard(run, nms, post):
    """An emit that writes nothing."""


def _swap_arrays(swap):
    hh, _, swapped = swap
    return [swapped.counts, hh.block_rows, hh.sizes, hh.adults, hh.cells, hh.gq_counts]


def test_forked_run_b_matches_inline(monkeypatch, tmp_path):
    world = pipeline.build_world(RunConfig(replicates=2))
    real, pids = pipeline._run, tmp_path / "pids"

    def log_pid(what):
        with open(pids, "a") as fh:
            fh.write(f"{what} {os.getpid()}\n")

    def hooked(world, run, seed, emit):
        if run == "b":
            log_pid("run_b")
        return real(world, run, seed, emit)

    def writer(out):
        out.mkdir()

        def emit(run, nms, post):
            log_pid(f"emit_{run}")
            write_nmf_csv(nms, out / f"nmf_{nms.seed}.csv")
            write_histogram_csv(post, out / f"post_{nms.seed}.csv")

        return out, emit

    def pids_by_step():
        lines = [line.split() for line in pids.read_text().splitlines()]
        pids.unlink()
        return {step: [int(pid) for s, pid in lines if s == step]
                for step in ("run_b", "emit_a", "emit_b")}

    monkeypatch.setattr(pipeline, "_run", hooked)
    forks = pipeline._can_fork()
    forked_dir, emit = writer(tmp_path / "forked")
    forked = [pipeline.run_replicate(world, r, emit) for r in range(2)]
    forked_pids = pids_by_step()
    monkeypatch.delattr(os, "fork")
    inline_dir, emit = writer(tmp_path / "inline")
    inline = [pipeline.run_replicate(world, r, emit) for r in range(2)]

    parent = os.getpid()
    workers = forked_pids["run_b"]
    assert set(workers) == {parent} if not forks else (
        len(set(workers)) == 2 and parent not in workers)
    # each run's files are written by the process that computed the run
    assert forked_pids["emit_b"] == workers
    assert forked_pids["emit_a"] == [parent] * 2
    assert pids_by_step() == {step: [parent] * 2 for step in ("run_b", "emit_a", "emit_b")}
    for got, want in zip(forked, inline):
        assert got[1] == want[1]  # the swap's statistics
        assert (got[2].kind, got[2].run_seed) == (want[2].kind, want[2].run_seed)
        for a, b in zip(_swap_arrays(got), _swap_arrays(want)):
            assert a.dtype == b.dtype and not a.flags.writeable
            assert a.tobytes() == b.tobytes()
    names = sorted(p.name for p in forked_dir.iterdir())
    assert names == sorted(p.name for p in inline_dir.iterdir())
    assert names == sorted(f"{kind}_{seed}.csv" for kind in ("nmf", "post") for seed in range(4))
    for name in names:
        assert (forked_dir / name).read_bytes() == (inline_dir / name).read_bytes()


@needs_fork
def test_the_worker_sends_back_only_its_outcome(monkeypatch):
    loaded, real = [], pipeline.pickle.load

    def load(pipe):
        loaded.append(real(pipe))
        return loaded[-1]

    monkeypatch.setattr(pipeline.pickle, "load", load)
    pipeline.run_replicate(pipeline.build_world(RunConfig()), 0, _discard)
    # no error and no log record; nothing of run b's measurements or release
    assert loaded == [(None, [])]


def test_simulate_prints_each_replicate_s_seeds_and_swap(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "world: 24 blocks, 1206 persons, seed 0, 1 replicate(s)\n"
        "replicate 0: seeds (0, 1), swapped 2/463 households (11 unpaired)\n"
        f"wrote 11 files to {out}\n")


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


def _assert_no_manifest(out, capsys):
    """``simulate`` left no manifest in ``out``, so ``report`` refuses it."""
    assert not (out / "manifest.json").exists()
    assert main(["report", "--out", str(out)]) == 2
    assert "manifest.json" in capsys.readouterr().err


# run b's files are written in the worker, run a's here
@pytest.mark.parametrize("name", ["nmf_r000_b.csv", "nmf_r000_a.csv"])
def test_a_failed_write_in_either_process_is_exit_two(tmp_path, capsys, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert main(["simulate", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out / name) in err
    _assert_no_manifest(out, capsys)


@pytest.mark.parametrize("seed, where", [(1, "worker"), (0, "parent")])
def test_a_failed_topdown_in_either_run_is_exit_three(tmp_path, monkeypatch, capsys, seed,
                                                      where):
    _fail_at_seed(monkeypatch, seed, InfeasibleConstraints)
    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out)]) == 3
    where = where if pipeline._can_fork() else "parent"
    assert capsys.readouterr().err == f"error: no fit for seed {seed} in the {where}\n"
    _assert_no_manifest(out, capsys)


@needs_fork
def test_a_failure_in_run_a_kills_the_worker(monkeypatch):
    real = pipeline._run

    def slow_run(world, run, seed, emit):
        if run == "b":
            time.sleep(60)
        return real(world, run, seed, emit)

    monkeypatch.setattr(pipeline, "_run", slow_run)
    _fail_at_seed(monkeypatch, 0, InfeasibleConstraints)
    start = time.monotonic()
    with pytest.raises(InfeasibleConstraints, match="seed 0 in the parent"):
        pipeline.run_replicate(pipeline.build_world(RunConfig()), 0, _discard)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_a_worker_killed_by_a_signal_is_exit_two(tmp_path, monkeypatch, capsys):
    parent, real = os.getpid(), pipeline._run

    def hooked(world, run, seed, emit):
        if run == "b":
            assert os.getpid() != parent, "run b ran outside its worker"
            os.kill(os.getpid(), signal.SIGKILL)
        return real(world, run, seed, emit)

    monkeypatch.setattr(pipeline, "_run", hooked)
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
        pipeline.run_replicate(pipeline.build_world(RunConfig()), 0, _discard)
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
    pipeline.run_replicate(world, 0, _discard)
    forked = [(r.name, r.levelno, r.getMessage()) for r in topdown_records]
    pids = {r.process for r in topdown_records}
    topdown_records.clear()
    monkeypatch.delattr(os, "fork")
    pipeline.run_replicate(world, 0, _discard)
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

    real = pipeline._run

    def hooked(world, run, seed, emit):
        if run == "b":
            logging.getLogger("dasim.topdown").warning("run b saw %s", Unpicklable())
        return real(world, run, seed, emit)

    monkeypatch.setattr(pipeline, "_run", hooked)
    pipeline.run_replicate(pipeline.build_world(RunConfig()), 0, _discard)
    assert [r.getMessage() for r in topdown_records] == ["run b saw an unpicklable value"]


@needs_fork
def test_a_worker_warning_before_its_error_arrives(tmp_path, monkeypatch, capsys,
                                                   topdown_records):
    real = pipeline._run

    def hooked(world, run, seed, emit):
        if run == "b":
            logging.getLogger("dasim.topdown").warning("run b for seed %d starts", seed)
        return real(world, run, seed, emit)

    monkeypatch.setattr(pipeline, "_run", hooked)
    _fail_at_seed(monkeypatch, 1, InfeasibleConstraints)
    assert main(["simulate", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.endswith("error: no fit for seed 1 in the worker\n")
    (record,) = topdown_records
    assert record.getMessage() == "run b for seed 1 starts"
    assert record.process != os.getpid()
