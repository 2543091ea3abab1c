"""The benchmark's entry points still exist and still give the same bytes.

``perfbench/`` looks the program up by name and pins its outputs by
hash, so a renamed function or a changed release breaks the benchmark
without failing any other test.  This runs one op of each workload, the
way ``perfbench/run.py`` does, without editing the harness.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import spans, workloads  # noqa: E402

# the first op's output hash at seed 1 (``sha256_op0`` in a run's record)
OP0_AT_SEED_1 = {
    "simulate-mid": "efcff7e09c4470579ba296f89c4e28926e317e22623702b1d25b3fdcd5ca8084",
    "calibration-desk": "09ea44c4465d16e4c8316f09d74e81f94d83b1a8d14c17d6be84abfc57c2b062",
}


@pytest.mark.parametrize("module, attr, name", spans.WRAPS)
def test_every_traced_name_resolves(module, attr, name):
    owner, leaf = spans._resolve(module, attr)
    assert callable(getattr(owner, leaf))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_op_passes_its_check_with_the_pinned_digest(tmp_path, name):
    w = workloads.WORKLOADS[name](1, tmp_path)
    w.setup()
    assert w.check(w.op(0)) == OP0_AT_SEED_1[name]
