"""Direct-mode flat offsets of the rectangle programs (PRL, LDC, RDC).

``access_flat`` builds their offsets from boxes with strided ``arange``
broadcasts instead of flattening ``access_indices`` rows.  It must equal
``flatten_many(access_indices(v))`` exactly: int64, ascending, unique,
and empty for a non-useful valuation.
"""

import itertools

import numpy as np
import pytest

from repro.arraymodel.layout import flatten_many
from repro.core.debloat_test import DebloatTest
from repro.fuzzing import FuzzConfig
from repro.fuzzing.schedule import FuzzSchedule
from repro.workloads import get_program, program_names
from repro.workloads.base import Program

RECT = ("PRL2D", "PRL3D", "LDC2D", "LDC3D", "RDC2D", "RDC3D")
DIMS = {2: [(16, 16), (33, 40), (64, 57)],
        3: [(16, 16, 16), (24, 17, 33), (40, 40, 40)]}


def _reference(program, v, dims):
    idx = program.access_indices(v, dims)
    if idx.size == 0:
        return np.empty(0, dtype=np.int64)
    return flatten_many(idx, dims)


def _check(program, v, dims):
    got = program.access_flat(v, dims)
    want = _reference(program, v, dims)
    assert got.dtype == np.int64 and got.ndim == 1
    assert np.array_equal(got, want), (program.name, dims, v)
    assert (np.diff(got) > 0).all()
    return got


def _edge_values(windows):
    """Per-axis {lo - 1, lo, hi, hi + 1} around each window, combined."""
    for window in windows:
        axes = [(lo - 1, lo, hi, hi + 1) for lo, hi in window]
        yield from itertools.product(*axes)


def _cases():
    for name in RECT:
        ndim = get_program(name).ndim
        for dims in DIMS[ndim]:
            yield name, dims


@pytest.mark.parametrize("name,dims", list(_cases()))
class TestDirectOffsets:
    def test_random_valuations(self, name, dims):
        program = get_program(name)
        space = program.parameter_space(dims)
        rng = np.random.default_rng(7)
        useful = 0
        for _ in range(300):
            useful += _check(program, space.sample(rng), dims).size > 0
        assert useful > 0

    def test_window_and_band_edges(self, name, dims):
        program = get_program(name)
        if name.startswith("PRL"):
            windows = [program._valid_band(dims)]
        else:
            windows = program._windows(dims)
        useful = sum(_check(program, tuple(float(x) for x in v), dims).size
                     > 0 for v in _edge_values(windows))
        assert useful > 0

    def test_invalid_valuations_are_empty(self, name, dims):
        program = get_program(name)
        space = program.parameter_space(dims)
        inside = tuple(float(r.lo) for r in space.ranges)
        outside = [
            tuple(float(r.lo) - 1 for r in space.ranges),
            tuple(float(r.hi) + 1 for r in space.ranges),
            (inside[0] + 0.5,) + inside[1:],
        ]
        for v in outside:
            got = _check(program, v, dims)
            assert got.shape == (0,)


def test_no_program_overrides_access_flat():
    """``perfbench`` times direct-mode tests by wrapping the base class's
    ``access_flat``; an override in a subclass would escape the wrapper."""
    for name in program_names():
        cls = type(get_program(name))
        owners = [c for c in cls.__mro__ if "access_flat" in c.__dict__]
        assert owners == [Program], name


@pytest.mark.parametrize("name,dims", [("PRL3D", (32, 32, 32)),
                                       ("LDC2D", (64, 64)),
                                       ("CS", (32, 32))])
def test_base_class_patch_sees_every_direct_call(monkeypatch, name, dims):
    calls = []
    original = Program.access_flat

    def counting(self, v, dims):
        calls.append(tuple(v))
        return original(self, v, dims)

    monkeypatch.setattr(Program, "access_flat", counting)
    program = get_program(name)
    test = DebloatTest(program, dims)
    result = FuzzSchedule(test, program.parameter_space(dims),
                          FuzzConfig(rng_seed=3, max_iter=120),
                          test.n_flat).run()
    assert len(calls) == test.executions == result.iterations
    assert calls == [s.v for s in result.seeds]
