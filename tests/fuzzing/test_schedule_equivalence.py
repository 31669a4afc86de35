"""The array-shaped Algorithm 1 loop replays the scalar reference exactly.

For random Table II programs, seeds and schedule settings, the
:class:`FuzzSchedule` campaign must equal the one of
``tests/oracles/fuzz_schedule.py`` field for field, float for float:
every seed (valuation, useful flag, new-offset count, iteration), the
observed offsets, the iteration count, the stop reason, the final
epsilon, both cluster sets and the final bit-generator state.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fuzzing import FuzzConfig
from repro.fuzzing.schedule import FuzzSchedule
from repro.workloads import get_program
from repro.workloads.registry import MICRO_BENCHMARKS, SYNTHETIC_PROGRAMS
from tests.oracles.fuzz_schedule import OracleSchedule

TABLE2 = MICRO_BENCHMARKS + SYNTHETIC_PROGRAMS


def _bits(values) -> bytes:
    """Exact float bits (so ``-0.0`` and ``0.0`` differ)."""
    return np.asarray(values, dtype=np.float64).tobytes()


@st.composite
def dist_interval(draw):
    lo = draw(st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0, 7.0]))
    return lo, lo + draw(st.sampled_from([0.0, 1.0, 3.5, 8.0, 20.0]))


@st.composite
def campaigns(draw):
    name = draw(st.sampled_from(TABLE2))
    program = get_program(name)
    side = st.integers(16, 40 if program.ndim == 2 else 24)
    dims = tuple(draw(side) for _ in range(program.ndim))
    config = FuzzConfig(
        rng_seed=draw(st.integers(0, 2 ** 32 - 1)),
        plain_ee=draw(st.booleans()),
        enable_restart=draw(st.booleans()),
        u_reps=draw(st.integers(0, 8)),
        n_reps=draw(st.integers(0, 5)),
        max_iter=draw(st.integers(1, 150)),
        stop_iter=draw(st.integers(5, 150)),
        n_initial=draw(st.integers(1, 10)),
        restart=draw(st.integers(3, 60)),
        decay_iter=draw(st.integers(3, 50)),
        decay=draw(st.sampled_from([0.5, 0.8, 0.97, 1.0])),
        eps=draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])),
        u_dist=draw(dist_interval()),
        n_dist=draw(dist_interval()),
        diameter=draw(st.sampled_from([0.5, 2.0, 5.0, 20.0])),
    )
    return program, dims, config


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(campaigns())
def test_schedule_equals_scalar_reference(campaign):
    program, dims, config = campaign
    space = program.parameter_space(dims)
    n_flat = int(np.prod(dims))

    def test(v):
        return program.access_flat(v, dims)

    schedule = FuzzSchedule(test, space, config, n_flat)
    result = schedule.run()
    oracle = OracleSchedule(test, space, config, n_flat)
    expected = oracle.run()

    assert [_bits(s.v) for s in result.seeds] \
        == [_bits(s.v) for s in expected.seeds]
    assert [(s.useful, s.n_new_offsets, s.iteration) for s in result.seeds] \
        == [(s.useful, s.n_new_offsets, s.iteration)
            for s in expected.seeds]
    assert result.flat_indices.dtype == expected.flat_indices.dtype
    assert np.array_equal(result.flat_indices, expected.flat_indices)
    assert result.iterations == expected.iterations
    assert result.stop_reason == expected.stop_reason
    assert _bits(result.final_eps) == _bits(expected.final_eps)
    assert (_bits(schedule.cl_u.centers), schedule.cl_u.sizes.tolist()) \
        == (_bits([c.center for c in oracle.cl_u.clusters]),
            [c.size for c in oracle.cl_u.clusters])
    assert (_bits(schedule.cl_n.centers), schedule.cl_n.sizes.tolist()) \
        == (_bits([c.center for c in oracle.cl_n.clusters]),
            [c.size for c in oracle.cl_n.clusters])
    assert schedule.rng.bit_generator.state \
        == oracle.rng.bit_generator.state
