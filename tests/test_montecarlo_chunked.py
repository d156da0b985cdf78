"""Chunked Monte-Carlo: deterministic seeding, chunk/monolithic equality."""

import numpy as np
import pytest

from repro.campaign import mc_estimate_from_values
from repro.model import (
    chunk_moments,
    chunk_seed,
    chunk_sizes,
    estimate_expected_time,
    estimate_from_moments,
    simulate_completion_times_chunk,
    simulate_completion_times_chunked,
)

ARGS = dict(lam=1 / 3600.0, T=4 * 3600.0, N=900.0, T_ov=120.0, T_r=60.0)


def _chunk_values(master, n_runs, chunk_runs):
    """What the campaign's ``mc_chunk`` tasks return, in chunk order."""
    return [
        {"chunk_index": i, **chunk_moments(
            simulate_completion_times_chunk(master, i, size, **ARGS)
        )}
        for i, size in enumerate(chunk_sizes(n_runs, chunk_runs))
    ]


class TestChunkPlan:
    def test_sizes_cover_n_runs(self):
        assert chunk_sizes(1000, 256) == [256, 256, 256, 232]
        assert chunk_sizes(512, 512) == [512]
        assert chunk_sizes(5, 8) == [5]

    def test_invalid(self):
        with pytest.raises(ValueError):
            chunk_sizes(0, 8)
        with pytest.raises(ValueError):
            chunk_sizes(8, 0)

    def test_chunk_seeds_distinct_and_stable(self):
        seeds = [chunk_seed(3, i) for i in range(16)]
        assert len(set(seeds)) == 16
        assert seeds == [chunk_seed(3, i) for i in range(16)]
        assert chunk_seed(3, 0) != chunk_seed(4, 0)


class TestChunkedEqualsMonolithic:
    def test_independent_chunks_concatenate_to_monolithic(self):
        """The satellite guarantee: computing each chunk independently
        (as a campaign worker would) and concatenating reproduces the
        single-call result exactly, for the same master seed."""
        master, n_runs, chunk_runs = 42, 700, 128
        monolithic = simulate_completion_times_chunked(
            master, n_runs=n_runs, chunk_runs=chunk_runs, **ARGS
        )
        parts = [
            simulate_completion_times_chunk(master, i, size, **ARGS)
            for i, size in enumerate(chunk_sizes(n_runs, chunk_runs))
        ]
        assert monolithic.shape == (n_runs,)
        assert np.array_equal(monolithic, np.concatenate(parts))

    def test_chunk_evaluation_order_irrelevant(self):
        master, n_runs, chunk_runs = 7, 512, 128
        sizes = chunk_sizes(n_runs, chunk_runs)
        forward = [
            simulate_completion_times_chunk(master, i, sizes[i], **ARGS)
            for i in range(len(sizes))
        ]
        backward = [
            simulate_completion_times_chunk(master, i, sizes[i], **ARGS)
            for i in reversed(range(len(sizes)))
        ]
        for i, arr in enumerate(reversed(backward)):
            assert np.array_equal(forward[i], arr)

    def test_different_chunks_differ(self):
        a = simulate_completion_times_chunk(0, 0, 64, **ARGS)
        b = simulate_completion_times_chunk(0, 1, 64, **ARGS)
        assert not np.array_equal(a, b)

    def test_different_master_seeds_differ(self):
        a = simulate_completion_times_chunk(0, 0, 64, **ARGS)
        b = simulate_completion_times_chunk(1, 0, 64, **ARGS)
        assert not np.array_equal(a, b)


class TestMoments:
    def test_moments_merge_matches_direct_stats(self):
        master, n_runs, chunk_runs = 11, 600, 150
        samples = simulate_completion_times_chunked(
            master, n_runs=n_runs, chunk_runs=chunk_runs, **ARGS
        )
        est = estimate_from_moments(_chunk_values(master, n_runs, chunk_runs))
        assert est.n_runs == n_runs
        assert est.mean == pytest.approx(samples.mean(), rel=1e-12)
        assert est.std_error == pytest.approx(
            samples.std(ddof=1) / np.sqrt(n_runs), rel=1e-9
        )

    def test_merge_is_exact_for_partitioned_chunks(self):
        master = 5
        sizes = chunk_sizes(384, 128)
        moments = [
            chunk_moments(
                simulate_completion_times_chunk(master, i, size, **ARGS)
            )
            for i, size in enumerate(sizes)
        ]
        merged = estimate_from_moments(moments)
        # the campaign merges values in whatever order workers return them
        again = mc_estimate_from_values(_chunk_values(master, 384, 128)[::-1])
        assert merged.mean == again.mean
        assert merged.std_error == again.std_error

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError):
            estimate_from_moments([])

    def test_single_sample_has_infinite_error(self):
        est = estimate_from_moments([{"n": 1, "sum": 2.0, "sumsq": 4.0}])
        assert est.mean == 2.0
        assert est.std_error == float("inf")

    def test_agrees_with_closed_form(self):
        from repro.model import expected_time_with_overhead

        est = mc_estimate_from_values(_chunk_values(3, 4000, 512))
        analytic = expected_time_with_overhead(
            ARGS["lam"], ARGS["T"], ARGS["N"], ARGS["T_ov"], ARGS["T_r"]
        )
        assert est.within(analytic)
        # and with the monolithic estimator, an independent sample
        mono = estimate_expected_time(np.random.default_rng(3), n_runs=4000, **ARGS)
        assert est.within(mono.mean, z=4.0)
