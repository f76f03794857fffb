"""Tests for the sparse-index samplers and request generation."""

import hashlib

import numpy as np
import pytest

from repro.models.model_zoo import FACEBOOK, NCF, YOUTUBE, small_scale
from repro.workloads.distributions import UniformSampler, ZipfianSampler, make_sampler
from repro.workloads.requests import RequestGenerator


class TestUniformSampler:
    def test_range(self):
        sampler = UniformSampler(rows=100, seed=1)
        samples = sampler.sample(10_000)
        assert samples.min() >= 0
        assert samples.max() < 100

    def test_shape(self):
        assert UniformSampler(100).sample((4, 7)).shape == (4, 7)

    def test_dtype_int32(self):
        assert UniformSampler(100).sample(5).dtype == np.int32

    def test_reproducible(self):
        a = UniformSampler(1000, seed=5).sample(100)
        b = UniformSampler(1000, seed=5).sample(100)
        np.testing.assert_array_equal(a, b)

    def test_roughly_uniform(self):
        samples = UniformSampler(10, seed=2).sample(100_000)
        counts = np.bincount(samples, minlength=10)
        assert counts.min() > 0.8 * counts.mean()

    def test_invalid_rows(self):
        with pytest.raises(ValueError, match="rows"):
            UniformSampler(0)

    def test_rows_beyond_int32_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            UniformSampler(2**31 + 1)

    def test_largest_table_fits_int32(self):
        samples = UniformSampler(2**31, seed=1).sample(1000)
        assert samples.min() >= 0


class TestZipfianSampler:
    def test_range(self):
        sampler = ZipfianSampler(rows=1000, alpha=1.1, seed=1)
        samples = sampler.sample(10_000)
        assert samples.min() >= 0
        assert samples.max() < 1000

    def test_skew(self):
        """A Zipfian stream concentrates mass on few rows."""
        sampler = ZipfianSampler(rows=100_000, alpha=1.0, seed=3)
        samples = sampler.sample(50_000)
        _, counts = np.unique(samples, return_counts=True)
        top_share = np.sort(counts)[-100:].sum() / 50_000
        assert top_share > 0.3

    def test_more_skew_with_higher_alpha(self):
        def distinct(alpha):
            s = ZipfianSampler(rows=100_000, alpha=alpha, seed=3)
            return len(np.unique(s.sample(20_000)))

        assert distinct(1.5) < distinct(0.5)

    def test_alpha_below_one_supported(self):
        # NumPy's zipf requires alpha > 1; ours must not.
        samples = ZipfianSampler(rows=100, alpha=0.5, seed=1).sample(1000)
        assert samples.shape == (1000,)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            ZipfianSampler(100, alpha=0.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            ZipfianSampler(100, alpha=alpha)

    def test_rows_beyond_int32_rejected(self):
        # Checked before the table is built.
        with pytest.raises(ValueError, match="rows"):
            ZipfianSampler(2**31 + 1)

    def test_popular_rows_scattered(self):
        """The rank->row permutation must spread hot rows over the table."""
        sampler = ZipfianSampler(rows=10_000, alpha=1.2, seed=4)
        samples = sampler.sample(20_000)
        values, counts = np.unique(samples, return_counts=True)
        hottest = values[np.argsort(counts)[-20:]]
        assert hottest.std() > 1000  # not clustered at low ids


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


#: (rows, alpha, seed, n, sha256 of sample(n), of the CDF, of a following
#: sample((3, 5))).  The first row is the CPU-cache ablation's table.
ZIPF_PINS = [
    (2_000_000, 1.05, 3, 8000,
     "bc6247f1dff63e8011f63ae90c2fbc0b30994b7ab47809aac3d230a59adb095c",
     "8d21fd852032ec0f2bd205e448e7e4178b8db2b5dda8237001f1a216deef4367",
     "534cc6e3b448a795b86c6542d2acc7881dbe4e59cb9055a8e9cb5545d0b79aed"),
    (1000, 0.9, 0, 4096,
     "5e01e2d002a8fef97370607033bad7bf546f8e80e67a78374d4a63069871c16a",
     "e1f9ef8bb47f67a194d7418a68d9f47b6e0800dc8f3a7af2e0f00bdd88b9c3d5",
     "d5b4a9ec93e9db999070c2e7f2967daf5735499cd7af01158756d37d42ad0ab2"),
    (37, 2.5, 11, 4096,
     "9c0efc326dcda84db966798654069c3e30ebb41ed6fb2e6c7cf1b1544ad83022",
     "713224012c347f4e6a6829e887c3778f9913cee2e272badd049c5d2cb6531317",
     "200e4bb91ba5df066291716f257380111bda4aab07f1670b5f5c2ecbcefea263"),
]

#: (rows, seed, n, sha256 of sample(n), of a following sample((3, 5))).
UNIFORM_PINS = [
    (2_000_000, 3, 8000,
     "cca4b7e219627eae844aebe06f9d19c4ee38dbeb2f45b98f91af2ccbd3b016ba",
     "20cf52ace743a3aafe0d57247dac29a5ca1048bbf3f23ea344e1bbab2b5a7809"),
    (1000, 0, 4096,
     "56ddb66094b71707022ad4360a8766d6332efef6241d43bedc6dbb83f83841d3",
     "80d170fce1b24b8ec3817d17069fc5481f1b35e596872ce11e10617093d54c31"),
    (37, 11, 4096,
     "a15cd2d976db712278883a9a5f2cd37c18f336752f71052cd1b0b9ef966cfab0",
     "c2f4aacfb6d2d48267e1faae5467e29ce421936d983fa21f6a445070bd6fdbf5"),
]


class TestSamplerPins:
    """Sampler output is pinned bit for bit: any change to the draws, the
    CDF or the rank->row permutation fails here."""

    @pytest.mark.parametrize("rows, alpha, seed, n, samples, cdf, shaped", ZIPF_PINS,
                             ids=[f"{rows}-{alpha}-{seed}" for rows, alpha, seed, *_ in ZIPF_PINS])
    def test_zipfian(self, rows, alpha, seed, n, samples, cdf, shaped):
        sampler = ZipfianSampler(rows, alpha, seed)
        assert _digest(sampler.sample(n)) == samples
        assert _digest(sampler._cdf) == cdf
        second = sampler.sample((3, 5))
        assert second.dtype == np.int32
        assert _digest(second) == shaped

    @pytest.mark.parametrize("rows, seed, n, samples, shaped", UNIFORM_PINS,
                             ids=[f"{rows}-{seed}" for rows, seed, *_ in UNIFORM_PINS])
    def test_uniform(self, rows, seed, n, samples, shaped):
        sampler = UniformSampler(rows, seed)
        assert _digest(sampler.sample(n)) == samples
        assert _digest(sampler.sample((3, 5))) == shaped


class TestFactory:
    def test_uniform(self):
        assert isinstance(make_sampler("uniform", 10), UniformSampler)

    def test_zipfian(self):
        assert isinstance(make_sampler("zipfian", 10), ZipfianSampler)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_sampler("gaussian", 10)


class TestRequestGenerator:
    def test_batch_shapes_multi_hot(self):
        gen = RequestGenerator(small_scale(YOUTUBE, rows=1000))
        batch = gen.batch(16)
        assert len(batch.sparse) == 2
        assert all(idx.shape == (16, 50) for idx in batch.sparse)
        assert batch.dense.shape == (16, YOUTUBE.dense_features)

    def test_batch_shapes_one_hot(self):
        gen = RequestGenerator(small_scale(NCF, rows=1000))
        batch = gen.batch(8)
        assert all(idx.shape == (8,) for idx in batch.sparse)

    def test_batch_size_property(self):
        gen = RequestGenerator(small_scale(FACEBOOK, rows=1000))
        assert gen.batch(32).batch_size == 32

    def test_total_lookups(self):
        gen = RequestGenerator(small_scale(FACEBOOK, rows=1000))
        batch = gen.batch(4)
        assert batch.total_lookups == 4 * 8 * 25

    def test_indices_within_table(self):
        gen = RequestGenerator(small_scale(YOUTUBE, rows=77))
        batch = gen.batch(64)
        for idx in batch.sparse:
            assert idx.max() < 77

    def test_invalid_batch_size(self):
        gen = RequestGenerator(small_scale(NCF, rows=10))
        with pytest.raises(ValueError):
            gen.batch(0)

    def test_batches_iterator(self):
        gen = RequestGenerator(small_scale(NCF, rows=10))
        batches = list(gen.batches(4, count=3))
        assert len(batches) == 3

    def test_zipfian_distribution_supported(self):
        gen = RequestGenerator(small_scale(YOUTUBE, rows=1000), distribution="zipfian")
        batch = gen.batch(8)
        assert batch.sparse[0].shape == (8, 50)
