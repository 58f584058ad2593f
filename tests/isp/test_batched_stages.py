"""Golden scalar-vs-batched equivalence for every ISP stage (Table 3).

Each ISP stage has one method table, one batched dispatcher and a per-image
entry point that is that dispatcher at N=1.  The hard guarantee: for every
method of all six stages — and for the composed pipeline, the RAW path and the
resize — the batched ``(N, ...)`` output is *bitwise* equal to running the
per-image entry point on each batch member.  A second family of tests pins the
kernels to the legacy per-image formulations they replaced (``ndimage``'s
rank filter, ``np.histogram``/``np.interp``) so silent numeric drift in a
reimplementation cannot hide behind the shared-kernel equivalence.
"""

import numpy as np
import pytest
from scipy import ndimage

from repro.isp.compression import COMPRESSION_METHODS, compress, compress_batch
from repro.isp.demosaic import DEMOSAIC_METHODS, demosaic, demosaic_batch
from repro.isp.denoise import DENOISE_METHODS, denoise, denoise_batch
from repro.isp.filters import median_filter_3x3
from repro.isp.gamut import GAMUT_METHODS, gamut_map, gamut_map_batch
from repro.isp.pipeline import (
    BASELINE_CONFIG,
    ISP_STAGES,
    OPTION1_CONFIG,
    OPTION2_CONFIG,
    ISPConfig,
    ISPPipeline,
    stage_variants,
)
from repro.isp.raw import (
    BAYER_PATTERNS,
    RawBatch,
    bayer_mosaic,
    bayer_mosaic_batch,
    raw_to_training_array,
    raw_to_training_array_batch,
)
from repro.isp.resize import resize_bilinear, resize_bilinear_batch
from repro.isp.tone import TONE_METHODS, tone_transform, tone_transform_batch
from repro.isp.white_balance import WHITE_BALANCE_METHODS, white_balance, white_balance_batch


def make_batch(n=5, h=16, w=16, seed=0):
    return np.random.default_rng(seed).random((n, h, w, 3))


def make_raw_batch(n=5, h=16, w=16, seed=0, pattern="RGGB"):
    return RawBatch(bayer_mosaic_batch(make_batch(n, h, w, seed), pattern), pattern=pattern)


def assert_batch_equals_scalar(batch_out, scalar_fn, items):
    """Exact (bitwise) equality of the batched kernel vs the per-item loop."""
    for index, item in enumerate(items):
        np.testing.assert_array_equal(batch_out[index], scalar_fn(item))


# Per ISP stage: its one method table, its batched dispatcher, its per-image
# entry point, and the seed of its test batch.
STAGES = {
    "demosaic": (DEMOSAIC_METHODS, demosaic_batch, demosaic, 1),
    "denoise": (DENOISE_METHODS, denoise_batch, denoise, 2),
    "white_balance": (WHITE_BALANCE_METHODS, white_balance_batch, white_balance, 3),
    "gamut": (GAMUT_METHODS, gamut_map_batch, gamut_map, 4),
    "tone": (TONE_METHODS, tone_transform_batch, tone_transform, 5),
    "compression": (COMPRESSION_METHODS, compress_batch, compress, 6),
}
STAGE_METHODS = [(stage, method) for stage, (table, *_) in STAGES.items()
                 for method in sorted(table)]


def stage_batch(stage, n=5):
    seed = STAGES[stage][3]
    if stage == "demosaic":
        return make_raw_batch(n=n, seed=seed)
    if stage == "compression":
        return make_batch(n=n, h=20, w=12, seed=seed)  # non-multiple-of-8 planes
    return make_batch(n=n, seed=seed)


class TestStageEquivalence:
    """Every method of every Table 3 stage: batched == per-image, bit for bit."""

    @pytest.mark.parametrize("stage,method", STAGE_METHODS)
    def test_batch_equals_per_image(self, stage, method):
        _, dispatch, per_image, _ = STAGES[stage]
        batch = stage_batch(stage)
        out = dispatch(batch, method)
        assert len(out) == 5
        assert_batch_equals_scalar(out, lambda item: per_image(item, method), list(batch))

    def test_config_accepts_exactly_each_table(self):
        """ISPConfig validates against the tables the pipeline runs, and the
        Fig. 3 grid (with the baseline) covers every method of every table."""
        candidates = {name for table, *_ in STAGES.values() for name in table} | {"no_such"}
        configs = [BASELINE_CONFIG, *stage_variants()]
        assert set(STAGES) == set(ISP_STAGES)
        for stage, (table, *_) in STAGES.items():
            accepted = set()
            for name in candidates:
                try:
                    ISPConfig(**{stage: name})
                except ValueError:
                    continue
                accepted.add(name)
            assert accepted == set(table)
            with pytest.raises(ValueError) as unknown:
                ISPConfig(**{stage: "no_such"})
            assert f"options: {sorted(table)}" in str(unknown.value)
            assert {getattr(config, stage) for config in configs} == set(table)
        raw = make_raw_batch(n=2, seed=18)
        for config in configs:
            out = ISPPipeline(config).process_batch(raw)
            assert out.shape == (2, 16, 16, 3)
            assert out.min() >= 0.0 and out.max() <= 1.0


class TestPipelineEquivalence:
    @pytest.mark.parametrize("config", [BASELINE_CONFIG, OPTION1_CONFIG, OPTION2_CONFIG],
                             ids=lambda c: c.name)
    def test_table3_columns(self, config):
        raw = make_raw_batch(seed=7)
        pipeline = ISPPipeline(config)
        out = pipeline.process_batch(raw)
        assert_batch_equals_scalar(out, pipeline.process, list(raw))

    @pytest.mark.parametrize("config", stage_variants(), ids=lambda c: c.name)
    def test_all_stage_variants(self, config):
        """The full Fig. 3 substitution grid, end to end."""
        raw = make_raw_batch(seed=8)
        pipeline = ISPPipeline(config)
        out = pipeline.process_batch(raw)
        assert_batch_equals_scalar(out, pipeline.process, list(raw))

    @pytest.mark.parametrize("pattern", sorted(BAYER_PATTERNS))
    def test_raw_training_path(self, pattern):
        raw = make_raw_batch(seed=9, pattern=pattern)
        out = raw_to_training_array_batch(raw)
        assert_batch_equals_scalar(out, raw_to_training_array, list(raw))

    @pytest.mark.parametrize("pattern", sorted(BAYER_PATTERNS))
    def test_bayer_mosaic(self, pattern):
        batch = make_batch(seed=10)
        out = bayer_mosaic_batch(batch, pattern)
        assert_batch_equals_scalar(out, lambda im: bayer_mosaic(im, pattern), batch)

    @pytest.mark.parametrize("size", [(8, 8), (16, 16), (33, 17), (48, 48)])
    def test_resize(self, size):
        batch = make_batch(n=4, h=24, w=20, seed=11)
        out = resize_bilinear_batch(batch, size)
        assert out.shape == (4, size[0], size[1], 3)
        assert_batch_equals_scalar(out, lambda im: resize_bilinear(im, size), batch)

    def test_resize_same_size_returns_copy(self):
        batch = make_batch(n=2, h=8, w=8)
        out = resize_bilinear_batch(batch, (8, 8))
        np.testing.assert_array_equal(out, batch)
        out[0, 0, 0, 0] = -1.0
        assert batch[0, 0, 0, 0] != -1.0


class TestLegacyFormulations:
    """Pin reimplemented kernels to the library functions they replaced."""

    def test_median_network_matches_ndimage_rank_filter(self):
        rng = np.random.default_rng(12)
        planes = rng.random((6, 23, 17))
        expected = np.stack([ndimage.median_filter(p, size=3, mode="mirror") for p in planes])
        np.testing.assert_array_equal(median_filter_3x3(planes), expected)

    def test_median_network_with_ties(self):
        rng = np.random.default_rng(13)
        planes = np.round(rng.random((4, 16, 16)) * 4) / 4  # many duplicates
        expected = np.stack([ndimage.median_filter(p, size=3, mode="mirror") for p in planes])
        np.testing.assert_array_equal(median_filter_3x3(planes), expected)

    def test_rowwise_histogram_matches_np_histogram(self):
        from repro.isp.tone import _rowwise_histogram

        rng = np.random.default_rng(14)
        values = rng.random((5, 400))
        values[0, :5] = [0.0, 1.0, 0.5, 1.0 - 1e-12, 1e-12]  # bin-edge cases
        edges = np.linspace(0.0, 1.0, 65)
        ours = _rowwise_histogram(values, edges)
        for row, counts in zip(values, ours):
            expected, _ = np.histogram(row, bins=64, range=(0.0, 1.0))
            np.testing.assert_array_equal(counts, expected)

    def test_rowwise_interp_matches_np_interp(self):
        from repro.isp.tone import _rowwise_interp

        rng = np.random.default_rng(15)
        edges = np.linspace(0.0, 1.0, 65)
        xp = edges[:-1]
        fp = np.sort(rng.random((3, 64)), axis=1)
        x = rng.random((3, 500))
        x[0, :4] = [0.0, xp[3], xp[-1], 1.0]  # exact hits and out-of-range
        ours = _rowwise_interp(x, xp, fp)
        for row_x, row_fp, row_out in zip(x, fp, ours):
            np.testing.assert_array_equal(row_out, np.interp(row_x, xp, row_fp))

    def test_resize_reassociation_is_intentional(self):
        """The shared resize uses a separable rows-then-columns lerp; the
        deleted per-image implementations blended the four corners columns-
        first.  The reassociation is algebraically the same bilinear weights
        (agreement to ~1 ulp) but NOT bitwise — an intentional drift, noted
        in CHANGES.md, that contributes (with the train/test seed fix) to the
        regenerated benchmark realizations."""
        batch = make_batch(n=3, h=24, w=20, seed=17)
        size = (16, 16)
        h, w = batch.shape[1:3]
        row_pos = np.linspace(0, h - 1, size[0])
        col_pos = np.linspace(0, w - 1, size[1])
        row_lo = np.floor(row_pos).astype(int)
        col_lo = np.floor(col_pos).astype(int)
        row_hi = np.minimum(row_lo + 1, h - 1)
        col_hi = np.minimum(col_lo + 1, w - 1)
        row_frac = (row_pos - row_lo)[:, None, None]
        col_frac = (col_pos - col_lo)[None, :, None]
        legacy = np.stack([
            (image[row_lo][:, col_lo] * (1 - col_frac) + image[row_lo][:, col_hi] * col_frac)
            * (1 - row_frac)
            + (image[row_hi][:, col_lo] * (1 - col_frac) + image[row_hi][:, col_hi] * col_frac)
            * row_frac
            for image in batch
        ])
        np.testing.assert_allclose(resize_bilinear_batch(batch, size), legacy,
                                   rtol=0.0, atol=1e-12)

    def test_equalize_matches_legacy_np_interp_formulation(self):
        """The full equalize kernel against the seed's np.histogram/np.interp code."""
        from repro.isp.tone import srgb_gamma, tone_equalize_batch

        rng = np.random.default_rng(16)
        image = rng.random((16, 16, 3)) * 0.4

        encoded = srgb_gamma(image)
        luminance = encoded.mean(axis=-1)
        hist, bin_edges = np.histogram(luminance, bins=64, range=(0.0, 1.0))
        cdf = np.cumsum(hist).astype(np.float64)
        cdf /= cdf[-1]
        equalized_lum = np.interp(luminance, bin_edges[:-1], cdf)
        ratio = equalized_lum / np.maximum(luminance, 1e-6)
        legacy = np.clip(encoded * ratio[..., None], 0.0, 1.0)

        np.testing.assert_array_equal(tone_equalize_batch(image[None])[0], legacy)


class TestBatchValidation:
    def test_raw_batch_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            RawBatch(np.zeros((4, 4)))

    def test_raw_batch_rejects_odd_dims(self):
        with pytest.raises(ValueError):
            RawBatch(np.zeros((2, 5, 4)))

    def test_raw_batch_round_trip_to_images(self):
        raw = make_raw_batch(n=3)
        assert len(raw) == 3
        single = raw[1]
        np.testing.assert_array_equal(single.mosaic, raw.mosaics[1])
        np.testing.assert_array_equal(single.as_batch().mosaics[0], raw.mosaics[1])

    @pytest.mark.parametrize("dispatch", [denoise_batch, white_balance_batch, gamut_map_batch,
                                          tone_transform_batch, compress_batch])
    def test_image_stage_batches_reject_single_images(self, dispatch):
        with pytest.raises(ValueError):
            dispatch(np.zeros((8, 8, 3)))

    @pytest.mark.parametrize("stage", sorted(STAGES))
    def test_unknown_method_same_error_from_both_entry_points(self, stage):
        table, dispatch, per_image, _ = STAGES[stage]
        batch = stage_batch(stage, n=2)
        with pytest.raises(ValueError, match="no_such_method") as batched:
            dispatch(batch, "no_such_method")
        with pytest.raises(ValueError) as single:
            per_image(list(batch)[0], "no_such_method")
        assert str(single.value) == str(batched.value)
        assert str(sorted(table)) in str(batched.value)

    def test_channel_masks_consistent_with_raw_image(self):
        raw = make_raw_batch(n=2, pattern="GBRG")
        for channel in "RGB":
            np.testing.assert_array_equal(raw.channel_mask(channel),
                                          raw[0].channel_mask(channel))
