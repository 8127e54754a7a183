import numpy as np
import pytest

import scalar_beams
from svamsim import beams, harness
from svamsim.arrays import RegionOfInterest, manifold_matrix, ula_manifold
from svamsim.beams import (
    BeamSpec,
    beam_gain,
    build_hierarchical_codebook,
    design_beamformer,
)


def passband_power(beamformer, lo, hi, central_fraction=1.0, points=2001):
    width = hi - lo
    margin = 0.5 * (1.0 - central_fraction) * width
    us = np.linspace(lo + margin, hi - margin, points)
    w = beamformer.weights
    return np.abs(w.conj() @ manifold_matrix(len(w), us)) ** 2


class TestBeamSpec:
    def test_passband_clipping(self):
        spec = BeamSpec(direction=0.9, beamwidth=0.5)
        assert spec.passband() == (0.65, 1.0)
        assert spec.ideal_gain == pytest.approx(2.0 / 0.35)

    def test_unclipped_ideal_gain(self):
        assert BeamSpec(0.5, 0.5).ideal_gain == pytest.approx(4.0)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            BeamSpec(0.0, 0.0)
        with pytest.raises(ValueError):
            BeamSpec(0.0, 2.5)
        with pytest.raises(ValueError):
            BeamSpec(1.9, 0.5)  # entirely outside [-1, 1)


class TestDesignBeamformer:
    def test_single_tap(self):
        bf = design_beamformer(BeamSpec(0.3, 0.5), 1)
        np.testing.assert_allclose(bf.weights, [1.0])
        assert bf.method == "single-tap"

    def test_unit_norm_across_specs(self):
        for direction, bw, m in [
            (0.5, 1.0, 61),
            (0.25, 0.125, 45),
            (-0.7, 0.3, 16),
            (0.0, 2.0, 45),
            (0.9, 0.5, 33),
        ]:
            bf = design_beamformer(BeamSpec(direction, bw), m)
            np.testing.assert_allclose(np.linalg.norm(bf.weights), 1.0, atol=1e-12)

    def test_prototype_linear_phase_symmetry(self):
        for direction, bw, m in [(0.5, 0.5, 61), (0.2, 0.25, 40), (-0.3, 0.8, 21)]:
            bf = design_beamformer(BeamSpec(direction, bw), m)
            center = 0.5 * (bf.passband[0] + bf.passband[1])
            proto = bf.weights * np.exp(-1j * np.pi * center * np.arange(m))
            assert np.max(np.abs(proto.imag)) < 1e-10
            assert np.max(np.abs(proto.real - proto.real[::-1])) < 1e-10

    def test_mean_passband_gain_near_ideal(self):
        spec = BeamSpec(0.5, 0.5)
        bf = design_beamformer(spec, 61)
        gain = passband_power(bf, *spec.passband(), central_fraction=0.8).mean()
        assert abs(10 * np.log10(gain / spec.ideal_gain)) < 1.0

    def test_halving_beamwidth_adds_three_db(self):
        specs = [BeamSpec(0.0, bw) for bw in (1.0, 0.5, 0.25)]
        means = []
        for spec in specs:
            bf = design_beamformer(spec, 61)
            means.append(
                passband_power(bf, *spec.passband(), central_fraction=0.8).mean()
            )
        for wide, narrow in zip(means, means[1:]):
            step_db = 10 * np.log10(narrow / wide)
            assert abs(step_db - 3.01) < 1.0

    def test_stopband_rejection(self):
        spec = BeamSpec(0.0, 0.5)
        bf = design_beamformer(spec, 61)
        edge = 0.25 + beams._TRANSITION_FRACTION * 0.5
        us = np.concatenate([np.linspace(-1, -edge, 800), np.linspace(edge, 1, 800)])
        worst = np.max(np.abs(bf.weights.conj() @ manifold_matrix(61, us)) ** 2)
        assert worst < 0.05 * spec.ideal_gain

    def test_full_space_beam_is_allpass(self):
        bf = design_beamformer(BeamSpec(0.0, 2.0), 45)
        assert bf.method == "allpass"
        us = np.linspace(-1, 0.9999, 1500)
        gains = np.abs(bf.weights.conj() @ manifold_matrix(45, us)) ** 2
        gains_db = 10 * np.log10(gains)
        assert np.max(np.abs(gains_db)) < 1.0

    def test_matched_beam_gain_sqrt_m(self):
        m, u0 = 16, 0.3
        matched = ula_manifold(m, u0) / np.sqrt(m)
        assert beam_gain(matched, u0) == pytest.approx(np.sqrt(m))
        np.testing.assert_allclose(beam_gain(np.array([1.0 + 0j]), 0.7), 1.0)

    def test_stacked_gains_equal_lone_vdot_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for m in (1, 3, 15, 16, 61, 64):
            w = rng.standard_normal((40, m)) + 1j * rng.standard_normal((40, m))
            us = rng.uniform(-1, 1, 40)
            got = beam_gain(w, us)
            assert got.shape == (40,)
            for z, row, u in zip(got.tolist(), w, us):
                assert abs(z) ** 2 == abs(np.vdot(row, ula_manifold(m, u))) ** 2
                assert z == beam_gain(row, float(u))

    def test_sub_resolution_width_floors_at_aperture_limit(self):
        bf = design_beamformer(BeamSpec(0.5, 1.0 / 256), 61)
        lo, hi = bf.passband
        assert hi - lo == pytest.approx(2.0 / 61)
        # the floored beam keeps concentrating power on its center
        center_gain = np.abs(beam_gain(bf, 0.5)) ** 2
        assert 10 * np.log10(center_gain) > 12.0

    def test_design_is_cached_and_read_only(self):
        a = design_beamformer(BeamSpec(0.5, 0.5), 31)
        b = design_beamformer(BeamSpec(0.5, 0.5), 31)
        assert a.weights is b.weights
        with pytest.raises(ValueError):
            a.weights[0] = 0.0

    def test_bad_tap_count_rejected(self):
        with pytest.raises(ValueError):
            design_beamformer(BeamSpec(0.0, 0.5), 0)


class TestLeastSquaresFallback:
    def test_fallback_matches_band_spec(self, cold_design_cache, monkeypatch):
        monkeypatch.setattr(beams, "remez", no_exchange)
        spec = BeamSpec(0.5, 0.5)
        bf = design_beamformer(spec, 61)
        assert bf.method == "least-squares"
        gain = passband_power(bf, *spec.passband(), central_fraction=0.8).mean()
        assert abs(10 * np.log10(gain / spec.ideal_gain)) < 1.5

    def test_ls_designs_both_parities(self):
        from svamsim.beams import _ls_lowpass

        for m in (40, 41):
            h = _ls_lowpass(m, 0.25, 0.35)
            assert np.max(np.abs(h - h[::-1])) < 1e-12
            omega = np.linspace(0, np.pi * 0.2, 200)
            resp = np.array(
                [np.sum(h * np.exp(-1j * w * np.arange(m))) for w in omega]
            )
            np.testing.assert_allclose(np.abs(resp), 1.0, atol=0.05)


@pytest.fixture
def cold_design_cache():
    """Empty the design caches before a test and again after it, so that
    designs made under a patched remez never reach a later test."""
    beams._design_weights.cache_clear()
    beams._prototype.cache_clear()
    yield
    beams._design_weights.cache_clear()
    beams._prototype.cache_clear()


def no_exchange(*args, **kwargs):
    """Stands in for remez to force the least-squares fallback."""
    raise RuntimeError("exchange disabled")


# directions and widths that clip at -1 and at +1, fall under the 2/m
# resolution floor, fill the whole space (allpass) or share a band shape
# with another direction; m covers a single tap and both parities
ORACLE_DIRECTIONS = (-1.0, -0.95, -0.3, 0.0, 0.37, 0.999)
ORACLE_WIDTHS = (2.0, 1.5, 0.5, 0.125, 0.01)
ORACLE_TAPS = (1, 2, 16, 17, 61)


def assert_designs_match_oracle() -> set[str]:
    """Compare every design of the grid with the oracle; return the methods."""
    methods = set()
    for m in ORACLE_TAPS:
        for direction in ORACLE_DIRECTIONS:
            for width in ORACLE_WIDTHS:
                spec = BeamSpec(direction, width)
                bf = design_beamformer(spec, m)
                taps, method, band = scalar_beams.design_weights(*spec.passband(), m)
                assert np.array_equal(bf.weights, taps), (m, direction, width)
                assert (bf.method, bf.passband) == (method, band)
                methods.add(bf.method)
    return methods


class TestPrototypeCache:
    def test_designs_equal_the_uncached_oracle(self, cold_design_cache):
        assert assert_designs_match_oracle() == {"single-tap", "allpass", "remez"}

    def test_forced_fallback_equals_the_uncached_oracle(
        self, cold_design_cache, monkeypatch
    ):
        monkeypatch.setattr(beams, "remez", no_exchange)
        methods = assert_designs_match_oracle()
        assert methods == {"single-tap", "allpass", "least-squares"}

    def test_prototype_is_shared_across_directions(self, cold_design_cache):
        a = design_beamformer(BeamSpec(0.25, 0.5), 61)
        b = design_beamformer(BeamSpec(-0.25, 0.5), 61)
        assert a.weights is not b.weights
        assert beams._prototype.cache_info().currsize == 1
        proto, method = beams._prototype(61, 0.25, 0.35)
        assert method == "remez" and not proto.flags.writeable

    def test_beams_under_the_floor_share_one_taps_array(self, cold_design_cache):
        # both requests floor to the design band [0.5 - 1/61, 0.5 + 1/61):
        # one design, one array for every per-beam cache keyed on it
        a = design_beamformer(BeamSpec(0.5, 1.0 / 256), 61)
        b = design_beamformer(BeamSpec(0.5, 1.0 / 1024), 61)
        assert a.weights is b.weights
        assert a.passband == b.passband and a.spec != b.spec
        assert beams._design_weights.cache_info().currsize == 1

    def test_one_exchange_per_band_shape_in_an_alignment_run(
        self, cold_design_cache, monkeypatch
    ):
        # the benchmark's align repetition at seed 0: both controllers over
        # four SNRs, 25 trials each
        shapes = []
        scipy_remez = beams.remez

        def counting_remez(numtaps, bands, *args, **kwargs):
            shapes.append((numtaps, bands[1], bands[2]))
            return scipy_remez(numtaps, bands, *args, **kwargs)

        monkeypatch.setattr(beams, "remez", counting_remez)
        config = harness.ExperimentConfig(
            experiment="codebook_compare", n=64, n_v=(4,), grid_size=64,
            total_snapshots=120, trials=25, snr_db=(-15.0, -10.0, -5.0, 0.0),
            p_thresh=(0.6,), roi=RegionOfInterest(0.0, 1.0), seed=0,
        )
        harness.run_experiment(config)
        assert len(shapes) == len(set(shapes))
        # pass edges 1/2 down to 1/32, and the 2/61 resolution floor
        assert len(shapes) == 6
        assert {m for m, _, _ in shapes} == {61}


class TestHierarchicalCodebook:
    def test_structure_and_spans(self):
        roi = RegionOfInterest(0.0, 1.0)
        cb = build_hierarchical_codebook(roi, depth=2, m=17)
        assert cb.depth == 2
        assert [len(row) for row in cb.levels] == [1, 2, 4]
        assert cb.node(0, 0).span == (0.0, 1.0)
        assert cb.node(1, 0).span == (0.0, 0.5)
        assert cb.node(1, 1).span == (0.5, 1.0)

    def test_levels_tile_region_exactly(self):
        roi = RegionOfInterest(-0.25, 0.75)
        cb = build_hierarchical_codebook(roi, depth=4, m=9)
        for row in cb.levels:
            assert row[0].span[0] == roi.u_left
            assert row[-1].span[1] == roi.u_right
            for a, b in zip(row, row[1:]):
                assert a.span[1] == b.span[0]

    def test_deep_level_beamwidth_and_ideal_gain(self):
        roi = RegionOfInterest(0.0, 1.0)
        cb = build_hierarchical_codebook(roi, depth=5, m=61)
        node = cb.node(5, 7)
        assert node.beamformer.spec.beamwidth == pytest.approx(1.0 / 32)
        assert node.beamformer.spec.ideal_gain == pytest.approx(64.0)
        assert 10 * np.log10(node.beamformer.spec.ideal_gain) == pytest.approx(
            18.06, abs=0.01
        )

    def test_children_cover_parent(self):
        cb = build_hierarchical_codebook(RegionOfInterest(0.0, 1.0), 3, m=8)
        for level in range(cb.depth):
            for k in range(2**level):
                parent = cb.node(level, k)
                left = cb.node(level + 1, 2 * k)
                right = cb.node(level + 1, 2 * k + 1)
                assert left.span[0] == parent.span[0]
                assert right.span[1] == parent.span[1]
                assert left.span[1] == right.span[0]

    def test_depth_too_large_for_grid_rejected(self):
        with pytest.raises(ValueError):
            build_hierarchical_codebook(
                RegionOfInterest(0.0, 1.0), depth=7, m=8, grid_size=64
            )

    def test_root_is_region_wide_beam(self):
        roi = RegionOfInterest(0.0, 1.0)
        cb = build_hierarchical_codebook(roi, depth=1, m=33)
        root = cb.node(0, 0)
        assert root.beamformer.spec.direction == pytest.approx(0.5)
        assert root.beamformer.spec.beamwidth == pytest.approx(1.0)
