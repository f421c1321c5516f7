"""Scene generation and dataset round-trip tests."""

import json

import numpy as np
import pytest

from macfluid.datagen import (EMITTER_COUNT_RANGE, NOISE_AMPLITUDE, EmitterParams,
                              GeometryConfig, LoadedScene, SceneConfig,
                              apply_emitters, box_mask, build_scene,
                              capsule_mask, curl_noise_velocity, disc_mask,
                              generate_dataset, load_dataset, random_geometry,
                              scene_seed)
from macfluid.fdops import divergence, face_masks
from macfluid.grids import GridDims, MacVelocity, OccupancyGrid
from macfluid.sim import PcgProjection


# ====== Curl noise ======

def test_curl_noise_divergence_free_everywhere():
    # with no solids the divergence uses every stored face value, so the
    # node-difference construction must cancel on every cell
    for seed in range(20):
        dims = GridDims(24, 16) if seed % 2 else GridDims(16, 24, h=0.25)
        g = OccupancyGrid.empty(dims)
        u = curl_noise_velocity(dims, seed=seed)
        d = divergence(u, g)
        assert np.max(np.abs(d.values)) <= 1e-10


def test_curl_noise_reproducible():
    dims = GridDims(20, 16)
    a = curl_noise_velocity(dims, seed=7)
    b = curl_noise_velocity(dims, seed=7)
    c = curl_noise_velocity(dims, seed=8)
    np.testing.assert_array_equal(a.ux, b.ux)
    np.testing.assert_array_equal(a.uy, b.uy)
    assert np.any(a.ux != c.ux)


def test_curl_noise_amplitude_normalized():
    u = curl_noise_velocity(GridDims(16, 16), seed=1)
    assert u.max_speed() == pytest.approx(NOISE_AMPLITUDE, rel=1e-12)


# ====== Shape rasterization ======

def test_box_mask_aligned_exact():
    dims = GridDims(12, 12)
    mask = box_mask(dims, center=(4.0, 4.0), half_extents=(2.0, 2.0))
    expected = np.zeros(dims.shape, dtype=bool)
    expected[2:6, 2:6] = True
    np.testing.assert_array_equal(mask, expected)


def test_box_mask_quarter_turn_swaps_extents():
    dims = GridDims(12, 12)
    turned = box_mask(dims, (6.0, 6.0), (3.0, 1.0), angle=np.pi / 2)
    straight = box_mask(dims, (6.0, 6.0), (1.0, 3.0))
    np.testing.assert_array_equal(turned, straight)


def test_disc_mask_single_cell():
    dims = GridDims(8, 8)
    mask = disc_mask(dims, center=(3.5, 2.5), radius=0.6)
    assert mask[2, 3]
    assert np.count_nonzero(mask) == 1


def test_capsule_mask_degenerate_is_disc():
    dims = GridDims(10, 10)
    np.testing.assert_array_equal(
        capsule_mask(dims, (4.5, 4.5), (4.5, 4.5), 2.0),
        disc_mask(dims, (4.5, 4.5), 2.0))


def test_capsule_mask_horizontal_row():
    dims = GridDims(12, 12)
    mask = capsule_mask(dims, (2.5, 4.5), (9.5, 4.5), radius=0.4)
    expected = np.zeros(dims.shape, dtype=bool)
    expected[4, 2:10] = True
    np.testing.assert_array_equal(mask, expected)


# ====== Random geometry ======

def test_random_geometry_zero_shapes_all_fluid():
    dims = GridDims(16, 16)
    g = random_geometry(dims, np.random.default_rng(0),
                        cfg=GeometryConfig(count_range=(0, 0)))
    assert g.n_fluid == dims.n_cells


def test_random_geometry_fluid_fraction():
    dims = GridDims(16, 16)
    rng = np.random.default_rng(42)
    cfg = GeometryConfig(count_range=(1, 4), size_range=(0.1, 0.3))
    for _ in range(1000):
        g = random_geometry(dims, rng, cfg=cfg)
        assert g.n_fluid * 2 >= dims.n_cells


def test_random_geometry_pools_disjoint():
    dims = GridDims(32, 32)
    cfg = GeometryConfig(count_range=(2, 3))
    train = random_geometry(dims, np.random.default_rng(5), "train", cfg)
    test = random_geometry(dims, np.random.default_rng(5), "test", cfg)
    again = random_geometry(dims, np.random.default_rng(5), "train", cfg)
    assert np.any(train.solid != test.solid)
    np.testing.assert_array_equal(train.solid, again.solid)


def test_random_geometry_rejection_cap():
    dims = GridDims(16, 16)
    crowded = GeometryConfig(count_range=(40, 40), size_range=(0.45, 0.5))
    with pytest.raises(ValueError, match="50% fluid"):
        random_geometry(dims, np.random.default_rng(0), cfg=crowded)


def test_geometry_config_validation():
    with pytest.raises(ValueError):
        GeometryConfig(count_range=(3, 1))
    with pytest.raises(ValueError):
        GeometryConfig(size_range=(0.0, 0.1))


# ====== Emitters ======

def test_apply_emitters_inactive_is_identity():
    u = MacVelocity.zeros(GridDims(8, 8))
    e = EmitterParams((4.0, 4.0), 2.0, (1.0, 0.0), start=2, duration=3)
    assert apply_emitters(u, [e], 0) is u
    assert apply_emitters(u, [e], 5) is u
    assert apply_emitters(u, [], 2) is u


def test_apply_emitters_active_window():
    u = MacVelocity.zeros(GridDims(8, 8))
    e = EmitterParams((4.0, 4.0), 2.0, (1.0, 0.0), start=2, duration=3)
    for frame in (2, 3, 4):
        assert apply_emitters(u, [e], frame) is not u


def test_apply_emitters_center_face_full_strength():
    dims = GridDims(8, 8)
    u = MacVelocity.zeros(dims)
    # ux face (j=2, i=3) sits at (3.0, 2.5)
    e = EmitterParams((3.0, 2.5), 2.0, (1.2, 0.0))
    out = apply_emitters(u, [e], 0)
    assert out.ux[2, 3] == pytest.approx(1.2)


def test_apply_emitters_linear_falloff():
    dims = GridDims(8, 8)
    u = MacVelocity.zeros(dims)
    e = EmitterParams((4.0, 2.5), 2.0, (1.0, 0.0))
    out = apply_emitters(u, [e], 0)
    # face (j=2, i=5) is one cell away, half the radius from the center
    assert out.ux[2, 5] == pytest.approx(0.5)
    # faces beyond the radius are untouched
    assert out.ux[2, 7] == 0.0


def test_apply_emitters_superposition_exact():
    dims = GridDims(12, 8)
    u = MacVelocity.zeros(dims)
    e = EmitterParams((5.0, 4.0), 3.0, (0.8, -0.6))
    one = apply_emitters(u, [e], 0)
    two = apply_emitters(u, [e, e], 0)
    np.testing.assert_array_equal(two.ux, 2.0 * one.ux)
    np.testing.assert_array_equal(two.uy, 2.0 * one.uy)


def test_emitter_validation():
    with pytest.raises(ValueError):
        EmitterParams((1.0, 1.0), 0.0, (1.0, 0.0))
    with pytest.raises(ValueError):
        EmitterParams((1.0, 1.0), 1.0, (1.0, 0.0), duration=0)


# ====== Scene assembly ======

def test_scene_config_validation():
    with pytest.raises(ValueError, match="divisible by 4"):
        SceneConfig(dims=GridDims(30, 32))
    with pytest.raises(ValueError):
        SceneConfig(boundary="periodic")
    with pytest.raises(ValueError):
        SceneConfig(dt=0.0)


def test_build_scene_deterministic():
    cfg = SceneConfig(dims=GridDims(16, 16), seed=11)
    s1, e1 = build_scene(cfg)
    s2, e2 = build_scene(cfg)
    np.testing.assert_array_equal(s1.u.ux, s2.u.ux)
    np.testing.assert_array_equal(s1.u.uy, s2.u.uy)
    np.testing.assert_array_equal(s1.density.values, s2.density.values)
    np.testing.assert_array_equal(s1.g.solid, s2.g.solid)
    assert e1 == e2


def test_build_scene_initial_state_consistent():
    cfg = SceneConfig(dims=GridDims(16, 16), seed=4)
    state, emitters = build_scene(cfg)
    fm = face_masks(state.g)
    assert not np.any(state.u.ux[fm.solid_x])
    assert not np.any(state.u.uy[fm.solid_y])
    assert not np.any(state.density.values[state.g.solid])
    lo, hi = EMITTER_COUNT_RANGE
    assert lo <= len(emitters) <= hi
    # cells with four free faces keep the raw curl-noise samples, so the
    # initial divergence there is exactly zero
    interior = (fm.free_x[:, :-1] & fm.free_x[:, 1:]
                & fm.free_y[:-1, :] & fm.free_y[1:, :])
    d = divergence(state.u, state.g)
    assert np.max(np.abs(d.values[interior])) <= 1e-10


def test_build_scene_open_top():
    state, _ = build_scene(SceneConfig(dims=GridDims(16, 16), boundary="open-top"))
    assert state.g.open_top


# ====== Dataset generation ======

def test_scene_seeds_disjoint_across_pools():
    seeds = {scene_seed(0, pool, i) for pool in ("train", "test") for i in range(500)}
    assert len(seeds) == 1000


def test_generate_dataset_counts(tmp_path):
    cfg = SceneConfig(dims=GridDims(16, 16), seed=9)
    written = generate_dataset(cfg, scene_count=2, frames_per_scene=8,
                               stride=4, out_dir=tmp_path)
    for scene in ("scene_0000", "scene_0001"):
        frames = sorted(p.name for p in (tmp_path / scene).glob("*.fnf"))
        assert frames == ["frame_000004.fnf", "frame_000008.fnf"]
        assert (tmp_path / scene / "meta.json").exists()
    assert (tmp_path / "dataset.json").exists()
    # 2 scenes x 2 frames, 2 scene metas, 1 dataset manifest
    assert len(written) == 7
    assert all(p.exists() for p in written)


def test_generate_dataset_byte_identical(tmp_path):
    cfg = SceneConfig(dims=GridDims(16, 16), seed=21)
    generate_dataset(cfg, 2, 8, 4, tmp_path / "a")
    generate_dataset(cfg, 2, 8, 4, tmp_path / "b")
    files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert [p.relative_to(tmp_path / "a") for p in files_a] \
        == [p.relative_to(tmp_path / "b") for p in files_b]
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_generate_dataset_frames_are_projected(tmp_path):
    cfg = SceneConfig(dims=GridDims(16, 16), seed=2)
    generate_dataset(cfg, 2, 8, 4, tmp_path)
    for scene in load_dataset(tmp_path):
        assert scene.meta["non_converged"] == []
        for state in scene.frames:
            d = divergence(state.u, state.g).values[state.g.fluid]
            # tol 1e-6 solve; the bound leaves room for f32 storage rounding
            assert np.linalg.norm(d) <= 1e-4


def test_generate_dataset_flags_non_convergence(tmp_path, caplog):
    cfg = SceneConfig(dims=GridDims(16, 16), seed=2)
    stubborn = PcgProjection(tol=1e-30)
    with caplog.at_level("WARNING", logger="macfluid.datagen"):
        generate_dataset(cfg, 1, 4, 4, tmp_path, projection=stubborn)
    meta = json.loads((tmp_path / "scene_0000" / "meta.json").read_text())
    assert meta["non_converged"] != []
    assert any("did not converge" in r.message for r in caplog.records)
    assert (tmp_path / "scene_0000" / "frame_000004.fnf").exists()


def test_generate_dataset_validation(tmp_path):
    cfg = SceneConfig(dims=GridDims(16, 16))
    with pytest.raises(ValueError):
        generate_dataset(cfg, 0, 8, 4, tmp_path)
    with pytest.raises(ValueError):
        generate_dataset(cfg, 1, 8, 0, tmp_path)


def test_generate_dataset_rejects_stride_beyond_frames(tmp_path):
    cfg = SceneConfig(dims=GridDims(16, 16))
    with pytest.raises(ValueError, match="stride"):
        generate_dataset(cfg, 1, 2, 4, tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


def test_load_dataset_round_trip(tmp_path):
    cfg = SceneConfig(dims=GridDims(16, 16), seed=13, boundary="open-top")
    generate_dataset(cfg, 2, 8, 4, tmp_path)
    scenes = load_dataset(tmp_path)
    assert [s.name for s in scenes] == ["scene_0000", "scene_0001"]
    for scene in scenes:
        assert isinstance(scene, LoadedScene)
        assert [st.frame for st in scene.frames] == [4, 8]
        # one grid per scene, so its geometry is derived once
        assert scene.frames[0].g is scene.frames[-1].g
        for state in scene.frames:
            assert state.g.open_top
            assert state.u.ux.dtype == np.float64
            assert state.time == pytest.approx(state.frame / 30.0)
            assert state.report is None  # no step produced a loaded frame
    assert scenes[0].frames[0].g is not scenes[1].frames[0].g


def test_load_dataset_missing(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "nope")
