"""Frame and model file formats: bitwise round-trips and strict validation."""

import numpy as np
import pytest

from macfluid.convnet import NetArch, init_params
from macfluid.formats import (FormatError, load_model, read_frame, save_model,
                              write_frame, write_pgm)
from macfluid.grids import GridDims, MacVelocity, OccupancyGrid, ScalarGrid


def _random_frame(seed, nx=8, ny=6, with_pressure=False):
    rng = np.random.default_rng(seed)
    dims = GridDims(nx, ny)
    g = OccupancyGrid(dims, rng.random(dims.shape) < 0.2)
    u = MacVelocity(dims,
                    rng.standard_normal(dims.shape_ux).astype(np.float32).astype(np.float64),
                    rng.standard_normal(dims.shape_uy).astype(np.float32).astype(np.float64))
    rho = ScalarGrid(dims, rng.random(dims.shape).astype(np.float32).astype(np.float64))
    p = None
    if with_pressure:
        p = ScalarGrid(dims, rng.standard_normal(dims.shape).astype(np.float32).astype(np.float64))
    return g, u, rho, p


@pytest.mark.parametrize("with_pressure", [False, True])
def test_frame_roundtrip_bitwise(tmp_path, with_pressure):
    for seed in range(5):
        g, u, rho, p = _random_frame(seed, with_pressure=with_pressure)
        f1 = tmp_path / f"a{seed}.fnf"
        f2 = tmp_path / f"b{seed}.fnf"
        write_frame(f1, g, u, rho, 1.0 / 30.0, p)
        fd = read_frame(f1)
        write_frame(f2, fd.g, fd.u, fd.density, fd.dt, fd.pressure)
        assert f1.read_bytes() == f2.read_bytes()

        np.testing.assert_array_equal(fd.g.solid, g.solid)
        np.testing.assert_array_equal(fd.u.ux, u.ux)  # f32 payload, f32-clean input
        np.testing.assert_array_equal(fd.density.values, rho.values)
        assert (fd.pressure is None) == (p is None)


def test_frame_open_top_flag_is_reader_side(tmp_path):
    g, u, rho, _ = _random_frame(42)
    path = tmp_path / "f.fnf"
    write_frame(path, g, u, rho, 0.01)
    assert read_frame(path).g.open_top is False
    assert read_frame(path, open_top=True).g.open_top is True


def test_frame_validation_errors(tmp_path):
    g, u, rho, _ = _random_frame(0)
    path = tmp_path / "f.fnf"
    write_frame(path, g, u, rho, 0.01)
    raw = bytearray(path.read_bytes())

    bad = tmp_path / "bad.fnf"

    bad.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(FormatError, match="magic"):
        read_frame(bad)

    v = raw.copy()
    v[4] = 9  # version field
    bad.write_bytes(bytes(v))
    with pytest.raises(FormatError, match="version"):
        read_frame(bad)

    bad.write_bytes(bytes(raw[:-3]))
    with pytest.raises(FormatError, match="truncated"):
        read_frame(bad)

    bad.write_bytes(bytes(raw) + b"x")
    with pytest.raises(FormatError, match="trailing"):
        read_frame(bad)

    occ = raw.copy()
    occ[20] = 2  # first occupancy byte
    bad.write_bytes(bytes(occ))
    with pytest.raises(FormatError, match="occupancy"):
        read_frame(bad)

    fl = raw.copy()
    fl[19] = 0x40  # flags byte
    bad.write_bytes(bytes(fl))
    with pytest.raises(FormatError, match="flags"):
        read_frame(bad)


def test_model_roundtrip_bitwise(tmp_path):
    params = init_params(NetArch(features=6, kernel=3), seed=11)
    f1 = tmp_path / "a.fnm"
    f2 = tmp_path / "b.fnm"
    save_model(f1, params)
    loaded = load_model(f1)
    save_model(f2, loaded)
    assert f1.read_bytes() == f2.read_bytes()
    assert loaded.arch == params.arch
    for a, b in zip(params.weights, loaded.weights):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(params.biases, loaded.biases):
        np.testing.assert_array_equal(a, b)


def test_model_validation_errors(tmp_path):
    params = init_params(NetArch(features=4), seed=0)
    path = tmp_path / "m.fnm"
    save_model(path, params)
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.fnm"

    bad.write_bytes(b"ZZZZ" + bytes(raw[4:]))
    with pytest.raises(FormatError, match="magic"):
        load_model(bad)

    v = raw.copy()
    v[4] = 3
    bad.write_bytes(bytes(v))
    with pytest.raises(FormatError, match="version"):
        load_model(bad)

    # kernel byte of the fourth stage descriptor
    k = raw.copy()
    k[7 + 3 * 6 + 4] = 5
    bad.write_bytes(bytes(k))
    with pytest.raises(FormatError, match="topology"):
        load_model(bad)

    bad.write_bytes(bytes(raw[:-2]))
    with pytest.raises(FormatError, match="truncated"):
        load_model(bad)

    bad.write_bytes(bytes(raw) + b"xy")
    with pytest.raises(FormatError, match="trailing"):
        load_model(bad)


def test_pgm_layout_flip_and_clamp(tmp_path):
    values = np.array([[0.0, 0.5], [1.0, 2.0]])
    path = tmp_path / "img.pgm"
    write_pgm(path, values)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    payload = raw[len(b"P5\n2 2\n255\n"):]
    # top row of the image is the last grid row; 2.0 clamps to 255
    assert list(payload) == [255, 255, 0, 128]


def test_pgm_negative_values_clamp_to_black(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, np.full((4, 4), -3.0))
    assert set(path.read_bytes()[-16:]) == {0}
