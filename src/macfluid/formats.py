"""Binary interchange formats, image dumps and CSV rows.

Frame files ("FNF1") hold one simulation frame; model files ("FNM1") hold
trained network parameters.  Both are little endian with float32 payloads
in C order (row major, j slow), and both round-trip bitwise.

FNF1 layout::

    4 bytes   magic "FNF1"
    u16       version (1)
    u8        spatial rank (2)
    u32       nx
    u32       ny
    f32       dt used when the frame was produced
    u8        flags, bit 0: a pressure block follows the density block
    nx*ny     occupancy, u8, 1 solid / 0 fluid
    (nx+1)*ny f32  ux
    nx*(ny+1) f32  uy
    nx*ny     f32  density
    [nx*ny    f32  pressure, only when flags bit 0 is set]

FNM1 layout::

    4 bytes   magic "FNM1"
    u16       version (1)
    u8        stage count
    per stage u16 in channels, u16 out channels, u8 kernel, u8 scale level
    per stage f32 weights (out, in, k, k) then f32 biases (out,)

Cell size and the open-top flag are runtime configuration, not frame
data; readers take the boundary mode as an argument and grids come back
with h = 1.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .convnet import NetArch, NetParams
from .grids import GridDims, MacVelocity, OccupancyGrid, ScalarGrid


class FormatError(ValueError):
    """A file does not conform to its declared layout."""


_FRAME_HEADER = struct.Struct("<4sHBIIfB")
_MODEL_HEADER = struct.Struct("<4sHB")
_STAGE_DESC = struct.Struct("<HHBB")


@dataclass
class FrameData:
    """One decoded frame; in-memory fields are float64."""

    g: OccupancyGrid
    u: MacVelocity
    density: ScalarGrid
    dt: float
    pressure: ScalarGrid | None = None


def write_frame(path, g: OccupancyGrid, u: MacVelocity, density: ScalarGrid,
                dt: float, pressure: ScalarGrid | None = None) -> None:
    nx, ny = g.dims.nx, g.dims.ny
    flags = 1 if pressure is not None else 0
    parts = [_FRAME_HEADER.pack(b"FNF1", 1, 2, nx, ny, dt, flags)]
    parts.append(g.solid.astype(np.uint8).tobytes())
    parts.append(np.asarray(u.ux, dtype="<f4").tobytes())
    parts.append(np.asarray(u.uy, dtype="<f4").tobytes())
    parts.append(np.asarray(density.values, dtype="<f4").tobytes())
    if pressure is not None:
        parts.append(np.asarray(pressure.values, dtype="<f4").tobytes())
    Path(path).write_bytes(b"".join(parts))


def _take(buf: bytes, offset: int, count: int, dtype, what: str) -> tuple[np.ndarray, int]:
    nbytes = count * np.dtype(dtype).itemsize
    if offset + nbytes > len(buf):
        raise FormatError(f"file truncated inside {what}")
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
    return arr, offset + nbytes


def read_frame(path, open_top: bool = False) -> FrameData:
    buf = Path(path).read_bytes()
    if len(buf) < _FRAME_HEADER.size:
        raise FormatError("frame file shorter than its header")
    magic, version, rank, nx, ny, dt, flags = _FRAME_HEADER.unpack_from(buf)
    if magic != b"FNF1":
        raise FormatError(f"bad frame magic {magic!r}")
    if version != 1:
        raise FormatError(f"unsupported frame version {version}")
    if rank != 2:
        raise FormatError(f"unsupported spatial rank {rank}")
    if flags not in (0, 1):
        raise FormatError(f"unknown frame flags {flags:#x}")
    dims = GridDims(nx, ny)

    off = _FRAME_HEADER.size
    occ, off = _take(buf, off, nx * ny, np.uint8, "occupancy")
    if not np.all((occ == 0) | (occ == 1)):
        raise FormatError("occupancy bytes must be 0 or 1")
    g = OccupancyGrid(dims, occ.reshape(ny, nx).astype(bool), open_top)
    ux, off = _take(buf, off, (nx + 1) * ny, "<f4", "ux")
    uy, off = _take(buf, off, nx * (ny + 1), "<f4", "uy")
    rho, off = _take(buf, off, nx * ny, "<f4", "density")
    pressure = None
    if flags & 1:
        pv, off = _take(buf, off, nx * ny, "<f4", "pressure")
        pressure = ScalarGrid(dims, pv.reshape(ny, nx).astype(np.float64))
    if off != len(buf):
        raise FormatError(f"{len(buf) - off} trailing bytes after frame payload")

    u = MacVelocity(dims, ux.reshape(ny, nx + 1).astype(np.float64),
                    uy.reshape(ny + 1, nx).astype(np.float64))
    rho = ScalarGrid(dims, rho.reshape(ny, nx).astype(np.float64))
    return FrameData(g, u, rho, float(dt), pressure)


def save_model(path, params: NetParams) -> None:
    specs = params.arch.stage_specs()
    parts = [_MODEL_HEADER.pack(b"FNM1", 1, len(specs))]
    for spec in specs:
        parts.append(_STAGE_DESC.pack(spec.in_ch, spec.out_ch, spec.kernel, spec.scale_level))
    for w, b in zip(params.weights, params.biases):
        parts.append(np.asarray(w, dtype="<f4").tobytes())
        parts.append(np.asarray(b, dtype="<f4").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_model(path) -> NetParams:
    buf = Path(path).read_bytes()
    if len(buf) < _MODEL_HEADER.size:
        raise FormatError("model file shorter than its header")
    magic, version, n_stages = _MODEL_HEADER.unpack_from(buf)
    if magic != b"FNM1":
        raise FormatError(f"bad model magic {magic!r}")
    if version != 1:
        raise FormatError(f"unsupported model version {version}")
    if n_stages < 1:
        raise FormatError("model has no stages")
    off = _MODEL_HEADER.size
    descs = []
    for _ in range(n_stages):
        if off + _STAGE_DESC.size > len(buf):
            raise FormatError("model file truncated inside stage table")
        descs.append(_STAGE_DESC.unpack_from(buf, off))
        off += _STAGE_DESC.size

    arch = NetArch(features=descs[0][1], kernel=descs[0][2])
    want = [(s.in_ch, s.out_ch, s.kernel, s.scale_level) for s in arch.stage_specs()]
    if descs != want:
        raise FormatError("stage table does not describe the supported topology")

    ws, bs = [], []
    for in_ch, out_ch, k, _ in descs:
        w, off = _take(buf, off, out_ch * in_ch * k * k, "<f4", "stage weights")
        b, off = _take(buf, off, out_ch, "<f4", "stage biases")
        ws.append(w.reshape(out_ch, in_ch, k, k).copy())
        bs.append(b.copy())
    if off != len(buf):
        raise FormatError(f"{len(buf) - off} trailing bytes after model payload")
    return NetParams(arch, ws, bs)


def write_pgm(path, values: np.ndarray) -> None:
    """8-bit grayscale dump of a cell field, top row first; values are
    clipped to [0, 1], so 1 is white."""
    scaled = np.clip(values, 0.0, 1.0)
    img = (scaled[::-1, :] * 255.0 + 0.5).astype(np.uint8)
    h, w = img.shape
    Path(path).write_bytes(b"P5\n%d %d\n255\n" % (w, h) + img.tobytes())


def format_row(values) -> list[str]:
    """CSV cells of one row: floats as %.17g, which reads back to the same
    double, everything else through str()."""
    return [f"{v:.17g}" if isinstance(v, float) else str(v) for v in values]


def csv_text(header, rows) -> str:
    """The header line, then one line per row of :func:`format_row` cells."""
    return "".join(",".join(line) + "\n" for line in [header, *map(format_row, rows)])
