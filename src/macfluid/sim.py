"""Single-step velocity update and the multi-step simulation driver.

A step executes, in order: inflow overwrite (when configured), density
advection through the previous velocity, velocity self-advection, body
force, buoyancy, vorticity confinement, solid-face enforcement, and the
pressure projection with the configured backend.  No backend writes a
solid face, so the enforced zeros survive the projection.  The backend is
pluggable: Jacobi, PCG, a sparse direct solve, a learned network, or
nothing at all for ablation baselines.

What the projection reports rides on the returned state as
``SimState.report``; the inflow masks are kept on the grid
(:meth:`~macfluid.grids.OccupancyGrid.derived`).  This module writes no
file: :func:`run` hands every frame to the sinks its caller passes.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .advection import advect_scalar, self_advect
from .convnet import SIDE_MULTIPLE, NetParams, learned_project
from .fdops import divergence, subtract_pressure_gradient
from .forces import (ForceConfig, add_body_force, add_buoyancy,
                     enforce_solid_velocities, vorticity_confinement)
from .grids import (GridDims, MacVelocity, OccupancyGrid, ScalarGrid, _in_disc,
                    _lattice_xy, box_mask, disc_mask)
from .pressure import (PcgInfo, PoissonSystem, make_compatible, solve_dense_direct,
                       solve_jacobi, solve_pcg)


class SimulationError(RuntimeError):
    """The simulation produced non-finite fields and was aborted; ``state``
    is the non-finite state a step produced, None for a non-finite input."""

    def __init__(self, message: str, state: "SimState | None" = None):
        super().__init__(message)
        self.state = state


# ====== Projection backends ======

@dataclass(frozen=True)
class JacobiProjection:
    """``iters`` Jacobi sweeps from zero, an integer >= 0."""

    iters: int = 34

    def __post_init__(self) -> None:
        try:
            iters = operator.index(self.iters)
        except TypeError:
            raise TypeError(f"jacobi iterations must be an integer, got {self.iters!r}") from None
        if iters < 0:
            raise ValueError(f"jacobi iterations must be >= 0, got {iters}")


@dataclass(frozen=True)
class PcgProjection:
    """PCG to relative residual ``tol`` within solve_pcg's default iteration
    cap; ``tol`` must be positive and finite."""

    tol: float = 1e-4

    def __post_init__(self) -> None:
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"pcg tolerance must be positive and finite, got {self.tol}")


@dataclass(frozen=True)
class ExactProjection:
    """Direct solve by a sparse LU factored on a grid's first exact frame
    (:func:`~macfluid.pressure.solve_dense_direct`)."""


@dataclass(frozen=True)
class NoProjection:
    """Skip the projection entirely (ablation baseline)."""


@dataclass(frozen=True)
class ConvnetProjection:
    params: NetParams


# ====== State and configuration ======

@dataclass(frozen=True)
class InflowRegion:
    """A disc of cells whose density and velocity are pinned each step.

    ``center`` and ``radius`` are in cell units.  Density is overwritten
    on cells whose center lies inside the disc, velocity on faces whose
    midpoint does.  ``center``, ``velocity`` and ``density`` must be
    finite and ``radius`` positive.
    """

    center: tuple[float, float]
    radius: float
    velocity: tuple[float, float]
    density: float = 1.0

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ValueError(f"inflow radius must be positive, got {self.radius}")
        for name, value in (("center", self.center), ("velocity", self.velocity),
                            ("density", self.density)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"inflow {name} must be finite, got {value}")


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1.0 / 30.0
    advection: str = "maccormack"
    forces: ForceConfig = field(default_factory=ForceConfig)
    projection: object = field(default_factory=PcgProjection)
    inflow: tuple[InflowRegion, ...] = ()

    def __post_init__(self) -> None:
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")


@dataclass
class SimState:
    """Fields at one frame.  ``report`` is what the projection that made them
    reported: the PcgInfo of pcg, the ProjectionTape of convnet (training
    differentiates through it), None for other backends or without a step."""

    u: MacVelocity
    density: ScalarGrid
    g: OccupancyGrid
    frame: int = 0
    time: float = 0.0
    report: object = None

    def copy(self) -> "SimState":
        return SimState(self.u.copy(), self.density.copy(), self.g, self.frame,
                        self.time, self.report)


# ====== The step ======

def _all_finite(u: MacVelocity, density: ScalarGrid) -> bool:
    return bool(np.all(np.isfinite(u.ux)) and np.all(np.isfinite(u.uy))
                and np.all(np.isfinite(density.values)))


def _inflow_region_masks(g: OccupancyGrid, regions: tuple[InflowRegion, ...]) -> list:
    """Per region, its fluid cell, x face and y face masks."""
    dims = g.dims
    faces_x = _lattice_xy(dims.shape_ux, 0.0, 0.5)
    faces_y = _lattice_xy(dims.shape_uy, 0.5, 0.0)
    return [(disc_mask(dims, r.center, r.radius) & g.fluid,
             _in_disc(*faces_x, r.center, r.radius),
             _in_disc(*faces_y, r.center, r.radius)) for r in regions]


def _apply_inflow(u: MacVelocity, density: ScalarGrid, g: OccupancyGrid,
                  regions: tuple[InflowRegion, ...]) -> tuple[MacVelocity, ScalarGrid]:
    dims = g.dims
    ux, uy = u.ux.copy(), u.uy.copy()
    rho = density.values.copy()
    for r, (cells, faces_x, faces_y) in zip(regions, g.derived(_inflow_region_masks, regions)):
        rho[cells] = r.density
        ux[faces_x] = r.velocity[0]
        uy[faces_y] = r.velocity[1]
    return MacVelocity(dims, ux, uy), ScalarGrid(dims, rho)


def _project(u: MacVelocity, g: OccupancyGrid, backend) -> tuple[MacVelocity, object]:
    """The projected velocity and the backend's report, as in SimState.report."""
    if isinstance(backend, NoProjection):
        return u, None
    if isinstance(backend, ConvnetProjection):
        # the tape holds the activations the forward pass computes anyway
        u_new, _, tape = learned_project(backend.params, u, g, tape=True)
        return u_new, tape
    # the system matrix is the negated Laplacian, so zero post-divergence
    # means solving A p = -div(u)
    d = divergence(u, g)
    sys = make_compatible(PoissonSystem(g, ScalarGrid(g.dims, -d.values)))
    info = None
    if isinstance(backend, JacobiProjection):
        p = solve_jacobi(sys, backend.iters)
    elif isinstance(backend, PcgProjection):
        p, info = solve_pcg(sys, backend.tol)
    elif isinstance(backend, ExactProjection):
        p = solve_dense_direct(sys)
    else:
        raise TypeError(f"unknown projection backend {backend!r}")
    return subtract_pressure_gradient(u, p, g), info


def project_velocity(u: MacVelocity, g: OccupancyGrid, backend,
                     info_sink: list | None = None) -> MacVelocity:
    """One pressure projection of a tentative velocity; solid faces keep
    their values.  ``info_sink`` collects the backend's report, if it has
    one, the object :func:`step` puts on ``SimState.report``."""
    u, report = _project(u, g, backend)
    if info_sink is not None and report is not None:
        info_sink.append(report)
    return u


def step(state: SimState, cfg: SimConfig) -> SimState:
    """Advance one frame; the input state is left untouched.

    The returned state carries the projection's report (see
    :class:`SimState`); non-finite output is raised as ``SimulationError.state``."""
    g = state.g
    u, density = state.u, state.density
    if not _all_finite(u, density):
        # advection would chase garbage positions; fail like a blow-up
        raise SimulationError(f"non-finite fields in the input of frame {state.frame + 1}")
    if cfg.inflow:
        u, density = _apply_inflow(u, density, g, cfg.inflow)
    density = advect_scalar(density, u, g, cfg.dt, cfg.advection)
    u = self_advect(u, g, cfg.dt, cfg.advection)
    u = add_body_force(u, g, cfg.forces.gravity, cfg.dt)
    u = add_buoyancy(u, density, g, cfg.forces.buoyancy, cfg.forces.gravity, cfg.dt)
    u = vorticity_confinement(u, g, cfg.forces.confinement, cfg.dt)
    u = enforce_solid_velocities(u, g)
    u, report = _project(u, g, cfg.projection)

    out = SimState(u, density, g, state.frame + 1, state.time + cfg.dt, report)
    if not _all_finite(u, density):
        raise SimulationError(f"non-finite fields after frame {out.frame}", out)
    return out


# ====== Metrics and the driver ======

@dataclass(frozen=True)
class FrameMetrics:
    """Per-frame health numbers; divergence stats are over fluid cells.

    The ``pcg_*`` fields are what the frame's PCG solve reported (its
    iterations, true relative residual and whether it converged), None
    for other backends; a CSV row leaves them empty.
    """

    frame: int
    mean_div_l2: float
    std_div_l2: float
    max_div: float
    max_speed: float
    residual: float  # l2 norm of the post-step divergence, not a solver residual
    pcg_iterations: int | None
    pcg_relres: float | None
    pcg_converged: bool | None
    wall_ms: float

    COLUMNS = ("frame", "mean_div_l2", "std_div_l2", "max_div", "max_speed", "residual",
               "pcg_iterations", "pcg_relres", "pcg_converged", "wall_ms")

    def row(self) -> list:
        return ["" if v is None else v for v in (getattr(self, c) for c in self.COLUMNS)]


def frame_metrics(state: SimState, wall_ms: float = 0.0) -> FrameMetrics:
    d = np.abs(divergence(state.u, state.g).values[state.g.fluid])
    if d.size == 0:
        mean = std = mx = l2 = 0.0
    else:
        mean, std = float(d.mean()), float(d.std())
        mx, l2 = float(d.max()), float(np.linalg.norm(d))
    pcg = state.report if isinstance(state.report, PcgInfo) else None
    solve = (pcg.iterations, pcg.relres, pcg.converged) if pcg else (None, None, None)
    return FrameMetrics(state.frame, mean, std, mx, state.u.max_speed(), l2, *solve, wall_ms)


def run(state: SimState, cfg: SimConfig, frames: int,
        sinks: tuple = ()) -> tuple[SimState, list[FrameMetrics]]:
    """Advance ``frames`` steps; each sink is called with ``(metrics, state)``.

    On a simulation blow-up the error propagates after the metrics
    emitted so far; callers keep the partial record.
    """
    if frames < 1:
        raise ValueError(f"need at least one frame, got {frames}")
    metrics: list[FrameMetrics] = []
    for _ in range(frames):
        t0 = time.perf_counter()
        state = step(state, cfg)
        wall = (time.perf_counter() - t0) * 1e3
        m = frame_metrics(state, wall)
        metrics.append(m)
        for sink in sinks:
            sink(m, state)
    return state, metrics


# ====== Canonical scenario ======

def plume_scenario(dims: GridDims, open_top: bool = False,
                   obstacle: str | None = None,
                   inflow_speed: float = 1.0,
                   buoyancy: float = 0.5,
                   confinement: float = 0.0,
                   projection=None,
                   dt: float = 1.0 / 30.0,
                   advection: str = "maccormack") -> tuple[SimState, SimConfig]:
    """Buoyant plume rising from a disc-shaped inlet near the bottom.

    ``obstacle`` places a held-out solid mid-domain: "disc" or "box".
    Returns the initial state and a ready-to-run configuration.
    """
    if dims.ny % SIDE_MULTIPLE or dims.nx % SIDE_MULTIPLE:
        raise ValueError(f"grid sides must be divisible by {SIDE_MULTIPLE}, "
                         f"got {dims.nx}x{dims.ny}")
    center = (dims.nx / 2.0, dims.ny / 2.0)
    r = dims.nx / 8.0
    if obstacle is None:
        solid = np.zeros(dims.shape, dtype=bool)
    elif obstacle == "disc":
        solid = disc_mask(dims, center, r)
    elif obstacle == "box":
        solid = box_mask(dims, center, (r, r))
    else:
        raise ValueError(f"unknown obstacle {obstacle!r}")
    g = OccupancyGrid(dims, solid, open_top)

    radius = max(1.5, 0.125 * dims.nx / 2.0)
    inlet = InflowRegion(center=(dims.nx / 2.0, radius + 1.5), radius=radius,
                         velocity=(0.0, inflow_speed), density=1.0)
    cfg = SimConfig(
        dt=dt,
        advection=advection,
        forces=ForceConfig(buoyancy=buoyancy, confinement=confinement),
        projection=projection if projection is not None else PcgProjection(),
        inflow=(inlet,),
    )
    state = SimState(MacVelocity.zeros(dims), ScalarGrid.zeros(dims), g)
    return state, cfg
