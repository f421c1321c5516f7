"""What the traced run wraps, and the per-layer metrics derived from it.

Every time is normalized per simulated frame (one ``sim.step`` call), so
runs of different length compare.  Counts that are computed rather than
measured, MACs and compulsory bytes, are labelled ``computed``.
"""

from __future__ import annotations

import inspect
import os

from macfluid import convnet, formats, pressure

from tracer import EXTRA, NAME, root_seconds, summarize

MODULES = ("sim", "advection", "forces", "pressure", "fdops", "grids",
           "convnet", "training", "formats", "datagen")
FORCES = ("forces.add_body_force", "forces.add_buoyancy",
          "forces.vorticity_confinement", "forces.enforce_solid_velocities")


def _extract(fn, take):
    """Span extractor that passes ``take`` the call's arguments by name."""
    sig = inspect.signature(fn)

    def extract(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return take(bound.arguments, result)
    return extract


def conv_macs(arch: convnet.NetArch, dims) -> int:
    """Multiply-accumulates of the convolution stages of one forward pass."""
    total = 0
    for spec in arch.stage_specs():
        cells = (dims.nx >> spec.scale_level) * (dims.ny >> spec.scale_level)
        total += cells * spec.out_ch * spec.in_ch * spec.kernel ** 2
    return total


def jacobi_sweep_bytes(n_cells: int) -> int:
    """Compulsory bytes of one Jacobi sweep, from the arrays it must touch.

    Read the iterate, h^2 b and the solid counts (float64/int64) and five
    bool masks (fluid and one per neighbor); write the new iterate.
    Temporaries numpy makes along the way are not counted.
    """
    return n_cells * (8 + 8 + 8 + 5 * 1 + 8)


TARGETS = {
    "sim.step": None,
    "sim.project_velocity": None,
    "sim.frame_metrics": None,
    "advection.advect_scalar": None,
    "advection.self_advect": None,
    **{name: None for name in FORCES},
    "pressure.make_compatible": None,
    "pressure.solve_jacobi": _extract(pressure.solve_jacobi,
                                      lambda a, r: (a["iters"], a["sys"].g.dims.n_cells)),
    "pressure.solve_pcg": lambda a, k, r: r[1],
    "fdops.face_masks": None,
    "fdops.cell_stencil": None,
    "fdops.divergence": None,
    "fdops.subtract_pressure_gradient": None,
    "fdops.adjoint_divergence": None,
    "grids.connected_components": None,
    "grids.distance_field": None,
    "convnet.learned_project": None,
    "convnet.net_forward": _extract(convnet.net_forward,
                                    lambda a, r: conv_macs(a["params"].arch, a["g"].dims)),
    "convnet.projection_backward": None,
    "training.train": None,
    "training.unrolled_loss": None,
    "training.adam_step": None,
    "formats.write_frame": _extract(formats.write_frame, lambda a, r: os.fspath(a["path"])),
    "formats.read_frame": None,
    "datagen.generate_dataset": None,
    "datagen.build_scene": None,
    "datagen.apply_emitters": None,
    "datagen.load_dataset": None,
}


def layer_metrics(spans: list, wall: float, overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics of one traced window; see BENCHMARK.json for units."""
    stats = summarize(spans)
    frames = max(stats.get("sim.step", {}).get("calls", 0), 1)

    def ms(name: str) -> float:
        return stats.get(name, {}).get("total_s", 0.0) * 1e3 / frames

    def self_ms(name: str) -> float:
        return stats.get(name, {}).get("self_s", 0.0) * 1e3 / frames

    def calls(name: str) -> float:
        return stats.get(name, {}).get("calls", 0) / frames

    def extras(name: str) -> list:
        return [s[EXTRA] for s in spans if s[NAME] == name]

    pcg = extras("pressure.solve_pcg")
    jacobi = extras("pressure.solve_jacobi")
    sweeps = sum(iters for iters, _ in jacobi)
    sweep_bytes = jacobi_sweep_bytes(jacobi[0][1]) if jacobi else 0
    jacobi_s = stats.get("pressure.solve_jacobi", {}).get("total_s", 0.0)
    macs = extras("convnet.net_forward")
    forward_s = stats.get("convnet.net_forward", {}).get("total_s", 0.0)
    written = sum(os.path.getsize(p) for p in extras("formats.write_frame"))

    module_self = {m: 0.0 for m in MODULES}
    for name, row in stats.items():
        module_self[name.split(".", 1)[0]] += row["self_s"]

    out = {
        "advection.advect_scalar.ms": ms("advection.advect_scalar"),
        "advection.self_advect.ms": ms("advection.self_advect"),
        "forces.ms": sum(ms(name) for name in FORCES),
        "pressure.solve_jacobi.ms": ms("pressure.solve_jacobi"),
        "pressure.jacobi_sweeps": sweeps / frames,
        "pressure.jacobi_bytes_per_sweep": sweep_bytes,
        "pressure.jacobi_gb_per_s": sweeps * sweep_bytes / jacobi_s / 1e9 if jacobi_s else 0.0,
        "pressure.make_compatible.ms": ms("pressure.make_compatible"),
        "pressure.solve_pcg.ms": ms("pressure.solve_pcg"),
        "pressure.pcg_solves": len(pcg) / frames,
        "pressure.pcg_iters": sum(i.iterations for i in pcg) / len(pcg) if pcg else 0.0,
        "pressure.pcg_converged_ratio": sum(i.converged for i in pcg) / len(pcg) if pcg else 0.0,
        "pressure.ic0_fallbacks": sum(i.preconditioner != "ic0" for i in pcg) / frames,
        "fdops.face_masks.calls": calls("fdops.face_masks"),
        "fdops.cell_stencil.calls": calls("fdops.cell_stencil"),
        "grids.connected_components.calls": calls("grids.connected_components"),
        "grids.distance_field.calls": calls("grids.distance_field"),
        "fdops.divergence.ms": ms("fdops.divergence"),
        "convnet.learned_project.ms": ms("convnet.learned_project"),
        "convnet.projection_backward.ms": ms("convnet.projection_backward"),
        "convnet.macs": macs[0] if macs else 0,
        "convnet.forward_gmac_per_s": sum(macs) / forward_s / 1e9 if forward_s else 0.0,
        "training.adam_step.ms": ms("training.adam_step"),
        "training.unrolled_loss.self_ms": self_ms("training.unrolled_loss"),
        "formats.write_frame.ms": ms("formats.write_frame"),
        "formats.bytes_written": written / frames,
        "formats.read_frame.ms": ms("formats.read_frame"),
        "datagen.build_scene.ms": ms("datagen.build_scene"),
        "sim.step.self_ms": self_ms("sim.step"),
        **{f"module.{m}.self_ms": s * 1e3 / frames for m, s in module_self.items()},
        "trace.overhead_pct": overhead_pct,
        "trace.unaccounted_pct": 100.0 * (wall - root_seconds(spans)) / wall,
    }
    return {k: float(v) for k, v in out.items()}


def module_shares(spans: list, wall: float) -> dict[str, float]:
    """Self time of each module as a percentage of the traced wall time.

    The shares plus ``(untraced)``, the time outside every span, sum to 100.
    """
    shares = {m: 0.0 for m in MODULES}
    for name, row in summarize(spans).items():
        shares[name.split(".", 1)[0]] += 100.0 * row["self_s"] / wall
    shares["(untraced)"] = 100.0 * (wall - root_seconds(spans)) / wall
    return shares

