"""Which library functions the traced run wraps, and how its spans and
counters become the per-layer metrics.  Layers are the ``symmetria``
module names; a span is named ``<module>.<function>``."""

from __future__ import annotations

def _observe_basis(tracer, basis):
    tracer.count("process_modes.modes_built", len(basis.modes))
    held = sum(m.op.choi.nbytes + m.op.transfer.nbytes for m in basis.modes)
    tracer.record_max("process_modes.mode_bytes", held)


def _observe_quadrature(tracer, quad):
    tracer.count("groups.quadrature_nodes", len(quad.nodes))


# (span name, "module:attribute", observe) -- observe(tracer, result) runs
# inside the span and records sizes of what the call returned.
TARGETS = (
    ("groups.wigner_D", "symmetria.groups:wigner_D", None),
    ("groups.cgc", "symmetria.groups:cgc", None),
    ("groups.rep_matrix", "symmetria.groups:rep_matrix", None),
    ("groups.haar_quadrature", "symmetria.groups:haar_quadrature",
     _observe_quadrature),
    ("ito.build_itos", "symmetria.ito:build_itos", None),
    ("process_modes.build_canonical_modes",
     "symmetria.process_modes:build_canonical_modes", _observe_basis),
    ("process_modes.decompose", "symmetria.process_modes:decompose", None),
    ("process_modes.is_symmetric", "symmetria.process_modes:is_symmetric",
     None),
    ("process_modes.twirl", "symmetria.process_modes:twirl", None),
    ("process_modes.project_isotypic",
     "symmetria.process_modes:project_isotypic", None),
    ("process_modes.superop_group_action",
     "symmetria.process_modes:superop_group_action", None),
    ("linalg_core.hs_inner", "symmetria.linalg_core:hs_inner", None),
    ("linalg_core.check_cptp", "symmetria.linalg_core:check_cptp", None),
    ("axial.polar_decompose", "symmetria.axial:polar_decompose", None),
    ("bipartite.diagonal_action", "symmetria.bipartite:diagonal_action",
     None),
    ("bipartite.decompose_symmetric",
     "symmetria.bipartite:decompose_symmetric", None),
    ("repeatability.sequential_use", "symmetria.repeatability:sequential_use",
     None),
    ("repeatability.induced_channel",
     "symmetria.repeatability:induced_channel", None),
    ("repeatability.measure_prepare_form",
     "symmetria.repeatability:measure_prepare_form", None),
    ("gauge.build_gauged_lattice", "symmetria.gauge:build_gauged_lattice",
     None),
    ("gauge.dynamics_commutation_defects",
     "symmetria.gauge:GaugedLattice.dynamics_commutation_defects", None),
    ("gauge.free_state_check", "symmetria.gauge:free_state_check", None),
    ("gauge.twirl", "symmetria.gauge:GaugedLattice.twirl", None),
    ("gauge.gauge_2symmetric", "symmetria.gauge:gauge_2symmetric", None),
    ("gauge.local_invariance_residual",
     "symmetria.gauge:local_invariance_residual", None),
    ("cli.main", "symmetria.cli:main", None),
    ("cli.load_channel", "symmetria.cli:load_channel", None),
)


def install_all(tracer) -> None:
    from spans import install
    from symmetria import linalg_core

    install(tracer, TARGETS)
    # Superoperator constructions are counted, not spanned: there are
    # hundreds of thousands of them per run.
    cls = linalg_core.Superoperator
    original = cls.__post_init__

    def counted(self):
        original(self)
        if tracer.enabled:
            tracer.count("linalg_core.superoperators")
            tracer.count("linalg_core.superop_bytes",
                         self.choi.nbytes + self.transfer.nbytes)

    cls.__post_init__ = counted


def layer_metrics(tracer) -> dict:
    """Flat {metric name: value} from one traced run."""
    out = {}
    summary = tracer.summary()
    for span_name, _, _ in TARGETS:
        calls, self_s = summary.get(span_name, (0, 0.0))
        out[f"{span_name}.calls"] = calls
        out[f"{span_name}.self_s"] = self_s
    out.update(tracer.counters)
    out.update(tracer.maxima)
    out["trace.self_sum_s"] = sum(s for _, s in summary.values())
    return out
