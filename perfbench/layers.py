"""Which opalg callables the traced run wraps, and the per-layer metrics
read from the tracer afterwards.

The layers are the package modules.  Names are ``<module>.<function>``;
``matrices`` splits ``@``, ``kron`` and scalar ``*`` by backend so that
exact and float work are counted apart.
"""
from __future__ import annotations

import importlib
import numbers

# (module, attribute, span name); the span name is the metric prefix
FUNCTIONS = [
    ("cli", "emit_report", "cli.emit_report"),
    ("chains", "build_chain", "chains.build_chain"),
    ("chains", "verify_semilattice", "chains.verify_semilattice"),
    ("chains", "norm_profile", "chains.norm_profile"),
    ("generation", "certify_generation", "generation.certify_generation"),
    ("generation", "orthogonal_generators", "generation.orthogonal_generators"),
    ("generation", "same_span", "generation.same_span"),
    ("diagonals", "certify_mbad", "diagonals.certify_mbad"),
    ("diagonals", "tensor_norm_upper", "diagonals.tensor_norm_upper"),
    ("diagonals", "tensor_norm_bounds", "diagonals.tensor_norm_bounds"),
    ("diagonals", "bimodule_commutator", "diagonals.bimodule_commutator"),
    ("diagonals", "unitize_diagonal", "diagonals.unitize_diagonal"),
    ("diagonals", "pi_map", "diagonals.pi_map"),
    ("embedding", "certify_E_family", "embedding.certify_E_family"),
    ("embedding", "certify_embedding_bounds", "embedding.certify_embedding_bounds"),
    ("embedding", "phi", "embedding.phi"),
    ("embedding", "phi_sup_norm", "embedding.phi_sup_norm"),
    ("embedding", "l1_trace_norm", "embedding.l1_trace_norm"),
    ("embedding", "make_trace", "embedding.make_trace"),
    ("embedding", "best_subset_sum", "embedding.best_subset_sum"),
    ("embedding", "brute_force_best_subset", "embedding.brute_force_best_subset"),
    ("matrices", "singular_values", "matrices.svd"),
]

STAGES = ("chain", "generate", "diagonal", "embed")

# (name, unit) in report order; every name is emitted on every workload
PER_LAYER = (
    [(f"cli.stage.{s}_s", "s") for s in STAGES]
    + [("cli.emit_report_s", "s"), ("cli.payload_bytes", "B")]
    + [
        ("chains.build_chain.calls", "count"),
        ("chains.build_chain.self_s", "s"),
        ("chains.verify_semilattice.self_s", "s"),
        ("chains.norm_profile.self_s", "s"),
        ("generation.certify_generation.calls", "count"),
        ("generation.certify_generation.self_s", "s"),
        ("generation.orthogonal_generators.self_s", "s"),
        ("generation.same_span.self_s", "s"),
        ("diagonals.certify_mbad.self_s", "s"),
        ("diagonals.tensor_norm_upper.calls", "count"),
        ("diagonals.tensor_norm_upper.self_s", "s"),
        ("diagonals.tensor_norm_bounds.self_s", "s"),
        ("diagonals.flatten.calls", "count"),
        ("diagonals.flatten.self_s", "s"),
        ("diagonals.bimodule_commutator.calls", "count"),
        ("diagonals.bimodule_commutator.self_s", "s"),
        ("diagonals.unitize_diagonal.self_s", "s"),
        ("diagonals.pi_map.self_s", "s"),
        ("embedding.certify_E_family.self_s", "s"),
        ("embedding.certify_embedding_bounds.self_s", "s"),
        ("embedding.phi.calls", "count"),
        ("embedding.phi.self_s", "s"),
        ("embedding.phi_sup_norm.self_s", "s"),
        ("embedding.l1_trace_norm.self_s", "s"),
        ("embedding.make_trace.calls", "count"),
        ("embedding.make_trace.self_s", "s"),
        ("embedding.best_subset_sum.calls", "count"),
        ("embedding.best_subset_sum.self_s", "s"),
        ("embedding.brute_force_best_subset.calls", "count"),
        ("embedding.brute_force_best_subset.self_s", "s"),
        ("matrices.matmul_exact.calls", "count"),
        ("matrices.matmul_exact.self_s", "s"),
        ("matrices.matmul_exact.mults", "count"),
        ("matrices.matmul_float.calls", "count"),
        ("matrices.kron_exact.calls", "count"),
        ("matrices.kron_exact.self_s", "s"),
        ("matrices.kron_exact.entries", "count"),
        ("matrices.mul_scalar_exact.calls", "count"),
        ("matrices.mul_scalar_exact.self_s", "s"),
        ("matrices.exact_ctor.calls", "count"),
        ("matrices.exact_ctor.self_s", "s"),
        ("matrices.to_float.calls", "count"),
        ("matrices.to_float.self_s", "s"),
        ("matrices.svd.calls", "count"),
        ("matrices.svd.self_s", "s"),
        ("matrices.exact_max_bits", "bit"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


def is_exact_count(name: str) -> bool:
    """Metrics that must repeat exactly between traced runs of the same code."""
    return name.endswith((".calls", ".mults", ".entries", "_bits", "_bytes"))


def _bits(q) -> int:
    if isinstance(q, int):
        return abs(q).bit_length()
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def max_entry_bits(m) -> int:
    """Largest numerator or denominator bit length over the exact entries."""
    best = 0
    for i in range(m.rows):
        for j in range(m.cols):
            re_part, im_part = m.entry(i, j)
            best = max(best, _bits(re_part), _bits(im_part))
    return best


def _both_exact(a, b) -> bool:
    return bool(getattr(a, "is_exact", False) and getattr(b, "is_exact", False))


def install(tracer) -> None:
    """Wrap every traced opalg callable in every namespace that binds it."""
    mod = {name: importlib.import_module(f"opalg.{name}") for name in
           ("cli", "chains", "generation", "diagonals", "embedding", "matrices")}
    Matrix = mod["matrices"].Matrix

    def after_matmul(label, args, result):
        if label == "matrices.matmul_exact":
            a, b = args
            tracer.counts["matrices.matmul_exact.mults"] += a.rows * a.cols * b.cols
            bits = max_entry_bits(result)
            if bits > tracer.maxima["matrices.exact_max_bits"]:
                tracer.maxima["matrices.exact_max_bits"] = bits

    def after_kron(label, args, result):
        if label == "matrices.kron_exact":
            tracer.counts["matrices.kron_exact.entries"] += result.rows * result.cols

    def mul_label(m, scalar):
        exact = m.is_exact and isinstance(scalar, (numbers.Rational, tuple, list))
        return "matrices.mul_scalar_exact" if exact else "matrices.mul_scalar_float"

    tracer.install(Matrix, "__matmul__",
                   lambda a, b: "matrices.matmul_exact" if _both_exact(a, b) else "matrices.matmul_float",
                   after_matmul)
    tracer.install(Matrix, "kron",
                   lambda a, b: "matrices.kron_exact" if _both_exact(a, b) else "matrices.kron_float",
                   after_kron)
    tracer.install(Matrix, "__mul__", mul_label)
    tracer.install(Matrix, "exact", "matrices.exact_ctor")
    tracer.install(Matrix, "to_float", "matrices.to_float")
    tracer.install(mod["diagonals"].TensorElem, "flatten", "diagonals.flatten")
    for module, attr, span in FUNCTIONS:
        tracer.install(mod[module], attr, span)


def metrics(tracer, stage_seconds: dict, payload_bytes: int) -> dict:
    """Per-layer metric values (without ``trace.overhead_ratio``) from
    one traced invocation."""
    out = {}
    for name, _unit in PER_LAYER:
        if name.startswith("cli.stage."):
            value = stage_seconds.get(name[len("cli.stage."):-2], 0.0)
        elif name == "cli.emit_report_s":
            value = tracer.self_s.get("cli.emit_report", 0.0)
        elif name == "cli.payload_bytes":
            value = payload_bytes
        elif name == "trace.overhead_ratio":
            continue
        elif name.endswith(".calls"):
            value = tracer.calls.get(name[:-6], 0)
        elif name.endswith(".self_s"):
            value = tracer.self_s.get(name[:-7], 0.0)
        elif name in tracer.maxima:
            value = tracer.maxima[name]
        else:
            value = tracer.counts.get(name, 0)
        out[name] = value
    return out
