"""Span tracing of dstlab from outside the package, and per-layer metrics.

`Tracer.install` replaces every public function of every loaded `dstlab`
module with a wrapper, in every module that binds it (so names imported
with `from .network import forward_cached` are wrapped too). Each call
records one span: name, parent span, start, end, whether it raised, and a
note for the few calls whose size or result the metrics need. Spans stay
in memory; `layer_metrics` reduces them to the per-layer figures.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

# Call details some metrics need: the row count of a forward pass and the
# EM iteration count of a mixture fit.
NOTES: dict[str, Callable[[tuple, Any], Any]] = {
    "network.forward_cached": lambda args, result: len(args[1]),
    "gmm.fit": lambda args, result: result.iterations,
}


@dataclass
class Span:
    name: str  # "<module>.<function>", module without the package prefix
    parent: int  # index of the calling span, -1 at the top
    start: float
    end: float
    raised: bool = False
    note: Any = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def install(self, package: str = "dstlab") -> int:
        """Wrap the package's public functions; returns how many were wrapped."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == package]
        wrappers: dict[int, Callable] = {}
        for module in modules:
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__.split(".")[0] == package
                    and id(obj) not in wrappers
                ):
                    short = obj.__module__.split(".", 1)[-1]
                    wrappers[id(obj)] = self._wrap(obj, f"{short}.{obj.__name__}")
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(module, attr, wrappers[id(obj)])
        return len(wrappers)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, 0.0, 0.0)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = perf_counter()
                span.raised = True
                raise
            else:
                span.end = perf_counter()
                if note is not None:
                    span.note = note(args, result)
                return result
            finally:
                stack.pop()

        traced.__wrapped__ = fn
        return traced


def layer_metrics(spans: list[Span], warmup_epochs: int, batch_size: int) -> dict[str, float]:
    """Per-layer totals, counts and means from one traced `lab.run`.

    Times are in the unit their name gives. A total covers every call of
    that function, including the functions it calls.
    """
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name: str, parent: str | None = None) -> list[Span]:
        out = by_name.get(name, [])
        if parent is not None:
            out = [s for s in out if s.parent >= 0 and spans[s.parent].name == parent]
        return out

    def total(name: str, parent: str | None = None) -> float:
        return sum(s.seconds for s in calls(name, parent))

    def mean_us(group: list[Span]) -> float:
        return 1e6 * sum(s.seconds for s in group) / len(group) if group else 0.0

    runs = calls("lab.run")
    if len(runs) != 1:
        raise ValueError(f"expected one traced lab.run, found {len(runs)}")
    run_index = spans.index(runs[0])
    run_self = runs[0].seconds - sum(s.seconds for s in spans if s.parent == run_index)
    dst_epochs = calls("training.run_dst_epoch", "lab.run")
    forwards = calls("network.forward_cached")
    return {
        "lab.warmup_epoch_ms": 1e3 * total("training.plain_ce_epoch", "lab.run") / warmup_epochs,
        "lab.dst_epoch_ms": 1e3 * total("training.run_dst_epoch", "lab.run") / max(len(dst_epochs), 1),
        "lab.eval_s": total("training.accuracy", "lab.run")
        + total("training.ensemble_accuracy", "lab.run"),
        # The run's self time is mostly the manifest, report and summary writes.
        "lab.artifacts_s": run_self
        + total("data.save_dataset")
        + total("lossprofile.write_scatter")
        + total("network.save_checkpoint"),
        "training.batches": len(calls("network.sgd_step")),
        "training.ensemble_probs_s": total("training.ensemble_probs", "training.run_dst_epoch"),
        "training.refine_batch_s": total("training.refine_batch"),
        "training.mixup_batch_s": total("training.mixup_batch"),
        "training.batch_objective_s": total("training.batch_objective"),
        "training.plain_ce_epoch_s": total("training.plain_ce_epoch"),
        "network.forward_calls": len(forwards),
        "network.forward_s": total("network.forward_cached"),
        "network.forward_batch_us": mean_us([s for s in forwards if s.note <= batch_size]),
        "network.forward_full_us": mean_us([s for s in forwards if s.note > batch_size]),
        "network.backprop_s": total("network.backprop_from_logits"),
        "network.sgd_step_s": total("network.sgd_step"),
        "lossprofile.profile_s": total("lossprofile.profile"),
        "lossprofile.write_scatter_s": total("lossprofile.write_scatter"),
        "gmm.fits": len(calls("gmm.fit")),
        "gmm.em_iterations": sum(s.note for s in calls("gmm.fit") if not s.raised),
        "gmm.fit_s": total("gmm.fit"),
        "gmm.posteriors_s": total("gmm.posteriors"),
        "selection.co_divide_s": total("selection.co_divide"),
        "selection.fit_failures": sum(s.raised for s in calls("gmm.fit")),
        "selection.report_s": total("selection.selection_report"),
        "data.build_s": total("lab.build_datasets"),
    }
