"""Per-layer spans recorded from outside the program.

Each public function is wrapped under the name its caller looks it up by
(``tcnad.forecaster.temporal_attention`` is the name ``forward`` calls,
``tcnad.cli.read_scores_csv`` the name ``cmd_threshold`` calls), so nothing in
``src/`` changes. Backward time is assigned to the forward span that recorded
the op: ``Tape.record`` is wrapped so each backward rule it stores is timed and
charged to the model layer that was active when the op ran.

Spans are inclusive: a span's time covers every call made through that name,
including calls nested in other spans (``load_checkpoint`` calls
``init_forecaster``; ``pot_threshold`` calls ``fit_gpd``). Model-layer spans
never nest each other, so their sum plus the reported remainder is the phase.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# (module, attribute, span) for plain call spans.
CALL_SPANS = [
    ("data", "load_channel", "data.load_channel"),
    ("data", "compute_stats", "data.compute_stats"),
    ("data", "normalize", "data.normalize"),
    ("data", "read_manifest", "data.read_manifest"),
    ("cli", "read_manifest", "data.read_manifest"),
    ("cli", "read_scores_csv", "data.read_scores_csv"),
    ("trainer", "build_windows", "trainer.build_windows"),
    ("forecaster", "init_forecaster", "forecaster.init_forecaster"),
    ("forecaster", "save_checkpoint", "forecaster.save_checkpoint"),
    ("forecaster", "load_checkpoint", "forecaster.load_checkpoint"),
    ("trainer", "backward", "autodiff.backward"),
    ("trainer", "adam_step", "optim.adam_step"),
    ("thresholds", "best_f1_threshold", "thresholds.best_f1_threshold"),
    ("thresholds", "epsilon_threshold", "thresholds.epsilon_threshold"),
    ("thresholds", "pot_threshold", "thresholds.pot_threshold"),
    ("thresholds", "fit_gpd", "thresholds.fit_gpd"),
    ("cli", "best_f1_threshold", "thresholds.best_f1_threshold"),
    ("cli", "epsilon_threshold", "thresholds.epsilon_threshold"),
    ("cli", "pot_threshold", "thresholds.pot_threshold"),
    ("evaluation", "point_adjusted_report", "evaluation.point_adjusted_report"),
    ("cli", "point_adjusted_report", "evaluation.point_adjusted_report"),
    ("cli", "aggregate", "evaluation.aggregate"),
]

# (module, attribute, layer) for model layers inside ``forecaster.forward``.
LAYER_SPANS = [
    ("forecaster", "causal_dilated_conv1d", "forecaster.preconv"),
    ("forecaster", "add", "forecaster.preconv"),
    ("forecaster", "temporal_attention", "attention.temporal"),
    ("forecaster", "variable_attention", "attention.variable"),
    ("forecaster", "take_row", "forecaster.mlp"),
    ("forecaster", "linear", "forecaster.mlp"),
    ("forecaster", "leaky_relu", "forecaster.mlp"),
    ("forecaster", "dropout", "forecaster.mlp"),
    ("forecaster", "reshape", "forecaster.mlp"),
    ("trainer", "rmse_loss", "autodiff.rmse_loss"),
]

# Phases: spans whose inner layer time is reported as fwd (train) or infer (score).
PHASE_SPANS = [
    ("trainer", "train", "trainer.train", "fwd"),
    ("thresholds", "anomaly_scores", "thresholds.anomaly_scores", "infer"),
]


class Tracer:
    """Installs the wrappers and accumulates seconds per span, calls and records.

    ``clock.stolen`` is the time the speed samples have taken so far; it is
    subtracted from every span a sample interrupts. ``end_pass`` folds a
    pass's seconds into ``totals``, scaled to the reference speed.
    """

    def __init__(self, modules: dict, clock):
        self.modules = modules
        self.clock = clock
        self.seconds: dict[str, float] = defaultdict(float)
        self.totals: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.records = 0
        self._kind = None       # "fwd" or "infer" inside a phase span
        self._layer = None      # innermost model layer, for Tape.record
        self._block = 0         # index of the next TCN block in this forward
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self):
        mods = self.modules
        for mod, attr, span in CALL_SPANS:
            self._patch(mods[mod], attr, self._call_span(getattr(mods[mod], attr), span))
        for mod, attr, layer in LAYER_SPANS:
            self._patch(mods[mod], attr, self._layer_span(getattr(mods[mod], attr), lambda l=layer: l))
        for mod, attr, span, kind in PHASE_SPANS:
            self._patch(mods[mod], attr, self._phase_span(getattr(mods[mod], attr), span, kind))
        self._patch(mods["forecaster"], "tcn_forward", self._tcn_stack(mods["forecaster"].tcn_forward))
        self._patch(mods["tcn"], "tcn_block_forward",
                    self._layer_span(mods["tcn"].tcn_block_forward, self._next_block))
        self._patch(mods["cli"], "main", self._cli_span(mods["cli"].main))
        tape = mods["autodiff"].Tape
        self._patch(tape, "record", self._record(tape.record))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def end_pass(self, scale: float):
        for key, seconds in self.seconds.items():
            self.totals[key] += seconds * scale
        self.seconds.clear()

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _timed(self, fn, args, kwargs, key):
        """Call ``fn`` and charge its time, less any speed samples, to ``key``."""
        stolen, t0 = self.clock.stolen, time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[key] += time.perf_counter() - t0 - (self.clock.stolen - stolen)

    def _call_span(self, fn, span):
        def wrapper(*args, **kwargs):
            self.calls[span] += 1
            return self._timed(fn, args, kwargs, span)

        return wrapper

    def _phase_span(self, fn, span, kind):
        def wrapper(*args, **kwargs):
            outer, self._kind = self._kind, kind
            try:
                return self._timed(fn, args, kwargs, span)
            finally:
                self._kind = outer

        return wrapper

    def _layer_span(self, fn, name_of):
        def wrapper(*args, **kwargs):
            kind = self._kind
            if kind is None:
                return fn(*args, **kwargs)
            layer = name_of()
            outer, self._layer = self._layer, layer
            try:
                return self._timed(fn, args, kwargs, f"{layer}.{kind}")
            finally:
                self._layer = outer

        return wrapper

    def _next_block(self) -> str:
        name = f"tcn.block{self._block}"
        self._block += 1
        return name

    def _tcn_stack(self, fn):
        def wrapper(*args, **kwargs):
            self._block = 0
            return fn(*args, **kwargs)

        return wrapper

    def _cli_span(self, fn):
        def wrapper(argv=None):
            return self._timed(fn, (argv,), {}, f"cli.{argv[0] if argv else 'none'}")

        return wrapper

    def _record(self, original):
        def record(tape, out, rule):
            self.records += 1
            layer = self._layer
            if layer is not None:
                key = f"{layer}.bwd"

                def timed_rule(g, rule=rule):
                    self._timed(rule, (g,), {}, key)

                rule = timed_rule
            return original(tape, out, rule)

        return record
