"""Call hooks for the traced benchmark run.

The package's modules import functions from one another by name (for
example ``epoch_codec`` binds its own ``correctness_vector``), so patching
only the defining module would miss most calls.  ``Tracer.install`` wraps
every public function of every traced module once and rebinds the wrapper
at each module attribute that holds the original, plus a few methods that
the per-layer table names.  ``uninstall`` puts every original back.

Spans are aggregated as they close rather than kept one by one: per
function the call count, the calls that raised, and the inclusive time
(outermost activation only, so recursion is not counted twice); per module
the self time, which is span time minus the time covered by child spans.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import Counter, defaultdict

PACKAGE = "sgdcodec"
MODULES = (
    "numerics",
    "stable",
    "codec",
    "model",
    "sgd_engine",
    "epoch_codec",
    "harness",
    "cli",
)

# Methods are looked up through their class, so one binding covers them.
METHODS = (("numerics", "FixedVector", "gd_update"),)

# Every function the per-layer table names.  A name missing here means the
# program was renamed under the benchmark: fail instead of reading zero.
REQUIRED = (
    "model.correctness_vector",
    "model.loss_gradient",
    "model.generate_dataset",
    "sgd_engine.run_training",
    "sgd_engine.forward_step",
    "sgd_engine.reverse_step",
    "sgd_engine.reverse_epoch",
    "epoch_codec.encode_epoch",
    "epoch_codec.decode_epoch",
    "epoch_codec.predict_segments",
    "epoch_codec.epoch_accounting",
    "codec.encode_set_conditional",
    "codec.decode_set_conditional",
    "codec.perm_rank",
    "codec.perm_unrank",
    "numerics.verify_split_entropy",
    "numerics.FixedVector.gd_update",
    "numerics.quantize_vector",
    "stable.stable_log2",
    "stable.stable_entropy",
    "stable.stable_sigmoid_float",
    "harness.run_experiment",
    "harness.run_inequality_suite",
    "harness.verify_hoeffding",
    "cli.main",
)

REVERSE_STEP = "sgd_engine.reverse_step"
FORWARD_STEP = "sgd_engine.forward_step"


class HookError(RuntimeError):
    """A function the benchmark must hook is missing from the program."""


class Tracer:
    """Aggregated spans for the functions hooked while it is installed."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.raised: Counter[str] = Counter()
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.reverse_candidates = 0
        self._active: Counter[str] = Counter()
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def _call(self, name: str, module: str, fn, args, kwargs):
        self.calls[name] += 1
        if name == FORWARD_STEP and self._active[REVERSE_STEP]:
            self.reverse_candidates += 1
        self._active[name] += 1
        child = [0.0]
        self._stack.append(child)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.raised[name] += 1
            raise
        finally:
            span = time.perf_counter() - start
            self._stack.pop()
            self._active[name] -= 1
            self.self_s[module] += span - child[0]
            if self._stack:
                self._stack[-1][0] += span
            if not self._active[name]:
                self.inclusive[name] += span

    def _wrap(self, name: str, module: str, fn):
        call = self._call

        def hooked(*args, **kwargs):
            return call(name, module, fn, args, kwargs)

        hooked.__name__ = fn.__name__
        hooked.__qualname__ = fn.__qualname__
        hooked.__doc__ = fn.__doc__
        return hooked

    def install(self) -> None:
        """Wraps the traced functions at every place they are looked up."""
        if self._restore:
            raise HookError("tracer already installed")
        mods = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        wrappers: dict[int, object] = {}
        found: set[str] = set()
        for short, mod in zip(MODULES, mods):
            for attr, value in vars(mod).items():
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{short}.{attr}"
                    wrappers[id(value)] = self._wrap(name, short, value)
                    found.add(name)
        for mod in (*mods, importlib.import_module(PACKAGE)):
            for attr, value in list(vars(mod).items()):
                hook = wrappers.get(id(value))
                if hook is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hook)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[MODULES.index(short)], cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if not isinstance(fn, types.FunctionType):
                continue
            name = f"{short}.{cls_name}.{meth}"
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(name, short, fn))
            found.add(name)
        missing = [name for name in REQUIRED if name not in found]
        if missing:
            self.uninstall()
            raise HookError(f"hooked names missing from the program: {missing}")

    def uninstall(self) -> None:
        """Puts every original function back where it was found."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def writer_seconds(self) -> float:
        """Inclusive time of the artifact writers (write_* and emit_*)."""
        return sum(
            s
            for name, s in self.inclusive.items()
            if name.rsplit(".", 1)[-1].startswith(("write_", "emit_"))
        )
