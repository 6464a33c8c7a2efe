"""Self-time tracing by wrapping public functions from outside the program.

A :class:`Tracer` replaces named functions and methods of already-imported
modules with timing wrappers for the duration of a ``with tracer.installed(
targets):`` block, and puts the originals back when the block exits, even
on error.  Every wrapped call is a span on one in-process stack, so a span's
*self* time is its duration minus the durations of the wrapped calls made
inside it.  Nothing inside the program is edited.

Only the process that installed the wrappers records anything: work a
worker process does (``--jobs 2``) is invisible here and shows up as self
time of the span that waited for it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Called as ``hook(tracer, args, result)`` after a wrapped call returns.
ResultHook = Callable[["Tracer", tuple, object], None]


@dataclass(frozen=True)
class Target:
    """One function or method to wrap, and the metric its time goes to.

    ``name`` is ``"function"`` or ``"Class.method"`` inside ``module``.
    ``key`` is the per-layer metric prefix (``"engine.fingerprint"``); its
    part before the first dot is the layer.  ``key=None`` observes results
    only and opens no span.  With ``everywhere`` the function is replaced
    in every module of ``scope`` that imported it by name; otherwise only
    in ``module`` itself (used for the solver passes, which recurse through
    their own module's names).
    """

    module: str
    name: str
    key: Optional[str]
    on_result: Optional[ResultHook] = None
    everywhere: bool = True


@dataclass
class _Frame:
    key: str
    label: str
    start: float
    child: float = 0.0


#: The layer whose root spans are split by the layer that called them.
SPLIT_LAYER = "solver"


def layer_of(key: Optional[str]) -> str:
    return key.split(".", 1)[0] if key else "none"


@dataclass
class Tracer:
    """Accumulates self time per metric key and calls per wrapped target."""

    clock: Callable[[], float] = time.perf_counter
    self_s: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    #: Inclusive time and number of root spans of :data:`SPLIT_LAYER`, by
    #: the layer of the span that called them.
    under_s: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    under_n: Counter = field(default_factory=Counter)
    #: Engines seen by the result hooks, by ``id``; their counters are read
    #: at the end.
    engines: Dict[int, object] = field(default_factory=dict)
    #: Wall time spent inside :meth:`paused` blocks.
    paused_s: float = 0.0
    _paused: bool = False
    _stack: List[_Frame] = field(default_factory=list)

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Calls made inside the block are neither timed nor counted.

        Only valid outside every span, so the paused time belongs to none.
        """
        if self._stack:
            raise RuntimeError("cannot pause inside an open span")
        start = self.clock()
        self._paused = True
        try:
            yield
        finally:
            self._paused = False
            self.paused_s += self.clock() - start

    def _close(self, frame: _Frame) -> None:
        popped = self._stack.pop()
        if popped is not frame:  # pragma: no cover - wrappers nest strictly
            raise RuntimeError(f"span stack corrupted: closing {frame.label}")
        duration = self.clock() - frame.start
        self.self_s[frame.key] += duration - frame.child
        self.calls[frame.label] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += duration
        if layer_of(frame.key) == SPLIT_LAYER:
            caller = layer_of(parent.key) if parent is not None else "none"
            if caller != SPLIT_LAYER:
                self.under_s[caller] += duration
                self.under_n[caller] += 1

    def wrap(self, target: Target, label: str, func: Callable) -> Callable:
        tracer = self
        key, hook = target.key, target.on_result

        if key is None:
            @functools.wraps(func)
            def observe(*args, **kwargs):
                result = func(*args, **kwargs)
                if not tracer._paused:
                    hook(tracer, args, result)
                return result

            return observe

        @functools.wraps(func)
        def timed(*args, **kwargs):
            if tracer._paused:
                return func(*args, **kwargs)
            frame = _Frame(key, label, tracer.clock())
            tracer._stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(frame)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return timed

    @contextlib.contextmanager
    def installed(
        self, targets: Sequence[Target], scope: Tuple[str, ...] = ("repro",)
    ) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block, then restore.

        Modules of ``scope`` must already be imported: a module imported
        inside the block binds whatever its ``from x import f`` finds then.
        """
        restore: List[Tuple[object, str, object]] = []
        try:
            for target in targets:
                self._install(target, scope, restore)
            yield self
        finally:
            for owner, attribute, original in reversed(restore):
                setattr(owner, attribute, original)

    def _install(
        self,
        target: Target,
        scope: Tuple[str, ...],
        restore: List[Tuple[object, str, object]],
    ) -> None:
        module = importlib.import_module(target.module)
        label = target.name
        if "." in target.name:
            class_name, method = target.name.split(".", 1)
            cls = getattr(module, class_name)
            original = cls.__dict__[method]
            restore.append((cls, method, original))
            setattr(cls, method, self.wrap(target, label, original))
            return
        original = getattr(module, target.name)
        wrapper = self.wrap(target, label, original)
        owners = [module]
        if target.everywhere:
            owners = [
                candidate
                for name, candidate in list(sys.modules.items())
                if candidate is not None
                and name.split(".", 1)[0] in scope
                and vars(candidate).get(target.name) is original
            ]
        for owner in owners:
            restore.append((owner, target.name, original))
            setattr(owner, target.name, wrapper)
