"""In-process span tracer that wraps the tncse layers from outside the program.

Wrapped are the public module-level functions that each layer module defines
and three methods: ``Tensor.backward``, ``Encoder.encode`` and ``Adam.step``.
A function imported elsewhere with ``from .module import name`` is a second
binding of the same object (``sts_eval`` lives in ``evaluation`` and is bound
again in ``training``, ``ensemble`` and ``pipeline``), so every loaded
``tncse`` module is scanned and each binding of a wrapped function is
replaced.  Wrapping only the defining module would silently miss those calls.

Each call records one span ``[name, start, end, parent, attr]``, where
``parent`` is the index of the enclosing span (-1 at the root).  Spans stay
in memory until ``drain`` hands them over.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("data", "encoder", "autodiff", "losses", "training", "ensemble",
          "evaluation", "checkpoint", "pipeline")
METHODS = (("autodiff", "Tensor", "backward"), ("encoder", "Encoder", "encode"),
           ("training", "Adam", "step"))
# as_tensor converts arguments inside every primitive; it is not one itself
EXCLUDED = frozenset({"autodiff.as_tensor"})
# what the untraced run needs to time optimizer steps: when each batch is
# handed out and when each Adam update ends
PROBES = frozenset({"data.batch_iter", "training.Adam.step"})
EMBED = "training.ensemble_embed_fn.embed"

NAME, START, END, PARENT, ATTR = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self.paused = False
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _open(self, name, attr=None):
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, attr]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = perf_counter()
        self._stack.pop()

    def drain(self):
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("drain() called inside an open span")
        spans, self.spans = self.spans, []
        return spans

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, name_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            rec = tracer._open(name_of(args, kwargs) if name_of else name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)

        return wrapper

    def _wrap_generator(self, name, fn):
        """One span per item produced; the span's end is the hand-over time."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                rec = None if tracer.paused else tracer._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    if rec is not None:
                        tracer._close(rec)
                yield item

        return wrapper

    def _wrap_embed_factory(self, name, fn):
        """``ensemble_embed_fn`` returns a closure; its calls are spans too,
        carrying the sentences they embed."""
        tracer = self
        factory = self._wrap(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            embed = factory(*args, **kwargs)

            def traced_embed(sentences):
                if tracer.paused:
                    return embed(sentences)
                rec = tracer._open(EMBED, sentences)
                try:
                    return embed(sentences)
                finally:
                    tracer._close(rec)

            return traced_embed

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, only=None):
        """Wrap every layer function (or only the span names in ``only``)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"tncse.{layer}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in EXCLUDED or (only is not None and name not in only):
                    continue
                if inspect.isgeneratorfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap_generator(name, obj))
                elif name == "training.ensemble_embed_fn":
                    wrapped[id(obj)] = (obj, self._wrap_embed_factory(name, obj))
                else:
                    wrapped[id(obj)] = (obj, self._wrap(name, obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "tncse" and not modname.startswith("tncse."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for layer, cls_name, meth in METHODS:
            name = f"{layer}.{cls_name}.{meth}"
            if only is not None and name not in only:
                continue
            cls = getattr(sys.modules[f"tncse.{layer}"], cls_name)
            original = cls.__dict__[meth]
            name_of = _encode_name if name == "encoder.Encoder.encode" else None
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(name, original, name_of))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def _encode_name(args, kwargs):
    train = kwargs.get("train_mode", args[2] if len(args) > 2 else False)
    return "encoder.Encoder.encode[train]" if train else "encoder.Encoder.encode[eval]"


def self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]

