"""Kernel-function registry and the execution-context glue.

Every profileable kernel function is declared with the :func:`kfunc`
decorator, which does three things:

1. registers the function's metadata (name, source module, whether it is
   an assembler routine, whether it is the context-switch function) — the
   registry is exactly what the instrumentation pass
   (:class:`repro.instrument.compiler.InstrumentingCompiler`) consumes as
   its "source tree";
2. wraps the function so that, at run time, entering and leaving it emits
   the Profiler triggers *when the function was compiled with profiling
   enabled* (the kernel holds the installed tag map) and charges the
   function's base cost to the simulated clock;
3. normalises the two calling conventions: plain functions (may not
   sleep) run synchronously; generator functions (``can_sleep=True``) are
   driven with ``yield from`` all the way up to the scheduler, which is
   how ``tsleep`` suspends a process through an arbitrarily deep call
   chain.

All kernel functions take the kernel instance as their first argument, by
convention named ``k``.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterable, TypeVar

#: ``co_flags`` bit of a generator function's code object, as
#: ``inspect.CO_GENERATOR``: :mod:`inspect` is not imported, since it and
#: the ``ast``, ``dis`` and ``tokenize`` it loads cost a fresh process
#: about 8 ms.
CO_GENERATOR = 0x20


class KFuncMeta:
    """Registry record for one kernel function.

    Satisfies the instrumentation pass's ``FunctionSymbol`` protocol
    (``name``, ``module``, ``is_asm``, ``context_switch``).  Every kernel
    call reads ``name`` and ``base_ns`` several times, so the fields are
    slots: CPython 3.11 reads a ``NamedTuple`` field at about four times
    the cost of a slot.
    """

    __slots__ = ("name", "module", "base_ns", "can_sleep", "is_asm", "context_switch")

    def __init__(
        self,
        name: str,
        module: str,
        base_ns: int,
        can_sleep: bool = False,
        is_asm: bool = False,
        context_switch: bool = False,
    ) -> None:
        self.name = name
        self.module = module
        self.base_ns = base_ns
        self.can_sleep = can_sleep
        self.is_asm = is_asm
        self.context_switch = context_switch


class KFuncError(Exception):
    """Bad kernel-function declaration."""


_REGISTRY: dict[str, KFuncMeta] = {}


def registered_functions() -> tuple[KFuncMeta, ...]:
    """Every declared kernel function, in declaration order."""
    return tuple(_REGISTRY.values())


def lookup(name: str) -> KFuncMeta:
    """Find one registered function's metadata."""
    return _REGISTRY[name]


F = TypeVar("F", bound=Callable[..., Any])


def kfunc(
    module: str,
    base_us: float = 0.0,
    name: str | None = None,
    can_sleep: bool = False,
    is_asm: bool = False,
    context_switch: bool = False,
) -> Callable[[F], F]:
    """Declare a kernel function.

    *module* is the source-module path used for selective (micro)
    profiling, e.g. ``"netinet/tcp_input"``.  *base_us* is the function's
    fixed body cost in microseconds — variable costs (per-byte copies,
    per-page walks) are charged explicitly inside the body via
    ``k.work(...)`` and the bus cost helpers.
    """

    def decorate(fn: F) -> F:
        fn_name = name if name is not None else fn.__name__
        is_generator = bool(fn.__code__.co_flags & CO_GENERATOR)
        if can_sleep and not is_generator:
            raise KFuncError(
                f"{fn_name}: can_sleep functions must be generators"
            )
        if is_generator and not can_sleep:
            raise KFuncError(
                f"{fn_name}: generator kernel functions must declare can_sleep"
            )
        meta = KFuncMeta(
            name=fn_name,
            module=module,
            base_ns=int(base_us * 1_000),
            can_sleep=can_sleep,
            is_asm=is_asm,
            context_switch=context_switch,
        )
        existing = _REGISTRY.get(fn_name)
        if existing is not None and existing.module != module:
            raise KFuncError(
                f"kernel function {fn_name!r} declared in both "
                f"{existing.module!r} and {module!r}"
            )
        _REGISTRY[fn_name] = meta

        if is_generator:

            @functools.wraps(fn)
            def wrapper(k, *args, **kwargs):  # type: ignore[no-untyped-def]
                return _sleeping_call(k, meta, fn, args, kwargs)

        else:

            @functools.wraps(fn)
            def wrapper(k, *args, **kwargs):  # type: ignore[no-untyped-def]
                k.enter(meta)
                try:
                    return fn(k, *args, **kwargs)
                finally:
                    k.leave(meta)

        wrapper.meta = meta  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]

    return decorate


def _sleeping_call(k, meta, fn, args, kwargs):  # type: ignore[no-untyped-def]
    """Generator wrapper: entry/exit triggers around a sleepable body."""
    k.enter(meta)
    try:
        result = yield from fn(k, *args, **kwargs)
    finally:
        k.leave(meta)
    return result


def register_asm(
    name: str, module: str, base_us: float = 0.0, context_switch: bool = False
) -> KFuncMeta:
    """Register an assembler routine that is driven manually.

    Some routines (``ISAINTR``, ``swtch``) are entered and left by the
    dispatch/scheduler machinery rather than through a Python call, so
    they register their metadata directly; the machinery calls
    ``k.enter(meta)`` / ``k.leave(meta)`` itself.
    """
    meta = KFuncMeta(
        name=name,
        module=module,
        base_ns=int(base_us * 1_000),
        is_asm=True,
        context_switch=context_switch,
    )
    existing = _REGISTRY.get(name)
    if existing is not None and existing.module != module:
        raise KFuncError(
            f"kernel function {name!r} declared in both "
            f"{existing.module!r} and {module!r}"
        )
    _REGISTRY[name] = meta
    return meta


def functions_in_modules(prefixes: Iterable[str]) -> tuple[KFuncMeta, ...]:
    """Registry subset whose module matches any prefix (micro-profiling)."""
    wanted = tuple(prefixes)
    selected = []
    for meta in _REGISTRY.values():
        for prefix in wanted:
            if meta.module == prefix or meta.module.startswith(prefix + "/"):
                selected.append(meta)
                break
    return tuple(selected)
