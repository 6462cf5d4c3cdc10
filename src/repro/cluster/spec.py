"""Declarative executor specification: one object names the backend.

An :class:`ExecutorSpec` carries the backend *and* its validated options
as one frozen value:

* :class:`SimulatedSpec` — sequential metered execution (no options);
* :class:`MultiprocessingSpec` — owned local worker processes over
  socketpairs (``processes``, ``start_method``);
* :class:`SocketSpec` — the same workers over TCP
  (:class:`~repro.cluster.socket_executor.SocketExecutor`): either
  ``addresses`` of externally started workers or locally spawned
  loopback workers, plus connection/heartbeat deadlines.

The single factory :func:`~repro.cluster.executor.make_executor`
resolves a spec — or its string shorthand — into the executor instance.

String shorthands (the CLI surface)
-----------------------------------
``parse`` understands::

    simulated
    multiprocessing              # one worker process per machine
    multiprocessing:8            # 8 worker processes
    socket                       # spawn loopback workers, one per machine
    socket:4                     # spawn 4 loopback workers
    socket:127.0.0.1:9100,9101   # connect to externally started workers
    socket:h1:9100,9101;h2:9100  # multiple hosts (';'-separated groups)

``describe()`` is the inverse: it renders a spec back into its canonical
shorthand, so configs stay JSON-serializable.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, ClassVar, Tuple

__all__ = [
    "ExecutorSpec",
    "SimulatedSpec",
    "MultiprocessingSpec",
    "SocketSpec",
    "as_spec",
    "spec_summary",
]

@dataclass(frozen=True)
class ExecutorSpec:
    """Base class of all executor specifications.

    Subclasses set :attr:`kind`, add their option fields (all with
    defaults, so ``Spec()`` is always valid) and override
    :meth:`validate` / :meth:`describe` as needed.
    """

    kind: ClassVar[str] = ""

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> "ExecutorSpec":
        """Check every option; raise ``ValueError`` naming the bad one.

        Returns ``self`` so call sites can chain ``spec.validate()``.
        """
        return self

    def with_overrides(self, **changes) -> "ExecutorSpec":
        """A copy with the given option fields replaced (frozen-safe)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # String form
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """The spec's canonical string shorthand."""
        return self.kind

    @staticmethod
    def parse(text: str) -> "ExecutorSpec":
        """Parse a string shorthand (see the module docstring).

        Raises ``ValueError`` for unknown kinds or malformed options.
        """
        head, sep, rest = text.strip().partition(":")
        cls = _SPECS.get(head)
        if cls is None:
            raise ValueError(f"unknown executor {head!r}; expected one of {tuple(_SPECS)}")
        return cls._parse_options(rest if sep else "").validate()

    @classmethod
    def _parse_options(cls, rest: str) -> "ExecutorSpec":
        if rest:
            raise ValueError(
                f"executor {cls.kind!r} takes no ':'-options, got {rest!r}"
            )
        return cls()

    @staticmethod
    def coerce(value) -> "ExecutorSpec":
        """Coerce a spec, a shorthand string, or ``None`` to a spec.

        ``None`` means the default (:class:`SimulatedSpec`).  This is the
        one funnel every entry point pushes its ``executor`` argument
        through, so specs and strings are interchangeable everywhere.
        """
        if value is None:
            return SimulatedSpec()
        if isinstance(value, ExecutorSpec):
            return value.validate()
        if isinstance(value, str):
            return ExecutorSpec.parse(value)
        raise ValueError(
            f"executor must be an ExecutorSpec or one of {tuple(_SPECS)} "
            f"(string shorthands allowed), got {value!r}"
        )

    def __str__(self) -> str:
        return self.describe()


# `as_spec` reads better at call sites that already hold "maybe a spec".
as_spec: Callable[[object], ExecutorSpec] = ExecutorSpec.coerce


@dataclass(frozen=True)
class SimulatedSpec(ExecutorSpec):
    """Sequential metered execution on the simulated cluster."""

    kind: ClassVar[str] = "simulated"


@dataclass(frozen=True)
class _StartMethodOptions(ExecutorSpec):
    """Shared validation for specs that spawn local processes."""

    start_method: str | None = None

    def validate(self) -> "ExecutorSpec":
        if self.start_method is not None and self.start_method not in (
            "fork",
            "spawn",
            "forkserver",
        ):
            raise ValueError(
                f"{self.kind} start_method must be fork/spawn/forkserver "
                f"or None, got {self.start_method!r}"
            )
        return self


@dataclass(frozen=True)
class MultiprocessingSpec(_StartMethodOptions):
    """Owned local worker processes, each reached over a socketpair.

    Parameters
    ----------
    processes:
        Worker count; ``None`` means one per machine, capped at the CPU
        count.
    start_method:
        ``multiprocessing`` start method; ``None`` defers to
        ``REPRO_MP_START_METHOD``, then ``fork`` where available.

    Workers attach the graph's shared-memory export, or receive the
    graph inline where that export fails.
    """

    kind: ClassVar[str] = "multiprocessing"
    processes: int | None = None

    def validate(self) -> "ExecutorSpec":
        super().validate()
        if self.processes is not None and self.processes < 1:
            raise ValueError(
                f"multiprocessing processes must be >= 1 or None, got {self.processes}"
            )
        return self

    def describe(self) -> str:
        return self.kind if self.processes is None else f"{self.kind}:{self.processes}"

    @classmethod
    def _parse_options(cls, rest: str) -> "ExecutorSpec":
        if not rest:
            return cls()
        try:
            return cls(processes=int(rest))
        except ValueError:
            raise ValueError(
                f"multiprocessing options must be a worker count, got {rest!r}"
            ) from None


@dataclass(frozen=True)
class SocketSpec(_StartMethodOptions):
    """TCP workers, each logical machine served over a persistent socket.

    Parameters
    ----------
    addresses:
        ``(host, port)`` pairs of externally started workers
        (``repro worker --port ...``).  ``None`` (default) spawns
        loopback worker processes owned by the executor.
    workers:
        How many loopback workers to spawn when ``addresses`` is
        ``None``; defaults to one per machine, capped at the CPU count.
    start_method:
        Start method for spawned loopback workers.
    connect_timeout:
        Seconds allowed for connecting + enrolling each worker.
    heartbeat_timeout:
        Seconds a heartbeat ping may take before the worker is
        considered unreachable.
    graph_path:
        When set, enrollment tells workers to load the graph from this
        ``.npz`` file (:func:`repro.graphs.io.load_npz`) instead of
        shipping it over the wire — the real-cluster mode where every
        machine has the dataset on local disk.

    Otherwise spawned loopback workers attach the graph's shared-memory
    export (inline over the socket where that export fails), and
    external ``addresses`` always receive it over the wire.
    """

    kind: ClassVar[str] = "socket"
    addresses: Tuple[Tuple[str, int], ...] | None = None
    workers: int | None = None
    connect_timeout: float = 10.0
    heartbeat_timeout: float = 5.0
    graph_path: str | None = None

    def __post_init__(self) -> None:
        if self.addresses is not None:
            frozen = tuple((str(h), int(p)) for h, p in self.addresses)
            object.__setattr__(self, "addresses", frozen)

    def validate(self) -> "ExecutorSpec":
        super().validate()
        if self.addresses is not None:
            if not self.addresses:
                raise ValueError("socket addresses must be non-empty or None")
            for host, port in self.addresses:
                if not host or not 0 < port < 65536:
                    raise ValueError(
                        f"socket address {(host, port)!r} is not a valid (host, port)"
                    )
            if self.workers is not None:
                raise ValueError(
                    "socket workers= applies to spawned loopback workers only; "
                    "with addresses= the worker count is len(addresses)"
                )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"socket workers must be >= 1 or None, got {self.workers}")
        if self.connect_timeout <= 0:
            raise ValueError(
                f"socket connect_timeout must be positive, got {self.connect_timeout}"
            )
        if self.heartbeat_timeout <= 0:
            raise ValueError(
                f"socket heartbeat_timeout must be positive, got {self.heartbeat_timeout}"
            )
        return self

    def describe(self) -> str:
        if self.addresses is not None:
            groups: list[str] = []
            for host, port in self.addresses:
                prefix = f"{host}:"
                if groups and groups[-1].startswith(prefix):
                    groups[-1] += f",{port}"
                else:
                    groups.append(f"{host}:{port}")
            return f"{self.kind}:" + ";".join(groups)
        return self.kind if self.workers is None else f"{self.kind}:{self.workers}"

    @classmethod
    def _parse_options(cls, rest: str) -> "ExecutorSpec":
        if not rest:
            return cls()
        if rest.isdigit():
            return cls(workers=int(rest))
        addresses: list[Tuple[str, int]] = []
        for group in filter(None, (g.strip() for g in rest.split(";"))):
            host, sep, ports = group.rpartition(":")
            if not sep or not host:
                raise ValueError(
                    f"socket address group {group!r} must be HOST:PORT[,PORT...]"
                )
            for part in filter(None, (p.strip() for p in ports.split(","))):
                try:
                    addresses.append((host, int(part)))
                except ValueError:
                    raise ValueError(
                        f"socket port {part!r} in {group!r} is not an integer"
                    ) from None
        if not addresses:
            raise ValueError(f"socket options {rest!r} name no ports")
        return cls(addresses=tuple(addresses))


#: Spec class per kind, the map ``parse`` resolves a shorthand's head against.
_SPECS = {cls.kind: cls for cls in (SimulatedSpec, MultiprocessingSpec, SocketSpec)}


def spec_summary(spec: ExecutorSpec) -> dict:
    """A JSON-friendly dump of a spec (kind plus non-default options)."""
    out = {"kind": spec.kind}
    for field in fields(spec):
        value = getattr(spec, field.name)
        if value != field.default:
            out[field.name] = value
    return out
