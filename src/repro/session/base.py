"""Runner base class: one class per paper artifact.

A :class:`Runner` wraps one experiment (a figure or table of the paper,
or an extension study) behind a uniform interface:

* :meth:`Runner.execute` computes the result object through a
  :class:`~repro.session.session.Session` — all solo references and
  co-runs go through the session's shared caches, so independent
  artifacts reuse each other's measurements;
* :meth:`Runner.render` turns a result into the CLI's text artifact;
* :meth:`Runner.encode` / :meth:`Runner.decode` convert the result to
  and from a JSON-able payload for :class:`~repro.session.record.RunRecord`
  round-trips.

Concrete runners live next to their result types in ``repro.core.*``
and register themselves with
:func:`~repro.session.registry.register_runner`.
"""

from __future__ import annotations

import abc
import dataclasses
import enum
import hashlib
import json
from typing import Any, ClassVar


#: Instance ``__dict__`` slot a frozen dataclass caches its digest in.
#: Never a dataclass field, so ``asdict``, ``==``, ``hash`` and every
#: persisted key ignore it; pickling carries it along unchanged.
_DIGEST_SLOT = "_fingerprint_digest"


def fingerprint(*parts: Any) -> str:
    """Stable short hash of dataclass configuration objects.

    The one keying function of the whole system: in-memory session
    caches, the on-disk store layout and scenario identities all hash
    through here, which is what lets a result persisted by one process
    warm any later one.

    A single frozen-dataclass argument (a ``MachineSpec``, say) is
    hashed once per instance: the digest is cached on the instance
    itself, so re-keying the same value costs a dict lookup.  Frozen
    dataclasses are value objects here — derivation goes through
    :func:`dataclasses.replace`, which builds a fresh, uncached
    instance.
    """
    if len(parts) == 1:
        value = parts[0]
        state = getattr(value, "__dict__", None)
        if state is not None:
            cached = state.get(_DIGEST_SLOT)
            if cached is not None:
                return cached
            params = getattr(type(value), "__dataclass_params__", None)
            if params is not None and params.frozen:
                digest = _digest(parts)
                object.__setattr__(value, _DIGEST_SLOT, digest)
                return digest
    return _digest(parts)


def _digest(parts: tuple[Any, ...]) -> str:
    blob = json.dumps(
        [
            dataclasses.asdict(p) if hasattr(p, "__dataclass_fields__") else p
            for p in parts
        ],
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def jsonify(obj: Any) -> Any:
    """Recursively convert a result object into JSON-able data.

    Dataclasses become field dicts, enums their values, tuple-keyed
    dicts a list of ``[*key, value]`` rows, tuples lists.  This is the
    default :meth:`Runner.encode`; runners with richer needs override
    ``encode``/``decode``.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonify(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return jsonify(obj.value)
    if isinstance(obj, dict):
        if all(isinstance(k, str) for k in obj):
            return {k: jsonify(v) for k, v in obj.items()}
        # Tuple-keyed matrices (e.g. Fig 5 cells) -> [*key, value] rows.
        return [
            [*(jsonify(p) for p in (k if isinstance(k, tuple) else (k,))), jsonify(v)]
            for k, v in obj.items()
        ]
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, float):
        return float(obj)
    return obj


class Runner(abc.ABC):
    """One paper artifact as an executable, renderable, serializable unit."""

    #: Artifact id (``"fig5"``, ``"table3"``, ...) — set by ``@register_runner``.
    name: ClassVar[str] = ""
    #: One-line human description shown by ``repro list``.
    title: ClassVar[str] = ""
    #: Paper artifacts run by :meth:`Session.run_all`; extension studies
    #: that need explicit arguments (``allocation``, ``efficiency``) opt out.
    artifact: ClassVar[bool] = True
    #: Sort key: the paper's artifact order (Table I first, Table IV last).
    order: ClassVar[int] = 1000

    @abc.abstractmethod
    def execute(self, session: Any, **kwargs: Any) -> Any:
        """Compute the result object using the session's shared state."""

    def render(self, result: Any, **options: Any) -> str:
        """Text rendering of the result (the CLI's output)."""
        return str(result)

    def encode(self, result: Any) -> Any:
        """JSON-able payload for :class:`RunRecord` serialization."""
        return jsonify(result)

    def decode(self, payload: Any) -> Any:
        """Inverse of :meth:`encode`; the default returns the raw payload."""
        return payload
