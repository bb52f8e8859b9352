"""Network model: parse grid descriptions, build the conductance Laplacian, partition it.

A grid document is JSON with four top-level keys::

    {
      "sources": [{"id": 1, "V": 300.0, "L": 2e-3, "C": 2e-3, "k": 1.0}, ...],
      "loads":   [{"id": 5, "P": 1000.0}, ...],
      "lines":   [{"a": 1, "b": 5, "r": 1.0}, ...],
      "control": {"u_ref": 89.64, "b": 1e-3}
    }

Units: volts, henries, farads, ohms, watts. Sources are converter buses with
virtual resistance k (droop); loads draw constant power P >= 0. Lines are purely
resistive. Node ordering everywhere downstream is sources in declaration order,
then loads in declaration order.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ._record import Record
from .errors import SpecError

__all__ = [
    "SourceNode",
    "LoadNode",
    "Line",
    "ControlParams",
    "NetworkSpec",
    "AdmittancePartition",
    "parse_network",
    "load_network",
    "build_admittance",
    "check_connected",
]


@dataclass(frozen=True)
class SourceNode:
    id: int | str
    V: float      # converter input voltage
    L: float      # filter inductance
    C: float      # output capacitance
    k: float      # virtual resistance (droop), ohms


@dataclass(frozen=True)
class LoadNode:
    id: int | str
    P: float      # constant power draw, watts, >= 0


@dataclass(frozen=True)
class Line:
    a: int | str
    b: int | str
    r: float      # ohms, > 0


@dataclass(frozen=True)
class ControlParams:
    u_ref: float  # voltage reference, volts
    b: float      # virtual-inductance coefficient, X = b*K


@dataclass(frozen=True)
class NetworkSpec:
    sources: tuple[SourceNode, ...]
    loads: tuple[LoadNode, ...]
    lines: tuple[Line, ...]
    control: ControlParams

    @property
    def n(self) -> int:
        return len(self.sources)

    @property
    def m(self) -> int:
        return len(self.loads)

    def k_diag(self) -> np.ndarray:
        return np.array([s.k for s in self.sources], dtype=float)

    def c_diag(self) -> np.ndarray:
        return np.array([s.C for s in self.sources], dtype=float)

    def p_vector(self) -> np.ndarray:
        return np.array([l.P for l in self.loads], dtype=float)


@dataclass(frozen=True)
class AdmittancePartition(Record):
    """Conductance Laplacian of the full grid and its source/load blocks.

    Y is (n+m)x(n+m), symmetric, zero row sums, nonpositive off-diagonals.
    Blocks follow the fixed node ordering: Y = [[Y_SS, Y_SL], [Y_LS, Y_LL]].
    """

    Y: np.ndarray
    Y_SS: np.ndarray
    Y_SL: np.ndarray
    Y_LS: np.ndarray
    Y_LL: np.ndarray


def _require(cond, message, field):
    if not cond:
        raise SpecError(message, field=field)


def _number(obj, key, path, positive=False, nonnegative=False):
    """obj[key] as a finite float; the field path is formatted only for an error."""
    problem = (_number_problem(obj[key], positive, nonnegative) if key in obj
               else "missing required key")
    if problem:
        raise SpecError(problem, field=f"{path}.{key}")
    return float(obj[key])


def _number_problem(val, positive=False, nonnegative=False):
    """Why val is not an acceptable number, or None. Booleans, non-numbers, NaN,
    infinities and integers beyond the float range are rejected."""
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        return "expected a number"
    try:
        finite = math.isfinite(val)
    except OverflowError:
        finite = False
    if not finite:
        return "must be finite"
    if positive and not val > 0:
        return "must be > 0"
    if nonnegative and not val >= 0:
        return "must be >= 0"
    return None


def _node_id(obj, key, path):
    _require(key in obj, "missing required key", f"{path}.{key}")
    val = obj[key]
    _require(isinstance(val, (str, int)) and not isinstance(val, bool),
             "node id must be a string or an integer", f"{path}.{key}")
    return val


def parse_network(document: dict) -> NetworkSpec:
    """Validate a grid document and return the immutable NetworkSpec.

    Raises SpecError with a dotted field path on any schema violation: an id
    that is not a string or an integer, duplicate ids, nonpositive
    resistance/capacitance, dangling line endpoints, parallel lines, self
    loops, or a disconnected graph.
    """
    _require(isinstance(document, dict), "document must be a JSON object", "$")
    for key in ("sources", "loads", "lines", "control"):
        _require(key in document, "missing required key", f"$.{key}")

    sources = []
    seen_ids = set()
    _require(isinstance(document["sources"], list) and len(document["sources"]) >= 1,
             "need at least one source", "sources")
    for i, s in enumerate(document["sources"]):
        path = f"sources[{i}]"
        _require(isinstance(s, dict), "expected an object", path)
        node = _node_id(s, "id", path)
        _require(node not in seen_ids, "duplicate node id", f"{path}.id")
        seen_ids.add(node)
        sources.append(SourceNode(
            id=node,
            V=_number(s, "V", path, positive=True),
            L=_number(s, "L", path, positive=True),
            C=_number(s, "C", path, positive=True),
            k=_number(s, "k", path, positive=True),
        ))

    loads = []
    _require(isinstance(document["loads"], list) and len(document["loads"]) >= 1,
             "need at least one load", "loads")
    for i, l in enumerate(document["loads"]):
        path = f"loads[{i}]"
        _require(isinstance(l, dict), "expected an object", path)
        node = _node_id(l, "id", path)
        _require(node not in seen_ids, "duplicate node id", f"{path}.id")
        seen_ids.add(node)
        loads.append(LoadNode(id=node, P=_number(l, "P", path, nonnegative=True)))

    lines = []
    seen_pairs = set()
    _require(isinstance(document["lines"], list), "expected a list", "lines")
    for i, e in enumerate(document["lines"]):
        path = f"lines[{i}]"
        _require(isinstance(e, dict), "expected an object", path)
        for end in ("a", "b"):
            _require(_node_id(e, end, path) in seen_ids,
                     "line endpoint is not a declared node", f"{path}.{end}")
        _require(e["a"] != e["b"], "self loop not allowed", path)
        pair = frozenset((e["a"], e["b"]))
        _require(pair not in seen_pairs, "duplicate line between the same nodes", path)
        seen_pairs.add(pair)
        lines.append(Line(a=e["a"], b=e["b"], r=_number(e, "r", path, positive=True)))

    ctrl = document["control"]
    _require(isinstance(ctrl, dict), "expected an object", "control")
    control = ControlParams(
        u_ref=_number(ctrl, "u_ref", "control", positive=True),
        b=_number(ctrl, "b", "control", positive=True),
    )

    spec = NetworkSpec(sources=tuple(sources), loads=tuple(loads),
                       lines=tuple(lines), control=control)
    _require(check_connected(spec), "graph not connected", "lines")
    return spec


def _read_json(path):
    """The document in a JSON file; malformed JSON is a SpecError at field "$"."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON: {exc}", field="$") from exc


def load_network(path) -> NetworkSpec:
    """Read and parse a grid document from a JSON file."""
    return parse_network(_read_json(path))


def check_connected(spec: NetworkSpec) -> bool:
    """True iff the undirected graph over all n+m nodes is connected (BFS)."""
    nodes = [s.id for s in spec.sources] + [l.id for l in spec.loads]
    adj = {node: [] for node in nodes}
    for line in spec.lines:
        adj[line.a].append(line.b)
        adj[line.b].append(line.a)
    seen = {nodes[0]}
    queue = deque([nodes[0]])
    while queue:
        node = queue.popleft()
        for nb in adj[node]:
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return len(seen) == len(nodes)


def build_admittance(spec: NetworkSpec) -> AdmittancePartition:
    """Assemble the conductance Laplacian Y and its source/load blocks.

    Y[i,j] = -1/r_ij for each line, diagonals are the positive sums of
    incident conductances, so rows sum to zero by construction.
    """
    if not check_connected(spec):
        raise SpecError("graph not connected", field="lines")
    n, m = spec.n, spec.m
    order = {s.id: i for i, s in enumerate(spec.sources)}
    order.update({l.id: n + i for i, l in enumerate(spec.loads)})
    Y = np.zeros((n + m, n + m))
    for line in spec.lines:
        g = 1.0 / line.r
        i, j = order[line.a], order[line.b]
        Y[i, i] += g
        Y[j, j] += g
        Y[i, j] -= g
        Y[j, i] -= g
    return AdmittancePartition(
        Y=Y,
        Y_SS=Y[:n, :n].copy(),
        Y_SL=Y[:n, n:].copy(),
        Y_LS=Y[n:, :n].copy(),
        Y_LL=Y[n:, n:].copy(),
    )
