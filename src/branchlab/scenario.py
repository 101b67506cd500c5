"""Line-oriented scenario files naming functionals, trees, and params.

The format is deliberately small: section headers in brackets, one
directive per line, '#' to end of line is a comment.  Parsing is strict
and every complaint carries its line number.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .errors import ConsistencyError, ScenarioError
from .functionals import FunctionalTable
from .strings import parse_string, show_string, sort_lenlex
from .trees import StagedTree, Tree

_NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
_HEADER = re.compile(r"\[\s*(functional|tree|staged|params)"
                     r"(?:\s+(\S+))?\s*\]\Z")


@dataclass
class Scenario:
    functionals: dict[str, FunctionalTable] = field(default_factory=dict)
    trees: dict[str, Tree] = field(default_factory=dict)
    staged: dict[str, StagedTree] = field(default_factory=dict)
    params: dict[str, int] = field(default_factory=dict)
    seed: int = 0


def empty_scenario() -> Scenario:
    return Scenario()


def _int(tok: str, line: int, what: str, low: int = 0) -> int:
    try:
        v = int(tok, 10)
    except ValueError:
        raise ScenarioError(f"{what} {tok!r} is not an integer", line)
    if v < low:
        raise ScenarioError(f"{what} {v} is below {low}", line)
    return v


class _Parser:
    def __init__(self):
        self.sc = Scenario()
        self.names: dict[str, int] = {}
        self.kind = None          # current section kind
        self.name = None
        self.axioms: list[tuple[tuple, int]] = []
        self.nodes: set[str] = set()
        self.snaps: list[set[str]] = []
        self.seen_params = False
        self.seen_seed = False

    def claim(self, name: str, line: int) -> None:
        if not _NAME.match(name):
            raise ScenarioError(f"bad name {name!r}", line)
        if name in self.names:
            raise ScenarioError(
                f"duplicate name {name!r} (first used on line "
                f"{self.names[name]})", line)
        self.names[name] = line

    def close_section(self, line: int) -> None:
        if self.kind == "functional":
            try:
                table = FunctionalTable(tuple(a for a, _ in self.axioms))
            except ConsistencyError as e:
                lines = [ln for a, ln in self.axioms
                         if a in (e.first, e.second)] or [line]
                raise ScenarioError(
                    f"inconsistent axioms (lines {min(lines)} and "
                    f"{max(lines)}): {e}", max(lines))
            self.sc.functionals[self.name] = table
        elif self.kind == "tree":
            self.sc.trees[self.name] = Tree(self.nodes)
        elif self.kind == "staged":
            if not self.snaps:
                raise ScenarioError(
                    f"staged section {self.name!r} has no stage lines",
                    line)
            self.sc.staged[self.name] = StagedTree(tuple(self.snaps))
        self.kind = self.name = None
        self.axioms, self.nodes, self.snaps = [], set(), []

    def header(self, kind: str, name: str, line: int) -> None:
        self.close_section(line)
        if kind == "params":
            if name is not None:
                raise ScenarioError("[params] takes no name", line)
            if self.seen_params:
                raise ScenarioError("duplicate [params] section", line)
            self.seen_params = True
        elif name is None:
            raise ScenarioError(f"[{kind}] needs a name", line)
        else:
            self.claim(name, line)
        self.kind, self.name = kind, name

    def directive(self, toks: list[str], line: int) -> None:
        if self.kind is None:
            raise ScenarioError(f"{toks[0]!r} outside any section", line)
        if self.kind == "functional":
            if toks[0] != "axiom" or len(toks) != 5:
                raise ScenarioError(
                    "expected: axiom SIGMA ARG VALUE STEPS", line)
            try:
                sigma = parse_string(toks[1])
            except ValueError as e:
                raise ScenarioError(str(e), line)
            ax = (sigma, _int(toks[2], line, "argument"),
                  _int(toks[3], line, "value"),
                  _int(toks[4], line, "step count", low=1))
            self.axioms.append((ax, line))
        elif self.kind == "tree":
            self.nodes.add(self._node(toks, line))
        elif self.kind == "staged":
            if toks == ["stage"]:
                prev = self.snaps[-1] if self.snaps else set()
                self.snaps.append(set(prev))
            elif toks[0] == "node":
                if not self.snaps:
                    raise ScenarioError("node before the first stage",
                                        line)
                self.snaps[-1].add(self._node(toks, line))
            else:
                raise ScenarioError("expected: stage | node SIGMA", line)
        else:  # params
            if len(toks) != 2:
                raise ScenarioError("expected: KEY VALUE", line)
            key, val = toks
            if key == "seed":
                if self.seen_seed:
                    raise ScenarioError("duplicate seed", line)
                self.seen_seed = True
                self.sc.seed = _int(val, line, "seed", low=-(1 << 63))
            else:
                if not _NAME.match(key):
                    raise ScenarioError(f"bad key {key!r}", line)
                if key in self.sc.params:
                    raise ScenarioError(f"duplicate key {key!r}", line)
                self.sc.params[key] = _int(val, line, "value",
                                           low=-(1 << 63))

    @staticmethod
    def _node(toks: list[str], line: int) -> str:
        if toks[0] != "node" or len(toks) != 2:
            raise ScenarioError("expected: node SIGMA", line)
        try:
            return parse_string(toks[1])
        except ValueError as e:
            raise ScenarioError(str(e), line)


def parse_scenario(text) -> Scenario:
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ScenarioError(f"not valid UTF-8: {e}")
    p = _Parser()
    last = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last = lineno
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            m = _HEADER.match(line)
            if not m:
                raise ScenarioError(f"bad section header {line!r}", lineno)
            p.header(m.group(1), m.group(2), lineno)
        else:
            p.directive(line.split(), lineno)
    p.close_section(last)
    return p.sc


def serialize_scenario(sc: Scenario) -> str:
    """Canonical text form; parse(serialize(sc)) == sc.

    Staged trees must be cumulative, since the format writes per-stage
    increments.
    """
    out: list[str] = []
    for name in sorted(sc.functionals):
        out.append(f"[functional {name}]")
        for sigma, arg, value, steps in sc.functionals[name].axioms:
            out.append(f"axiom {show_string(sigma)} {arg} {value} {steps}")
    for name in sorted(sc.trees):
        out.append(f"[tree {name}]")
        out.extend(f"node {show_string(s)}"
                   for s in sort_lenlex(sc.trees[name]))
    for name in sorted(sc.staged):
        st = sc.staged[name]
        out.append(f"[staged {name}]")
        prev: frozenset[str] = frozenset()
        for snap in st.stages:
            if not prev <= snap:
                raise ScenarioError(
                    f"staged tree {name!r} is not cumulative; "
                    "it has no canonical text form")
            out.append("stage")
            out.extend(f"node {show_string(s)}"
                       for s in sort_lenlex(snap - prev))
            prev = snap
    out.append("[params]")
    out.extend(f"{k} {sc.params[k]}" for k in sorted(sc.params))
    out.append(f"seed {sc.seed}")
    return "\n".join(out) + "\n"


def scenario_with_seed(sc: Scenario, seed: int) -> Scenario:
    return replace(sc, seed=seed)
