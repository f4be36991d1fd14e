"""The MLEX workspace file format.

Line-oriented, sectioned key-value text.  A section starts with
``[kind name]`` and owns every following line until the next section;
entries inside a section are separated by ';' or newlines.  Elements are
comma-joined residues in parentheses, e.g. ``(1,0)``; the empty element
of the zero module is ``()``.

    [ring] modulus = 2
    [module M2] factors = 2,2
    [algebra F2] module = M2; op f/2: (2,2) -> (1,0)
    [ideal I] algebra = F2; generators = (1,0)
    [variety leibniz] signature = f/2; bracket = f; identity "[x,[y,z]] = [[x,y],z] + [y,[x,z]]"
    [action act] Q = Qalg; I = Ialg; a(f,2): ((1)|(1)) -> (1)
    [cocycle T] action = act; Tf: ((1),(1)) -> (1)

Operation tables in ``[algebra]`` list 1-based generator indices; action
and cocycle tables list full element tuples and omit zero entries.
Scalar factor sets default to the telescoped sums of the group factor
set unless ``Tr`` entries are given.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import MlexError, ParseError, ValidationError
from .modcore import ZmModule
from .algebra import Algebra, MultilinearOp, ideal_generated
from .termlang import Signature, Variety, parse_identity
from .cocycle import Action, Cocycle


@dataclass
class Workspace:
    modulus: int = 2
    modules: dict = field(default_factory=dict)
    algebras: dict = field(default_factory=dict)
    ideals: dict = field(default_factory=dict)
    varieties: dict = field(default_factory=dict)
    actions: dict = field(default_factory=dict)
    cocycles: dict = field(default_factory=dict)

    def algebra(self, name):
        if name not in self.algebras:
            raise MlexError(f"no algebra named {name!r} in the workspace")
        return self.algebras[name]

    def ideal(self, name):
        if name not in self.ideals:
            raise MlexError(f"no ideal named {name!r} in the workspace")
        return self.ideals[name]

    def variety(self, name):
        if name in self.varieties:
            return self.varieties[name]
        if name == "mlf":
            raise MlexError("the built-in variety 'mlf' needs a signature context")
        raise MlexError(f"no variety named {name!r} in the workspace")

    def action(self, name):
        if name not in self.actions:
            raise MlexError(f"no action named {name!r} in the workspace")
        return self.actions[name]

    def cocycle(self, name):
        if name not in self.cocycles:
            raise MlexError(f"no cocycle named {name!r} in the workspace")
        return self.cocycles[name]


_SECTION = re.compile(r"^\[(\w+)(?:\s+([\w.-]+))?\]\s*(.*)$")


def _split_entries(body):
    """Split on ';' outside quotes."""
    out, buf, quoted = [], [], False
    for ch in body:
        if ch == '"':
            quoted = not quoted
            buf.append(ch)
        elif ch == ";" and not quoted:
            out.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    last = "".join(buf).strip()
    if last:
        out.append(last)
    return [e for e in out if e]


def _parse_element_text(text, line):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"expected an element literal, got {text!r}", line=line)
    inner = text[1:-1].strip()
    if not inner:
        return ()
    try:
        return tuple(int(x) for x in inner.split(","))
    except ValueError:
        raise ParseError(f"bad element literal {text!r}", line=line)


def _parse_tuple_of_elements(text, line):
    """Parse "(1,0),(0,1)" into a list of coordinate tuples."""
    out, depth, buf = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        if ch == ")":
            depth -= 1
        buf.append(ch)
        if depth == 0 and buf and "".join(buf).strip():
            chunk = "".join(buf).strip()
            if chunk.startswith(","):
                chunk = chunk[1:].strip()
            if chunk:
                out.append(_parse_element_text(chunk, line))
            buf = []
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {text!r}", line=line)
    return out


def _parse_mapping(entry, line):
    if "->" not in entry:
        raise ParseError(f"expected 'args -> value' in {entry!r}", line=line)
    left, right = entry.split("->", 1)
    return left.strip(), right.strip()


def load_text(text):
    """Parse and validate a workspace from MLEX text."""
    ws = Workspace()
    sections = []
    current = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].rstrip() if '"' not in rawline else rawline.rstrip()
        if not line.strip():
            continue
        m = _SECTION.match(line.strip())
        if m:
            current = {
                "kind": m.group(1),
                "name": m.group(2),
                "entries": [],
                "line": lineno,
            }
            sections.append(current)
            rest = m.group(3)
            if rest:
                current["entries"].extend(
                    (lineno, e) for e in _split_entries(rest)
                )
        else:
            if current is None:
                raise ParseError("content before the first section", line=lineno)
            current["entries"].extend((lineno, e) for e in _split_entries(line))
    order = {"ring": 0, "module": 1, "algebra": 2, "ideal": 3, "variety": 4, "action": 5, "cocycle": 6}
    for sec in sections:
        if sec["kind"] not in order:
            raise ParseError(f"unknown section kind {sec['kind']!r}", line=sec["line"])
    for sec in sorted(sections, key=lambda s: (order[s["kind"]],)):
        _load_section(ws, sec)
    return ws


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_text(fh.read())


def _entry_map(sec):
    out = {}
    for line, e in sec["entries"]:
        if "=" in e and ":" not in e.split("=", 1)[0]:
            k, v = e.split("=", 1)
            out.setdefault(k.strip(), []).append((line, v.strip()))
    return out


def _load_section(ws, sec):
    kind, name, line = sec["kind"], sec["name"], sec["line"]
    if kind == "ring":
        kv = _entry_map(sec)
        if "modulus" not in kv:
            raise ParseError("[ring] needs 'modulus = <m>'", line=line)
        ws.modulus = int(kv["modulus"][0][1])
        return
    if name is None:
        raise ParseError(f"[{kind}] sections need a name", line=line)
    if kind == "module":
        kv = _entry_map(sec)
        if "factors" not in kv:
            raise ParseError(f"[module {name}] needs 'factors = ...'", line=line)
        text = kv["factors"][0][1].strip()
        factors = tuple(int(x) for x in text.split(",")) if text and text != "-" else ()
        try:
            ws.modules[name] = ZmModule(ws.modulus, factors)
        except MlexError as e:
            raise ValidationError(str(e), where=f"[module {name}]")
        return
    if kind == "algebra":
        kv = _entry_map(sec)
        if "module" not in kv:
            raise ParseError(f"[algebra {name}] needs 'module = <name>'", line=line)
        modname = kv["module"][0][1]
        if modname not in ws.modules:
            raise ParseError(f"unknown module {modname!r}", line=line)
        module = ws.modules[modname]
        tables = {}
        arities = {}
        for eline, entry in sec["entries"]:
            if not entry.startswith("op ") or "->" not in entry:
                continue
            head, value = _parse_mapping(entry[3:], eline)
            mdecl = re.match(r"^(\w+)/(\d+)\s*:\s*\((.*)\)$", head.strip())
            if not mdecl:
                raise ParseError(f"bad op entry {entry!r}", line=eline)
            f, arity, idx = mdecl.group(1), int(mdecl.group(2)), mdecl.group(3)
            if f == "plus":
                raise ParseError(
                    "operation name 'plus' collides with the group factor-set key",
                    line=eline,
                )
            arities.setdefault(f, arity)
            if arities[f] != arity:
                raise ParseError(f"conflicting arities for {f!r}", line=eline)
            key = tuple(int(x) - 1 for x in idx.split(","))
            tables.setdefault(f, {})[key] = module.element(
                _parse_element_text(value, eline)
            )
        for eline, entry in sec["entries"]:
            mdecl = re.match(r"^op\s+(\w+)/(\d+)\s*$", entry)
            if mdecl:
                arities.setdefault(mdecl.group(1), int(mdecl.group(2)))
        ops = {}
        for f, arity in arities.items():
            try:
                ops[f] = MultilinearOp(f, arity, module, tables.get(f, {}))
            except MlexError as e:
                raise ValidationError(str(e), where=f"[algebra {name}]")
        ws.algebras[name] = Algebra(module, ops)
        return
    if kind == "ideal":
        kv = _entry_map(sec)
        if "algebra" not in kv:
            raise ParseError(f"[ideal {name}] needs 'algebra = <name>'", line=line)
        A = ws.algebras.get(kv["algebra"][0][1])
        if A is None:
            raise ParseError("unknown algebra in ideal section", line=line)
        gens = []
        if "generators" in kv:
            gline, gtext = kv["generators"][0]
            for coords in _parse_tuple_of_elements(gtext, gline):
                gens.append(A.module.element(coords))
        ws.ideals[name] = ideal_generated(A, gens)
        return
    if kind == "variety":
        kv = _entry_map(sec)
        if "signature" not in kv:
            raise ParseError(f"[variety {name}] needs 'signature = ...'", line=line)
        sline, stext = kv["signature"][0]
        ops = []
        if stext.strip() and stext.strip() != "-":
            for chunk in stext.split(","):
                mm = re.match(r"^\s*(\w+)/(\d+)\s*$", chunk)
                if not mm:
                    raise ParseError(f"bad signature chunk {chunk!r}", line=sline)
                ops.append((mm.group(1), int(mm.group(2))))
        bracket = kv["bracket"][0][1].strip() if "bracket" in kv else None
        sig = Signature(ws.modulus, tuple(ops), bracket=bracket)
        idents = []
        for eline, entry in sec["entries"]:
            if entry.startswith("identity"):
                mq = re.match(r'^identity\s+"(.*)"\s*$', entry)
                if not mq:
                    raise ParseError(f"bad identity entry {entry!r}", line=eline)
                try:
                    idents.append(parse_identity(mq.group(1), sig))
                except ParseError as e:
                    raise ParseError(f"in identity: {e}", line=eline)
        ws.varieties[name] = Variety(name, sig, tuple(idents))
        return
    if kind == "action":
        kv = _entry_map(sec)
        for need in ("Q", "I"):
            if need not in kv:
                raise ParseError(f"[action {name}] needs '{need} = <algebra>'", line=line)
        Q = ws.algebras.get(kv["Q"][0][1])
        I = ws.algebras.get(kv["I"][0][1])
        if Q is None or I is None:
            raise ParseError("unknown datum algebra in action section", line=line)
        tables = {}
        for eline, entry in sec["entries"]:
            mm = re.match(r"^a\((\w+),([\d,]+)\)\s*:\s*(.*)$", entry)
            if not mm:
                continue
            f = mm.group(1)
            slots = tuple(sorted(int(x) - 1 for x in mm.group(2).split(",")))
            left, right = _parse_mapping(mm.group(3), eline)
            if not (left.startswith("(") and left.endswith(")")):
                raise ParseError(f"bad action arguments {left!r}", line=eline)
            inner = left[1:-1]
            if "|" not in inner:
                raise ParseError("action entry needs '(<q-tuple>|<i-tuple>)'", line=eline)
            qtext, itext = inner.split("|", 1)
            qvec = [Q.module.element(c) for c in _parse_tuple_of_elements(qtext, eline)]
            ivec = [I.module.element(c) for c in _parse_tuple_of_elements(itext, eline)]
            value = I.module.element(_parse_element_text(right, eline))
            arity = Q.op_arity(f)
            if len(qvec) != arity or len(ivec) != arity:
                raise ParseError(
                    f"action entry expects full {arity}-tuples", line=eline
                )
            off = tuple(i for i in range(arity) if i not in slots)
            key = (tuple(qvec[i] for i in off), tuple(ivec[i] for i in slots))
            tables.setdefault((f, slots), {})[key] = value
        try:
            action = Action(Q, I, tables)
            action.validate()
        except MlexError as e:
            raise ValidationError(str(e), where=f"[action {name}]")
        ws.actions[name] = action
        return
    if kind == "cocycle":
        kv = _entry_map(sec)
        if "action" not in kv:
            raise ParseError(f"[cocycle {name}] needs 'action = <name>'", line=line)
        aname = kv["action"][0][1]
        if aname not in ws.actions:
            raise ParseError(f"unknown action {aname!r}", line=line)
        action = ws.actions[aname]
        Q, I = action.Q, action.I
        tplus, tr, tf = {}, {}, {}
        saw_tr = False
        for eline, entry in sec["entries"]:
            if entry.startswith("Tplus"):
                left, right = _parse_mapping(entry[len("Tplus"):].lstrip(": "), eline)
                args = _parse_tuple_of_elements(left.strip()[1:-1], eline)
                if len(args) != 2:
                    raise ParseError("Tplus entries take two arguments", line=eline)
                tplus[(Q.module.element(args[0]), Q.module.element(args[1]))] = (
                    I.module.element(_parse_element_text(right, eline))
                )
            elif entry.startswith("Tr"):
                mm = re.match(r"^Tr\s+(\d+)\s*:\s*(.*)$", entry)
                if not mm:
                    raise ParseError(f"bad Tr entry {entry!r}", line=eline)
                saw_tr = True
                r = int(mm.group(1)) % ws.modulus
                left, right = _parse_mapping(mm.group(2), eline)
                args = _parse_tuple_of_elements(left.strip()[1:-1], eline)
                if len(args) != 1:
                    raise ParseError("Tr entries take one argument", line=eline)
                tr[(r, Q.module.element(args[0]))] = I.module.element(
                    _parse_element_text(right, eline)
                )
            elif entry.startswith("T") and ":" in entry and not entry.startswith("Tplus"):
                mm = re.match(r"^T(\w+)\s*:\s*(.*)$", entry)
                if not mm:
                    continue
                f = mm.group(1)
                if f not in Q.ops:
                    raise ParseError(f"unknown operation {f!r} in factor set", line=eline)
                left, right = _parse_mapping(mm.group(2), eline)
                args = _parse_tuple_of_elements(left.strip()[1:-1], eline)
                if len(args) != Q.op_arity(f):
                    raise ParseError(
                        f"factor set for {f!r} takes {Q.op_arity(f)} arguments",
                        line=eline,
                    )
                tf[(f, tuple(Q.module.element(a) for a in args))] = I.module.element(
                    _parse_element_text(right, eline)
                )
        try:
            if saw_tr:
                T = Cocycle(action, tplus, tr, tf)
            else:
                T = Cocycle.from_cells(action, tplus, tf)
            T.validate()
        except MlexError as e:
            raise ValidationError(str(e), where=f"[cocycle {name}]")
        ws.cocycles[name] = T
        return
    raise ParseError(f"unknown section kind {kind!r}", line=line)
