"""Line-oriented machine description files.

Grammar ('#' starts a comment, blank lines ignored):

    alphabet: <sym> ...
    tree-symbols: <sym> ...
    start: <state>
    accept: <state> ...
    realtime: true|false
    nonerasing: true|false
    initial-pointer: <path over l/r>          (optional)
    initial-tree: (<label> <tree> <tree>)      (optional, '.' = no child)
    trans <state> <in> (<anc>,<hl>,<hr>) <label> -> <state> <action>

`<in>` is an alphabet symbol, `lambda`, or `END`; `<anc>` one of - l r *;
`<hl>`/`<hr>` one of - + *; `<label>` a tree symbol, `ROOT`, or `*`; the
action one of up, stay, down-l, down-r, pop, or `push <sym> l|r`.  A `*`
expands to every consistent concrete value; on overlap, rows with more
concrete fields win, and equally specific disagreeing rows are an error.

Symbols are whitespace-separated tokens.  A few non-ASCII symbols have
fixed ASCII spellings used in files and spaced word arguments:

    dot → •   cent → ¢   b0 → ⊳   b1 → ▷   b2 → ▶
    alpha0..alpha3 → 0..3   aprime → A   bprime → B
"""
from __future__ import annotations

from dataclasses import dataclass

from .machine import (
    END,
    LAMBDA,
    Machine,
    SpecificityConflict,
    TransitionRow,
    _node_shapes,
    machine_from_rows,
    validate,
)
from .tree import DOWN_L, DOWN_R, GammaTree, POP, ROOT_LABEL, STAY, UP

FILE_TO_SYMBOL = {
    "dot": "•",
    "cent": "¢",
    "b0": "⊳",
    "b1": "▷",
    "b2": "▶",
    "alpha0": "0",
    "alpha1": "1",
    "alpha2": "2",
    "alpha3": "3",
    "aprime": "A",
    "bprime": "B",
}
SYMBOL_TO_FILE = {v: k for k, v in FILE_TO_SYMBOL.items()}

RESERVED_TOKENS = {"lambda", "END", "ROOT", "*", "->", "trans", "."}

_DIRECTIVES = (
    "alphabet",
    "tree-symbols",
    "start",
    "accept",
    "realtime",
    "nonerasing",
    "initial-pointer",
    "initial-tree",
)


@dataclass(frozen=True)
class Diagnostic:
    line: int | None
    kind: str
    message: str

    def __str__(self) -> str:
        where = f"line {self.line}: " if self.line is not None else ""
        return f"{where}{self.kind}: {self.message}"


class MachineFileError(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("\n".join(str(d) for d in diagnostics))


def resolve_symbol(token: str) -> str:
    return FILE_TO_SYMBOL.get(token, token)


def render_symbol(symbol: str) -> str:
    return SYMBOL_TO_FILE.get(symbol, symbol)


def parse_word(text: str):
    """A word argument: spaced symbol tokens, or one character per symbol.

    'λ' (or an empty string) is the empty word.  In the spaced form the
    ASCII spellings above are applied per token; multi-character tokens
    that are not spellings are taken as whole symbols.
    """
    if text in ("", "λ", "lambda"):
        return ""
    if any(c.isspace() for c in text):
        symbols = [resolve_symbol(t) for t in text.split()]
        if all(len(s) == 1 for s in symbols):
            return "".join(symbols)
        return tuple(symbols)
    return text


def format_word(word) -> str:
    return "".join(word) if word else "λ"


_PLAIN_ACTIONS = {"up": UP, "stay": STAY, "down-l": DOWN_L, "down-r": DOWN_R, "pop": POP}

# node type token -> (ancestry, has_left, has_right); every other token is bad
_NODE_TYPES = {
    f"({anc},{hl},{hr})": (anc, hl, hr)
    for anc in ("-", "l", "r", "*") for hl in ("-", "+", "*") for hr in ("-", "+", "*")
}


def _spellings(symbols: list[str]) -> dict[str, str]:
    """Every token that names one of `symbols`: the symbol itself and its
    ASCII spelling, if it has one; `resolve_symbol` maps each to its symbol."""
    named = {symbol: symbol for symbol in symbols}
    named.update((token, sym) for token, sym in FILE_TO_SYMBOL.items() if sym in named)
    return named


def _format_action(action: tuple) -> str:
    if action[0] == "push":
        return f"push {render_symbol(action[1])} {action[2]}"
    return action[0]


def parse_machine(text: str, name: str = "machine") -> Machine:
    """Parse a machine file; raises MachineFileError with every problem found.

    Problems come in a fixed order.  Unrecognized, duplicate and missing
    directives stop the parse.  Otherwise the declarations, each transition
    line in file order, the accepting states that appear in no transition,
    and the rows whose shape matches no node (`_node_shapes` makes none
    for the row's ancestry and label) are all reported.  Only a file free
    of those is expanded, where an equal-specificity conflict is reported
    at the second row's line, and then validated; `validate`'s violations
    carry no line.  The returned machine always passes `validate`.

    Each line is split once, and its tokens are resolved through
    dictionaries made once per call from the declared symbols.
    """
    problems: list[Diagnostic] = []
    directives: dict[str, tuple[int, str]] = {}
    trans_lines: list[tuple[int, list[str]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0] if "#" in raw else raw
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "trans":
            trans_lines.append((lineno, tokens))
            continue
        line = line.strip()
        head, sep, rest = line.partition(":")
        if sep == ":" and head in _DIRECTIVES:
            if head in directives:
                problems.append(Diagnostic(lineno, "syntax", f"duplicate directive {head!r}"))
            else:
                directives[head] = (lineno, rest.strip())
        else:
            problems.append(Diagnostic(lineno, "syntax", f"unrecognized line {line!r}"))

    for required in _DIRECTIVES[:6]:
        if required not in directives:
            problems.append(Diagnostic(None, "syntax", f"missing directive {required!r}"))
    if problems:
        raise MachineFileError(problems)

    def symbols_of(directive: str) -> list[str]:
        lineno, rest = directives[directive]
        out = []
        for token in rest.split():
            if token in RESERVED_TOKENS:
                problems.append(
                    Diagnostic(lineno, "syntax", f"{token!r} is reserved and cannot be a symbol")
                )
                continue
            symbol = resolve_symbol(token)
            if symbol in out:
                problems.append(
                    Diagnostic(lineno, "syntax", f"symbol {token!r} declared twice")
                )
                continue
            out.append(symbol)
        return out

    alphabet = symbols_of("alphabet")
    tree_symbols = symbols_of("tree-symbols")
    if ROOT_LABEL in tree_symbols:
        problems.append(Diagnostic(directives["tree-symbols"][0], "syntax", "ROOT label is implicit"))
    start = directives["start"][1].strip()
    if not start or len(start.split()) != 1:
        problems.append(
            Diagnostic(directives["start"][0], "syntax", "start takes exactly one state")
        )
        start = start.split()[0] if start else "?"
    accepting = directives["accept"][1].split()

    flags = {}
    for key in ("realtime", "nonerasing"):
        lineno, rest = directives[key]
        if rest not in ("true", "false"):
            problems.append(Diagnostic(lineno, "syntax", f"{key} must be true or false"))
            rest = "true"
        flags[key] = rest == "true"

    initial_tree = None
    initial_pointer = ""
    if "initial-tree" in directives:
        lineno, rest = directives["initial-tree"]
        try:
            initial_tree = GammaTree.from_snapshot(
                rest, resolve=lambda t: ROOT_LABEL if t == "ROOT" else resolve_symbol(t)
            )
        except ValueError as exc:
            problems.append(Diagnostic(lineno, "syntax", str(exc)))
    if "initial-pointer" in directives:
        lineno, rest = directives["initial-pointer"]
        pointer = "" if rest == "." else rest
        if set(pointer) - {"l", "r"}:
            problems.append(Diagnostic(lineno, "syntax", f"bad pointer path {rest!r}"))
        else:
            initial_pointer = pointer

    # token -> what it names; a token outside these dicts is undeclared
    input_of = {"lambda": LAMBDA, "END": END, **_spellings(alphabet)}
    tree_symbol_of = _spellings(tree_symbols)
    label_of = {"ROOT": ROOT_LABEL, "*": "*", **tree_symbol_of}
    rows: list[TransitionRow] = []
    mentioned = {start}
    for lineno, tokens in trans_lines:
        if len(tokens) < 8 or tokens[5] != "->":
            problems.append(
                Diagnostic(
                    lineno,
                    "syntax",
                    "expected: trans <state> <in> (<anc>,<hl>,<hr>) <label> -> <state> <action>",
                )
            )
            continue
        _, state, in_tok, type_tok, label_tok, _, target = tokens[:7]
        symbol = input_of.get(in_tok)
        if symbol is None:
            problems.append(
                Diagnostic(lineno, "unknown-symbol", f"input symbol {in_tok!r} not in alphabet")
            )
            continue
        fields = _NODE_TYPES.get(type_tok)
        if fields is None:
            problems.append(Diagnostic(lineno, "syntax", f"bad node type {type_tok!r}"))
            continue
        label = label_of.get(label_tok)
        if label is None:
            problems.append(
                Diagnostic(lineno, "unknown-symbol", f"tree symbol {label_tok!r} not declared")
            )
            continue
        if len(tokens) == 8 and tokens[7] in _PLAIN_ACTIONS:
            action = _PLAIN_ACTIONS[tokens[7]]
        elif len(tokens) == 10 and tokens[7] == "push" and tokens[9] in ("l", "r"):
            pushed = tree_symbol_of.get(tokens[8])
            if pushed is None:
                problems.append(
                    Diagnostic(lineno, "unknown-symbol", f"push of undeclared tree symbol {tokens[8]!r}")
                )
                continue
            action = ("push", pushed, tokens[9])
        else:
            problems.append(Diagnostic(lineno, "syntax", f"bad action {' '.join(tokens[7:])!r}"))
            continue
        anc, has_left, has_right = fields
        rows.append(
            TransitionRow(state, symbol, anc, has_left, has_right, label, target, action, lineno)
        )
        mentioned.add(state)
        mentioned.add(target)

    for state in accepting:
        if state not in mentioned:
            problems.append(
                Diagnostic(
                    directives["accept"][0],
                    "unknown-state",
                    f"accepting state {state!r} appears in no transition",
                )
            )
    labels = (*tree_symbols, ROOT_LABEL)
    matches: dict[tuple, bool] = {}  # (ancestry, label) -> whether some node has both
    for row in rows:
        where = (row.ancestry, row.label)
        if where not in matches:
            # the flags never rule a node out, so one concrete value stands for any
            matches[where] = bool(_node_shapes(row.ancestry, "-", "-", row.label, labels))
        if not matches[where]:
            problems.append(
                Diagnostic(
                    row.origin,
                    "inconsistent-shape",
                    "row matches no node: the root is exactly the ROOT-labeled node",
                )
            )
    if problems:
        raise MachineFileError(problems)

    try:
        machine = machine_from_rows(
            name,
            alphabet,
            tree_symbols,
            start,
            accepting,
            rows,
            real_time=flags["realtime"],
            non_erasing=flags["nonerasing"],
            initial_tree=initial_tree,
            initial_pointer=initial_pointer,
        )
    except SpecificityConflict as exc:
        raise MachineFileError([Diagnostic(exc.second.origin, "specificity-conflict", str(exc))])
    violations = validate(machine)
    if violations:
        raise MachineFileError([Diagnostic(None, v.kind, v.message) for v in violations])
    return machine


def export_machine(machine: Machine) -> str:
    """Deterministic file form; reparsing yields a structurally equal machine.

    Wildcards are not reconstructed: every concrete table entry becomes one
    line.  Accepting states mentioned in no transition are dropped: the
    file format derives states from usage, and such states are unreachable
    anyway.
    """
    mentioned = {machine.start}
    for key, (target, _) in machine.transitions.items():
        mentioned.add(key.state)
        mentioned.add(target)
    out = [
        "alphabet: " + " ".join(render_symbol(s) for s in machine.input_alphabet),
        "tree-symbols: " + " ".join(render_symbol(s) for s in machine.tree_alphabet),
        f"start: {machine.start}",
        "accept: " + " ".join(sorted(machine.accepting & mentioned)),
        f"realtime: {'true' if machine.real_time else 'false'}",
        f"nonerasing: {'true' if machine.non_erasing else 'false'}",
    ]
    if machine.initial_tree is not None:
        if machine.initial_pointer:
            out.append(f"initial-pointer: {machine.initial_pointer}")
        out.append(
            "initial-tree: "
            + machine.initial_tree.snapshot(
                render=lambda lab: "ROOT" if lab == ROOT_LABEL else render_symbol(lab)
            )
        )
    def symbol_token(symbol: str) -> str:
        if symbol == LAMBDA:
            return "lambda"
        if symbol == END:
            return "END"
        return render_symbol(symbol)

    def label_token(label: str) -> str:
        return "ROOT" if label == ROOT_LABEL else render_symbol(label)

    keys = sorted(
        machine.transitions,
        key=lambda k: (k.state, symbol_token(k.symbol), k.ancestry,
                       k.has_left, k.has_right, label_token(k.label)),
    )
    for key in keys:
        target, action = machine.transitions[key]
        out.append(
            f"trans {key.state} {symbol_token(key.symbol)} "
            f"({key.ancestry},{key.has_left},{key.has_right}) {label_token(key.label)} "
            f"-> {target} {_format_action(action)}"
        )
    return "\n".join(out) + "\n"
