"""Every function in src/paleylift is entered by the command chains of the
README and of the CLI tests, or is on NEVER_ENTERED with the reason it is
kept.  A function that only tests call belongs in a test
module, not on that list."""
import ast
import sys
from pathlib import Path

import paleylift
from paleylift.cli import build_parser, main

SRC = Path(paleylift.__file__).resolve().parent

# dotted name (module.Class.function, nested functions under their parent)
# -> why no command enters it
NEVER_ENTERED = {
    "fields.PrimePowerField.add_index":
        "ROADMAP item 2's Paley map lists the neighbours x + 1, x + l, ... of x",
    "fields.PrimePowerField.neg_index":
        "ROADMAP item 2's Paley dual certificate takes mu = -l",
    "fields.PrimePowerField.__repr__": "the field's repr, for debugging",
    "fields._poly_str": "names a modulus in an error message and in __repr__",
    "paley.smallest_nonresidue": "the benchmark's multiplier certificate, and item 2",
    "paley.verify_self_complementary_via_multiplier":
        "the benchmark's multiplier certificate, and item 2",
    "graphs.Graph.__eq__":
        "tests compare graphs; a rotation system carries its own graph, so no "
        "command checks that two graphs agree",
    "graphs.Graph.__hash__": "a Graph defines __eq__, so it defines __hash__",
    "graphs.Graph.__repr__": "the graph's repr, for debugging",
    "graphs.complement": "the benchmark's certificate stage, and item 2",
    "graphs.is_self_complementary":
        "the benchmark's certificate stage; leaves src with the searches (item 5)",
    "cli._usage_error": "the error path of every command",
}


def defined_functions() -> dict[tuple[Path, int, str], str]:
    """(file, first line, name) of the code object of every def in src, as
    the profiler sees it, -> its dotted name.  A decorated function's code
    starts at its first decorator."""
    found = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first, child.name)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, f"{path.stem}.")
    return found


def chains(out: Path) -> list[list[str]]:
    """The README's two worked instances and its tables, with the distance
    bounds, the alist exports and the search's node budget that test_cli.py
    runs on them."""
    return [
        ["paley", "3", "2", "--modulus", "2,1,1", "--out", f"{out}/paley9"],
        ["embed-search", f"{out}/paley9/graph.json", "--genus", "1",
         "--out", f"{out}/paley9_rotation.json"],
        ["embed-search", f"{out}/paley9/graph.json", "--genus", "1",
         "--budget", "1724", "--out", f"{out}/paley9_rotation.json"],
        ["code", f"{out}/paley9/graph.json", "--rotation", f"{out}/paley9_rotation.json",
         "--family", "paley", "--kprime", "0", "--out", f"{out}/code18"],
        ["distance", f"{out}/code18", "--max-weight", "2"],
        ["distance", f"{out}/code18", "--max-weight", "3"],
        ["verify", f"{out}/code18"],
        ["lift", "3", "--format", "alist", "--out", f"{out}/lift3"],
        ["code", f"{out}/lift3/graph.json", "--rotation", f"{out}/lift3/rotation.json",
         "--family", "voltage", "--kprime", "1", "--out", f"{out}/code60"],
        ["distance", f"{out}/code60", "--max-weight", "1"],
        ["distance", f"{out}/code60", "--max-weight", "3"],
        ["distance", f"{out}/code60", "--max-weight", "5"],
        ["verify", f"{out}/code60"],
        ["paley", "23", "2", "--format", "alist", "--out", f"{out}/paley529"],
        ["table", "--family", "voltage", "--kprime-max", "20"],
        ["table", "--family", "paley", "--kprime-max", "20", "--csv"],
    ]


def test_every_src_function_is_entered_by_a_command(tmp_path, capsys):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    build_parser.cache_clear()   # built once per process: let this run build it
    sys.setprofile(profile)
    try:
        statuses = [main(argv) for argv in chains(tmp_path)]
    finally:
        sys.setprofile(None)
    assert statuses == [0] * len(statuses), capsys.readouterr()
    keys = {(Path(code.co_filename).resolve(), code.co_firstlineno, code.co_name)
            for code in entered}
    defined = defined_functions()
    never = {name for key, name in defined.items() if key not in keys}
    assert never == set(NEVER_ENTERED)
