"""Command-line front-end.

Each builder command persists every artifact it produces plus a
manifest.json recording the command line, input/output content digests,
per-stage timings and, for `distance`, each side's work counters.
Artifact bytes are deterministic for identical inputs; the manifest's
timing and counter blocks are a run log, not an artifact.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 search budget exhaustion, 141 stdout closed (as SIGPIPE would stop a
tool).  argparse refuses malformed options, a negative --budget or --genus
among them, with 2.  The commands raise, and `main` maps
SearchBudgetExceeded to 3, BrokenPipeError to 141 silently, and a
ValueError or OSError (malformed input, an unreadable input or unwritable
output) to 2 with the reader's own message.  `verify` maps its bundle's
faults to 1 itself.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from . import css, embedding, fields, graphs, paley, voltage
from .gf2 import BinaryMatrix

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 128 + 13   # 128 + SIGPIPE


def _sha256(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, argv: list[str], inputs: list[Path],
                    outputs: list[Path], timings: dict[str, float],
                    counters: dict | None = None) -> None:
    manifest = {
        "command": argv,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "timings": {k: round(v, 6) for k, v in timings.items()},
    }
    if counters is not None:
        manifest["counters"] = counters
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _modulus(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, constant term first "
            f"(e.g. 2,1,1), got {text!r}") from None


def _non_negative(text: str) -> int:
    """The type of both --budget options and of --genus."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")


# -- commands -------------------------------------------------------------------


def _write_builder_outputs(args: argparse.Namespace, argv: list[str],
                           graph: graphs.Graph, adjacency: BinaryMatrix,
                           timings: dict[str, float],
                           rotation: embedding.RotationSystem | None = None) -> Path:
    """Write a builder's artifacts into --out: graph.json, rotation.json
    when given, adjacency.txt, adjacency.alist under --format alist, and
    then the manifest.  An earlier run's rotation.json or adjacency.alist
    that this run does not write is removed."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    outputs = [out / "graph.json"]
    graphs.write_graph(graph, outputs[-1])
    rotation_path, alist = out / "rotation.json", out / "adjacency.alist"
    for path in (rotation_path, alist):
        path.unlink(missing_ok=True)   # an earlier run's
    if rotation is not None:
        outputs.append(rotation_path)
        embedding.write_rotation(rotation, rotation_path)
    outputs.append(out / "adjacency.txt")
    outputs[-1].write_text(adjacency.to_text())
    if args.fmt == "alist":
        outputs.append(alist)
        alist.write_text(adjacency.to_alist())
    timings["write"] = time.perf_counter() - t0
    _write_manifest(out, argv, [], outputs, timings)
    return out


def cmd_lift(args: argparse.Namespace, argv: list[str]) -> int:
    t0 = time.perf_counter()
    base = voltage.build_voltage_graph(args.t)
    rotation = voltage.derived_embedding(base)
    lifted = rotation.graph
    block = voltage.block_adjacency(args.t)
    timings = {"build": time.perf_counter() - t0}
    if graphs.adjacency_matrix(lifted) != block:
        print("error: lift adjacency disagrees with the closed-form blocks",
              file=sys.stderr)
        return EXIT_VERIFICATION
    out = _write_builder_outputs(args, argv, lifted, block, timings, rotation)
    print(f"lift t={args.t}: {lifted.vertex_count} vertices, "
          f"{lifted.edge_count} edges -> {out}")
    return EXIT_OK


def cmd_paley(args: argparse.Namespace, argv: list[str]) -> int:
    t0 = time.perf_counter()
    field = fields.make_field(args.p, args.r, args.modulus)
    built = paley.build_paley(field)
    timings = {"build": time.perf_counter() - t0}
    out = _write_builder_outputs(args, argv, built.graph,
                                 graphs.adjacency_matrix(built.graph), timings)
    print(f"paley {field.order}: {built.graph.vertex_count} vertices, "
          f"{built.graph.edge_count} edges -> {out}")
    return EXIT_OK


def cmd_code(args: argparse.Namespace, argv: list[str]) -> int:
    graph_path, rot_path = Path(args.graph), Path(args.rotation)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    graph = graphs.read_graph(graph_path)
    rotation = embedding.read_rotation(rot_path, graph)
    code = css.build_code_embedding(rotation, family=args.family,
                                    kprime=args.kprime)
    timings["build"] = time.perf_counter() - t0
    out = Path(args.out)
    t0 = time.perf_counter()
    outputs = css.write_bundle(code, out, alist=args.fmt == "alist")
    timings["write"] = time.perf_counter() - t0
    _write_manifest(out, argv, [graph_path, rot_path], outputs, timings)
    print(f"code [[{code.n},{code.k},?]] genus {code.genus} -> {out}")
    return EXIT_OK


def cmd_distance(args: argparse.Namespace, argv: list[str]) -> int:
    bundle = Path(args.bundle)
    code = css.read_bundle(bundle)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    report = css.distance_search(code, args.max_weight,
                                 enumeration_budget=args.budget)
    timings["search"] = time.perf_counter() - t0
    css.apply_distance_report(code, report)
    outputs = css.write_distance(code, report, bundle)
    counters = {"dz": dataclasses.asdict(report.dz_counters),
                "dx": dataclasses.asdict(report.dx_counters)}
    _write_manifest(bundle, argv, [], outputs, timings, counters)
    print(f"distance: {report.conclusion} (searched weight <= {report.searched_weight})")
    return EXIT_OK


def cmd_table(args: argparse.Namespace, argv: list[str]) -> int:
    """Print each row as it is computed: a long table costs time, not memory."""
    start = css.FAMILIES[args.family][0]
    if args.kprime_max < start:
        return _usage_error(
            f"kprime-max must be at least {start} for family {args.family}"
        )
    if args.csv:
        print("kprime,m,genus,n,k,rate")
        row = "{0.kprime},{0.m},{0.genus},{0.n},{0.k},{0.rate:.6f}"
    else:
        print(f"{'kprime':>6} {'m':>6} {'genus':>8} {'n':>8} {'k':>8} {'rate':>8}")
        row = "{0.kprime:>6} {0.m:>6} {0.genus:>8} {0.n:>8} {0.k:>8} {0.rate:>8.4f}"
    for kp in range(start, args.kprime_max + 1):
        print(row.format(css.family_parameters(args.family, kp)))
    return EXIT_OK


def cmd_embed_search(args: argparse.Namespace, argv: list[str]) -> int:
    graph = graphs.read_graph(Path(args.graph))
    out = Path(args.out)
    t0 = time.perf_counter()
    rotation = embedding.search_self_dual_embedding(graph, args.genus,
                                                    budget=args.budget)
    elapsed = time.perf_counter() - t0
    out.parent.mkdir(parents=True, exist_ok=True)
    if rotation is None:
        out.write_text(json.dumps(
            {"found": False, "target_genus": args.genus,
             "reason": "search space exhausted; no self-dual embedding"},
            indent=2, sort_keys=True) + "\n")
        print(f"no self-dual embedding of genus {args.genus} exists "
              f"({elapsed:.2f}s)")
        return EXIT_OK
    embedding.write_rotation(rotation, out)
    # a self-dual embedding of the target genus has one face per vertex
    print(f"found rotation system: genus {args.genus}, "
          f"{graph.vertex_count} faces ({elapsed:.2f}s) -> {out}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, argv: list[str]) -> int:
    bundle = Path(args.bundle)
    try:
        code = css.read_bundle(bundle)
    except css.NotABundle as exc:
        return _usage_error(str(exc))
    except (OSError, ValueError) as exc:
        print(f"bundle unreadable: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    failures = []

    def check(name: str, ok: bool, why: str = "") -> None:
        print(f"  {'PASS' if ok else 'FAIL'}  {name}{': ' + why if why else ''}")
        if not ok:
            failures.append(name)

    try:
        beta1, why = css.homology_ranks(code.hx, code.hz), ""
    except ValueError as exc:
        beta1, why = None, str(exc)
    check("css condition hx hz^T = 0", not why, why)
    check("k = n - rank(hx) - rank(hz)", code.k == beta1)
    if code.genus is not None:
        check("k = 2 * genus", code.k == 2 * code.genus)
    why = css.family_mismatch(code)
    check("family label matches (n, k, genus)", not why, why)
    for name, ok in css.check_files(bundle, code):
        check(name, ok)
    if failures:
        print(f"verification failed: {', '.join(failures)}", file=sys.stderr)
        return EXIT_VERIFICATION
    print("bundle ok")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  It names each
    command by its `command` attribute alone and holds no functions, so
    `main` finds `cmd_<command>` in this module at call time."""
    parser = argparse.ArgumentParser(
        prog="paleylift",
        description="Build and check CSS codes from voltage-graph lifts and "
                    "Paley graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = dict(dest="fmt", default="text", choices=["text", "alist"],
               help="alist additionally exports the matrices in MacKay's alist format")

    p = sub.add_parser("lift", help="build the lift of the two-vertex voltage graph "
                                    "and its derived embedding")
    p.add_argument("t", type=int, help="group parameter; the lift has 2^(t+1) vertices")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", **fmt)

    p = sub.add_parser("paley", help="build a Paley graph over GF(p^r)")
    p.add_argument("p", type=int, help="prime")
    p.add_argument("r", type=int, help="exponent")
    p.add_argument("--modulus", type=_modulus,
                   help="monic modulus, coefficients constant-first, e.g. 2,1,1 "
                        "for x^2+x+2")
    p.add_argument("--out", required=True)
    p.add_argument("--format", **fmt)

    p = sub.add_parser("code", help="assemble a CSS code bundle from a graph")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--rotation", required=True,
                   help="rotation-system JSON; its faces give H_Z")
    p.add_argument("--family", default="custom",
                   choices=["voltage", "paley", "custom"])
    p.add_argument("--kprime", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--format", **fmt)

    p = sub.add_parser("distance",
                       help="exact minimum distance of a surface-code bundle up to "
                            "--max-weight; records it and the witnesses in the bundle")
    p.add_argument("bundle", help="code bundle directory")
    p.add_argument("--max-weight", type=int, required=True, dest="max_weight")
    p.add_argument("--budget", type=_non_negative, default=css.DEFAULT_ENUMERATION_BUDGET,
                   help="bound on the engine's work estimate, the sum over "
                        "H_X and H_Z of rows x cols")

    p = sub.add_parser("table", help="closed-form family parameter table")
    p.add_argument("--family", required=True, choices=["voltage", "paley"])
    p.add_argument("--kprime-max", type=int, required=True, dest="kprime_max")
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("embed-search",
                       help="search for a self-dual embedding of a target genus")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--genus", type=_non_negative, required=True)
    p.add_argument("--budget", type=_non_negative, default=embedding.DEFAULT_SEARCH_BUDGET)
    p.add_argument("--out", required=True, help="rotation JSON output path")

    p = sub.add_parser("verify", help="re-check a code bundle: the CSS condition, "
                                      "k, the genus and family labels, and the "
                                      "witnesses; d_lower is not yet re-proved")
    p.add_argument("bundle")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        status = command(args, argv)
        sys.stdout.flush()   # here, so that a closed stdout is caught below
        return status
    except BrokenPipeError:
        return EXIT_BROKEN_PIPE
    except graphs.SearchBudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (OSError, ValueError) as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
