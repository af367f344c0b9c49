"""One pass of a workload through the real CLI, with the correctness gate.

Every CLI command runs in-process through `paleylift.cli.main`.  An
operation is one CLI command or one certificate check; each is timed into
its stage (graph, code, distance, verify, certificate) and then checked
against the paper's closed forms.  A failed check marks the operation
failed and the pass goes on.  The checks run with tracing paused, and
their time is excluded from `pipeline_s`.  So are the garbage collection
that gives each operation the same clean heap to start from and the
machine-speed samples taken around it (see calibration.py).
"""
from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from paleylift import cli, css, embedding, fields, graphs, paley

import calibration
from workloads import budget_for

STAGES = ["graph", "code", "distance", "verify", "certificate"]


@dataclass
class Op:
    stage: str
    label: str
    seconds: float
    ok: bool
    detail: str = ""
    scale: float = 1.0   # seconds -> reference-machine seconds (calibration.scale)


class Pass:
    """Runs instances into `out`, reading rotation inputs from `inputs_dir`."""

    def __init__(self, out: Path, inputs_dir: Path, tracer=None):
        self.out = out
        self.inputs_dir = inputs_dir
        self.tracer = tracer
        self.ops: list[Op] = []
        self.stage_s: Counter = Counter({s: 0.0 for s in STAGES})
        self.check_s = 0.0
        self.bytes_written = 0
        self.writers: dict[Path, Op] = {}   # artifact -> op that last wrote it
        self.pipeline_s = 0.0
        self.digest: dict[Path, str] = {}   # digests(), taken before the directory is reused
        self.trace: dict[str, float] = {}   # per-layer summary of a traced pass
        self._speed: float | None = None    # latest calibration.sample()

    # -- running ---------------------------------------------------------------

    def run(self, items, fault: str | None = None) -> "Pass":
        start = time.perf_counter()
        for inst, plan in items:
            self.run_instance(inst, plan, fault)
        self.pipeline_s = time.perf_counter() - start - self.check_s
        return self

    def _timed(self, stage: str, label: str, fn):
        """Run fn as one operation; an exception fails the operation.  The
        machine's speed is sampled before and after it; the sample after one
        operation serves as the sample before the next."""
        with self._checking():
            gc.collect()
            if self._speed is None:
                self._speed = calibration.sample()
        before = self._speed
        result, detail = None, ""
        start = time.perf_counter()
        try:
            result = fn()
            ok = True
        except Exception:
            ok = False
            detail = traceback.format_exc(limit=-3)
        seconds = time.perf_counter() - start
        with self._checking():
            self._speed = calibration.sample()
        self.stage_s[stage] += seconds
        op = Op(stage, label, seconds, ok, detail, calibration.scale(before, self._speed))
        self.ops.append(op)
        return op, result

    def _cli(self, stage: str, label: str, argv: list[str]) -> tuple[Op, str]:
        text = io.StringIO()

        def call():
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
                try:
                    return cli.main(argv)
                except SystemExit as exc:   # argparse usage errors
                    return exc.code if isinstance(exc.code, int) else 2

        op, rc = self._timed(stage, label, call)
        if op.ok and rc != 0:
            op.ok = False
            op.detail = f"exit {rc}: {text.getvalue().strip()[-300:]}"
        if rc != 0 and self.tracer is not None and self.tracer.recording:
            self.tracer.counters["cli.exit_nonzero"] += 1
        return op, text.getvalue()

    @contextlib.contextmanager
    def _checking(self):
        recording = self.tracer is not None and self.tracer.recording
        if recording:
            self.tracer.recording = False
        start = time.perf_counter()
        try:
            yield
        finally:
            self.check_s += time.perf_counter() - start
            if recording:
                self.tracer.recording = True

    def _gate(self, op: Op, check, *args) -> None:
        """Apply a check returning None or a problem; skipped for an
        operation that already failed."""
        if not op.ok:
            return
        with self._checking():
            try:
                problem = check(*args)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            op.ok = False
            op.detail = problem

    def _record(self, op: Op, outputs: list[Path]) -> None:
        """Count the bytes an operation wrote and remember it as the writer."""
        with self._checking():
            for path in outputs:
                if path.is_file():
                    self.bytes_written += path.stat().st_size
                    self.writers[path] = op

    def _manifest_outputs(self, directory: Path) -> list[Path]:
        with self._checking():
            try:
                manifest = json.loads((directory / "manifest.json").read_text())
            except (OSError, ValueError):
                return []
            return [Path(p) for p in manifest.get("outputs", {})]

    # -- one instance -------------------------------------------------------------

    def run_instance(self, inst, plan, fault: str | None = None) -> None:
        base = self.out / inst.name
        gdir, bundle = base / "graph", base / "bundle"
        gpath = gdir / "graph.json"
        rotation = self.inputs_dir / f"{inst.name}.rotation.json"
        expected = css.family_parameters(inst.family, inst.kprime)
        if fault == "wrong-k":
            expected = dataclasses.replace(expected, k=expected.k + 2)

        op, _ = self._cli("graph", f"{inst.name} graph", inst.graph_argv(gdir))
        self._record(op, self._manifest_outputs(gdir))
        self._gate(op, _check_graph, gpath, inst.vertices)

        if plan.weights:
            op, _ = self._cli("code", f"{inst.name} code", [
                "code", str(gpath), "--rotation", str(rotation), "--family", inst.family,
                "--kprime", str(inst.kprime), "--out", str(bundle)])
            self._record(op, self._manifest_outputs(bundle))
            self._gate(op, _check_code, bundle, expected)
            if fault == "hz-bit-flip":
                with self._checking():
                    _flip_first_bit(bundle / "hz.txt")
            for w in plan.weights:
                argv = ["distance", str(bundle), "--max-weight", str(w)]
                budget = budget_for(expected.n, w)
                if budget is not None:
                    argv += ["--budget", str(budget)]
                op, _ = self._cli("distance", f"{inst.name} distance w={w}", argv)
                self._record(op, self._manifest_outputs(bundle))
                self._gate(op, _check_distance, bundle, w)
            op, text = self._cli("verify", f"{inst.name} verify", ["verify", str(bundle)])
            self._gate(op, _check_verify, text)

        if plan.self_complementary:
            certify = _paley_multiplier if inst.family == "paley" else _generic_self_complementary
            op, cert = self._timed("certificate", f"{inst.name} self-complementary",
                                   lambda: certify(inst, gpath))
            self._gate(op, _check_self_complementary, cert)
        if plan.self_dual:
            op, result = self._timed("certificate", f"{inst.name} self-dual ({plan.self_dual})",
                                     lambda: _dual(gpath, rotation, plan.self_dual))
            self._gate(op, _check_dual, result, plan.self_dual)
        if plan.embed_search:
            out = base / "embed_search.json"
            op, _ = self._cli("certificate", f"{inst.name} embed-search", [
                "embed-search", str(gpath), "--genus", str(expected.genus), "--out", str(out)])
            self._record(op, [out])
            self._gate(op, _check_embed_search, gpath, out, expected.genus)

    def digests(self) -> dict[Path, str]:
        """sha256 of every artifact written (manifest.json is never listed),
        keyed by its path relative to the pass directory."""
        return {p.relative_to(self.out): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in self.writers}


# -- certificates (timed) -----------------------------------------------------------

def _paley_multiplier(inst, gpath: Path):
    graph = graphs.read_graph(gpath)
    field = fields.make_field(inst.p, inst.r, inst.modulus if inst.r > 1 else None)
    built = paley.PaleyGraph(field=field, graph=graph,
                             connection_set=fields.quadratic_residues(field))
    return graph, paley.verify_self_complementary_via_multiplier(built)


def _generic_self_complementary(inst, gpath: Path):
    graph = graphs.read_graph(gpath)
    return graph, graphs.is_self_complementary(graph)


def _dual(gpath: Path, rotation: Path, kind: str):
    graph = graphs.read_graph(gpath)
    dual = embedding.dual_graph(embedding.read_rotation(rotation, graph))
    cert = None
    if kind == "isomorphism" and dual.is_simple:
        cert = graphs.find_isomorphism(dual.graph, graph)
    return graph, dual, cert


# -- gate checks (untimed); each returns None or a problem ----------------------------

def _check_graph(gpath: Path, vertices: int):
    payload = json.loads(gpath.read_text())
    edges = len(payload["edges"])
    if payload["vertex_count"] != vertices:
        return f"{payload['vertex_count']} vertices, expected {vertices}"
    if 4 * edges != vertices * (vertices - 1):
        return f"{edges} edges, expected m(m-1)/4 = {vertices * (vertices - 1) / 4}"
    return None


def _check_code(bundle: Path, expected):
    payload = json.loads((bundle / "code.json").read_text())
    got = (payload["n"], payload["k"], payload["genus"])
    want = (expected.n, expected.k, expected.genus)
    if got != want:
        return f"(n, k, genus) = {got}, closed form gives {want}"
    return None


def _check_distance(bundle: Path, w: int):
    payload = json.loads((bundle / "code.json").read_text())
    d_found, d_lower = payload["d_found"], payload["d_lower"]
    if w < 3:
        if d_found is not None or d_lower != w + 1:
            return f"after w={w}: d_found={d_found}, d_lower={d_lower}; expected d > {w}"
        return None
    if d_found != 3 or d_lower != 3:
        return f"after w={w}: d_found={d_found}, d_lower={d_lower}; expected d = 3"
    code = css.read_bundle(bundle)
    for side in ("dz", "dx"):
        witness = json.loads((bundle / f"{side}_witness.json").read_text())
        support = tuple(witness["support"])
        if witness["weight"] != 3 or not css.verify_witness(code, witness["side"], support):
            return f"{side} witness {support} does not re-verify"
    return None


def _check_verify(text: str):
    if "FAIL" in text or "bundle ok" not in text:
        return f"verify output: {text.strip()[-300:]}"
    return None


def _check_self_complementary(result):
    graph, cert = result
    if cert is None:
        return "no self-complementarity certificate"
    if not graphs.verify_isomorphism(graph, graphs.complement(graph), cert.mapping):
        return "certificate does not map the graph onto its complement"
    return None


def _check_dual(result, kind: str):
    graph, dual, cert = result
    if not dual.is_simple:
        return f"dual not simple: {len(dual.loops)} loops"
    if dual.graph.vertex_count != graph.vertex_count:
        return f"dual has {dual.graph.vertex_count} vertices, graph {graph.vertex_count}"
    if kind == "isomorphism" and (
            cert is None or not graphs.verify_isomorphism(dual.graph, graph, cert.mapping)):
        return "no verified isomorphism from the dual onto the graph"
    return None


def _check_embed_search(gpath: Path, out: Path, genus: int):
    payload = json.loads(out.read_text())
    if "rotations" not in payload:
        return f"embed-search found nothing: {payload}"
    faces = embedding.trace_faces(embedding.read_rotation(out, graphs.read_graph(gpath)))
    if faces.genus != genus:
        return f"embedding has genus {faces.genus}, expected {genus}"
    return _check_dual(_dual(gpath, out, "isomorphism"), "isomorphism")


def _flip_first_bit(path: Path) -> None:
    """Flip the first matrix entry below the header line."""
    header, first, rest = path.read_text().split("\n", 2)
    flipped = ("1" if first[0] == "0" else "0") + first[1:]
    path.write_text("\n".join([header, flipped, rest]))
