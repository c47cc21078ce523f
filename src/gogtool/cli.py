"""Command-line pipeline for the toolkit.

Every subcommand reads a .gog description (or a complex JSON), prints a
deterministic artifact to stdout, and optionally writes artifacts into
--out.  Exit codes: 0 success, 1 validation failure (a usage error
too), 2 cap exceeded, 3 internal invariant violation (always a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .count_algebra import DEFAULT_DICKSON_BOX, CountVector, thresholds as compute_thresholds
from .errors import (
    CapExceeded,
    GogError,
    GogSyntaxError,
    InvariantViolation,
    ValidationError,
)
from .gates import GateSystem, default_gates, escape_ray, is_admissible
from .model import (
    GogDocument,
    augment,
    glue,
    parse_document,
    parse_halfedge,
    serialize_gog,
    tree_degrees,
)
from .patches import (
    DEFAULT_REPAIR_BUDGET,
    DEFAULT_TREE_BUDGET,
    TreePatch,
    base_tree,
    caret_table,
    check_viral,
    enumerate_admissible,
    patch_to_dot,
)
from .simplicial import (
    SimplicialComplex,
    homology,
    lemma_connectivity_bound,
    random_complex,
)
from .stein_farley import (
    CSV_HEADER,
    DEFAULT_LINK_VERTEX_CAP,
    descending_link,
    link_connectivity_report,
    link_difference,
    oracle_descending_link,
    sf_vertices_at_height,
)


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    With ``indent`` set the stdlib skips its C encoder and yields one
    generator step per token, so this renders each container with one
    ``join`` or one ``%`` instead.  Each case equals the stdlib's output:

    - A plain int is ``int.__repr__`` and a str is
      ``encode_basestring_ascii``, the functions the stdlib calls.
    - A non-empty dict with str keys is one ``join`` of the pieces the
      stdlib writes: ``{``, then for each of ``sorted(obj.items())`` a
      line one level deeper, the key, ``": "``, the value and ``,``, with
      the last ``,`` replaced by ``}`` on the dict's own level.
      A non-empty list or tuple is the same with ``[`` ``]`` and no keys.
    - A list of exact lists or tuples whose elements all have type
      ``int`` is one template filled by one ``%``.  A row of n > 0
      numbers is n ``%d`` laid out as the stdlib lays out a list of
      ints, and ``%d`` of an exact int is ``int.__repr__``; an empty row
      is ``[]``, as the stdlib writes it.  Indents are spaces, so the
      template holds no other ``%``.  Bools, floats, int subclasses,
      strings and nested rows fail the type test and take the item path.
    - A list that holds one object several times renders it once: the
      same object at the same level has the same text.
    - Anything else (floats, bools, None, empty containers, non-str keys)
      is the stdlib's own text with each newline indented to the
      current level, which is exact because JSON text holds no raw
      newline.

    Recursion goes as deep as the artifact nests (at most 5 levels in
    every artifact), not as far as it is long.
    """
    return _render(obj, "\n") + "\n"


def _render(obj, nl: str) -> str:
    # nl is a newline plus the indent of the line obj's text starts on
    if type(obj) is int:
        return int.__repr__(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    inner = nl + "  "
    if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        parts = ["{"]
        for k, v in sorted(obj.items()):
            parts += (inner, encode_basestring_ascii(k), ": ", _render(v, inner), ",")
        parts[-1] = nl + "}"
        return "".join(parts)
    if isinstance(obj, (list, tuple)) and obj:
        if {int}.issuperset(map(type, obj)):
            return "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + nl + "]"
        # stops at the first non-row item, so enumerate's dict rows skip the flat scan
        if {list, tuple}.issuperset(map(type, obj)):
            flat = tuple(chain.from_iterable(obj))
            if {int}.issuperset(map(type, flat)):
                num = inner + "  "
                row = {
                    n: "[" + num + ("%d," + num) * (n - 1) + "%d" + inner + "]" if n else "[]"
                    for n in set(map(len, obj))
                }
                rows = list(map(row.__getitem__, map(len, obj)))
                rows[0] = "[" + inner + rows[0]
                rows[-1] += nl + "]"
                return ("," + inner).join(rows) % flat
        # one render per distinct item: the list keeps its items alive, so ids do not repeat
        distinct = {id(v): v for v in obj}
        text = {i: _render(v, inner) for i, v in distinct.items()}
        return "[" + inner + ("," + inner).join([text[id(v)] for v in obj]) + nl + "]"
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", nl)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _load_doc(path: str) -> GogDocument:
    return parse_document(_read(path))


def _load_complex(path: str) -> SimplicialComplex:
    try:
        data = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    return SimplicialComplex.from_json_dict(data)


def _resolve_gates(doc: GogDocument, args) -> GateSystem:
    g = doc.graph
    if getattr(args, "gates", None) is not None:
        hs = tuple(parse_halfedge(t) for t in args.gates.split(","))
        return GateSystem(g, hs)
    if getattr(args, "default_gates", False) or not doc.gates:
        order = doc.order
        if getattr(args, "order", None) is not None:
            order = tuple(args.order.split(","))
        return default_gates(g, order)
    return GateSystem(g, doc.gates)


def _load_system(args) -> tuple[GogDocument, GateSystem, TreePatch]:
    """The document, its gate system and the base tree at --root (default:
    the first vertex)."""
    doc = _load_doc(args.file)
    gs = _resolve_gates(doc, args)
    root = doc.graph.vertices[0] if args.root is None else args.root
    return doc, gs, base_tree(doc.graph, gs, root)


def _emit(args, artifacts: dict[str, str]) -> None:
    """Write the artifacts into --out, if given, then to stdout."""
    out = getattr(args, "out", None)
    if out:
        outdir = Path(out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            for name, text in artifacts.items():
                (outdir / name).write_text(text)
        except OSError as exc:
            path = exc.filename or out
            raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc
    multiple = len(artifacts) > 1
    for name, text in artifacts.items():
        if multiple:
            sys.stdout.write(f"# artifact: {name}\n")
        sys.stdout.write(text)


# -- subcommand handlers ---------------------------------------------------


def _cmd_validate(args) -> tuple[int, dict[str, str]]:
    doc = _load_doc(args.file)
    g = doc.graph
    report = {
        "vertices": list(g.vertices),
        "edges": {
            e.name: {
                "iota": e.iota,
                "tau": e.tau,
                "index_iota": e.index_iota,
                "index_tau": e.index_tau,
            }
            for e in g.edges
        },
        "tree_degrees": tree_degrees(g),
        "gates_in_file": [str(h) for h in doc.gates],
        "order": list(doc.order) if doc.order else None,
        "valid": True,
    }
    return 0, {"validate.json": _dumps(report)}


def _cmd_degrees(args) -> tuple[int, dict[str, str]]:
    doc = _load_doc(args.file)
    return 0, {"degrees.json": _dumps(tree_degrees(doc.graph))}


def _cmd_augment(args) -> tuple[int, dict[str, str]]:
    doc = _load_doc(args.file)
    return 0, {"augmented.gog": serialize_gog(augment(doc.graph), doc.gates, doc.order)}


def _cmd_glue(args) -> tuple[int, dict[str, str]]:
    d1 = _load_doc(args.file1)
    d2 = _load_doc(args.file2)
    g = glue(d1.graph, args.v, d2.graph, args.w, args.idx_v, args.idx_w)
    return 0, {"glued.gog": serialize_gog(g)}


def _cmd_gates(args) -> tuple[int, dict[str, str]]:
    doc = _load_doc(args.file)
    gs = _resolve_gates(doc, args)
    cert = is_admissible(doc.graph, gs)
    report = {
        "gates": [str(h) for h in gs.gates],
        "admissible": cert.admissible,
    }
    if cert.admissible:
        report["topological_order"] = [str(h) for h in cert.topological_order or ()]
    else:
        report["witness_cycle"] = [str(h) for h in cert.witness_cycle or ()]
        report["escape_ray"] = [str(h) for h in escape_ray(doc.graph, gs, cert)]
    return (0 if cert.admissible else 1), {"gates.json": _dumps(report)}


def _cmd_carets(args) -> tuple[int, dict[str, str]]:
    doc = _load_doc(args.file)
    gs = _resolve_gates(doc, args)
    table = caret_table(doc.graph, gs)
    return 0, {"carets.json": _dumps(table.to_json_dict())}


def _cmd_viral(args) -> tuple[int, dict[str, str]]:
    doc, gs, t0 = _load_system(args)
    report = check_viral(doc.graph, gs, t0, repair_budget=args.repair_budget)
    body = report.to_json_dict()
    body["base_tree_counts"] = t0.counts().to_json_dict()
    return (0 if report.passed else 1), {"viral.json": _dumps(body)}


def _cmd_enumerate(args) -> tuple[int, dict[str, str]]:
    doc, gs, t0 = _load_system(args)
    patches = enumerate_admissible(
        doc.graph, gs, t0, args.max_expansions, max_trees=args.max_trees
    )
    by_height: dict[int, int] = {}
    # one row object per class, rendered once
    classes: dict[CountVector, dict] = {}
    rows = []
    for p in patches:
        c = p.counts()
        row = classes.get(c)
        if row is None:
            row = classes[c] = {**c.to_json_dict(), "height": c.height}
        h = row["height"]
        by_height[h] = by_height.get(h, 0) + 1
        rows.append(row)
    report = {
        "total": len(patches),
        "by_height": {str(h): n for h, n in sorted(by_height.items())},
        "patches": rows,
    }
    artifacts = {"enumerate.json": _dumps(report)}
    if args.dot:
        artifacts["base_tree.dot"] = patch_to_dot(t0, "base_tree")
    return 0, artifacts


def _sf_vertices(height: int, table, base):
    try:
        return sf_vertices_at_height(height, table, base)
    except ValidationError as exc:  # its advice names a library function
        msg = "height search needs every caret to increase the leaf count (viral systems do)"
        raise ValidationError(f"{msg}; run `gogtool viral` on this system") from exc


def _cmd_sf(args) -> tuple[int, dict[str, str]]:
    doc, gs, t0 = _load_system(args)
    table = caret_table(doc.graph, gs)
    verts = _sf_vertices(args.height, table, t0.counts())
    report = {
        "height": args.height,
        "vertices": [v.to_json_dict() for v in verts],
    }
    return 0, {"sf.json": _dumps(report)}


def _cmd_desclink(args) -> tuple[int, dict[str, str]]:
    doc, gs, t0 = _load_system(args)
    table = caret_table(doc.graph, gs)
    base = t0.counts()
    verts = _sf_vertices(args.height, table, base)
    artifacts: dict[str, str] = {}
    reports = []
    csv_lines = [CSV_HEADER]
    for i, x in enumerate(verts):
        # the report takes homology up to max(m_max, 1): refuse before building
        link = descending_link(
            x, table, base, max_vertices=args.max_link_vertices, homology_dim=max(args.m_max, 1)
        )
        if i == 0:  # once per run, after the first link: a capped run does no Dickson search
            ths = [
                compute_thresholds(m, table, base, box=args.dickson_box)
                for m in range(args.m_max + 1)
            ]
        rep = link_connectivity_report(link, ths)
        body = rep.to_json_dict()
        if args.oracle:
            oracle = oracle_descending_link(x, doc.graph, gs, t0, max_trees=args.max_trees)
            diff = link_difference(link, oracle)
            if diff is not None:
                raise InvariantViolation(
                    f"fast-path link disagrees with the oracle at {x}: {diff}"
                )
            body["oracle_agrees"] = True
        reports.append(body)
        csv_lines.append(rep.csv_row())
        # the full link JSONs are artifacts only with --out, so only then built
        if args.out:
            artifacts[f"link_h{args.height}_{i}.json"] = _dumps(link.to_json_dict())
    artifacts["desclink.json"] = _dumps({"height": args.height, "links": reports})
    artifacts["desclink.csv"] = "\n".join(csv_lines) + "\n"
    return 0, artifacts


def _cmd_homology(args) -> tuple[int, dict[str, str]]:
    cx = _load_complex(args.infile)
    report = homology(cx, max_dim=args.max_dim)
    return 0, {"homology.json": _dumps(report.to_json_dict())}


def _cmd_lemma_check(args) -> tuple[int, dict[str, str]]:
    cx = _load_complex(args.infile)
    # read the labels in the complex's label type
    sigma = tuple(args.sigma.split(","))
    if cx.vertices and type(cx.vertices[0]) is int:
        try:
            sigma = tuple(int(t) for t in sigma)
        except ValueError as exc:
            raise ValidationError(
                f"--sigma labels must be integers for this complex, got {args.sigma!r}"
            ) from exc
    cb = lemma_connectivity_bound(cx, sigma, args.m, args.k)
    report = {
        "sigma": list(cb.sigma),
        "m": cb.m,
        "k": cb.k,
        "bound": cb.bound,
        "failed_hypothesis": cb.failed,
        "note": cb.note,
    }
    return 0, {"lemma_check.json": _dumps(report)}


def _cmd_threshold(args) -> tuple[int, dict[str, str]]:
    doc, gs, t0 = _load_system(args)
    table = caret_table(doc.graph, gs)
    th = compute_thresholds(args.m, table, t0.counts(), box=args.dickson_box)
    return 0, {"threshold.json": _dumps(th.to_json_dict())}


def _cmd_random_complex(args) -> tuple[int, dict[str, str]]:
    cx = random_complex(
        args.seed,
        args.vertices,
        args.density,
        ground=args.ground,
        drop=args.drop,
        max_dim=args.max_dim,
    )
    return 0, {"complex.json": _dumps(cx.to_json_dict())}


# -- parser ---------------------------------------------------------------


def _add_gate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gates", help="explicit gate list, e.g. e1.tau,e2.iota")
    p.add_argument(
        "--default-gates",
        action="store_true",
        help="use the higher-endpoint rule (loops gated on both sides)",
    )
    p.add_argument("--order", help="comma-separated vertex order for default gates")


def _add_tree_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--root", help="root vertex of the base tree (default: first vertex)")


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ValidationError, so it exits 1 with one
    line like any other bad input (argparse exits 2, the cap code).  Its
    subparsers are of this class too."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gogtool",
        description="graphs of groups: gates, carets, count algebra, descending links",
    )
    parser.add_argument("--out", help="directory to write artifacts into")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a .gog file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("degrees", help="tree degrees of every vertex")
    p.add_argument("file")
    p.set_defaults(func=_cmd_degrees)

    p = sub.add_parser("augment", help="multiply every half-edge index by 3")
    p.add_argument("file")
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("glue", help="join two graphs with a fresh edge")
    p.add_argument("file1")
    p.add_argument("v")
    p.add_argument("file2")
    p.add_argument("w")
    p.add_argument("idx_v", type=int)
    p.add_argument("idx_w", type=int)
    p.set_defaults(func=_cmd_glue)

    p = sub.add_parser("gates", help="resolve a gate system and decide admissibility")
    p.add_argument("file")
    _add_gate_flags(p)
    p.set_defaults(func=_cmd_gates)

    p = sub.add_parser("carets", help="caret table (M, I, leaf multisets)")
    p.add_argument("file")
    _add_gate_flags(p)
    p.set_defaults(func=_cmd_carets)

    p = sub.add_parser("viral", help="check the viral expansion property")
    p.add_argument("file")
    _add_gate_flags(p)
    _add_tree_flags(p)
    p.add_argument("--repair-budget", type=int, default=DEFAULT_REPAIR_BUDGET)
    p.set_defaults(func=_cmd_viral)

    p = sub.add_parser("enumerate", help="enumerate admissible trees from the base tree")
    p.add_argument("file")
    _add_gate_flags(p)
    _add_tree_flags(p)
    p.add_argument("--max-expansions", type=int, required=True)
    p.add_argument("--max-trees", type=int, default=DEFAULT_TREE_BUDGET)
    p.add_argument("--dot", action="store_true", help="also emit the base tree as DOT")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("sf", help="count classes at a given height")
    p.add_argument("file")
    _add_gate_flags(p)
    _add_tree_flags(p)
    p.add_argument("--height", type=int, required=True)
    p.set_defaults(func=_cmd_sf)

    p = sub.add_parser("desclink", help="descending links at a given height")
    p.add_argument("file")
    _add_gate_flags(p)
    _add_tree_flags(p)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="cross-check against the tree-level oracle")
    p.add_argument("--m-max", type=int, default=0)
    p.add_argument("--max-link-vertices", type=int, default=DEFAULT_LINK_VERTEX_CAP)
    p.add_argument("--max-trees", type=int, default=DEFAULT_TREE_BUDGET)
    p.add_argument("--dickson-box", type=int, default=DEFAULT_DICKSON_BOX)
    p.set_defaults(func=_cmd_desclink)

    p = sub.add_parser("homology", help="integer homology of a complex JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-dim", type=int, default=None)
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("lemma-check", help="pseudosimplex connectivity checker")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--sigma", required=True, help="comma-separated vertex labels")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(func=_cmd_lemma_check)

    p = sub.add_parser("threshold", help="connectivity threshold constants")
    p.add_argument("file")
    _add_gate_flags(p)
    _add_tree_flags(p)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--dickson-box", type=int, default=DEFAULT_DICKSON_BOX)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("random-complex", help="seeded pseudorandom complex")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--ground", type=int, default=0)
    p.add_argument("--drop", type=float, default=0.0)
    p.add_argument("--max-dim", type=int, default=None)
    p.set_defaults(func=_cmd_random_complex)

    return parser


# least allowed value of each numeric option that has one
_MINIMUM = {
    "height": 0,
    "m_max": 0,
    "max_expansions": 0,
    "max_trees": 0,
    "max_link_vertices": 0,
    "max_dim": 0,
    "dickson_box": 1,
    "repair_budget": 0,
    "vertices": 0,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name, least in _MINIMUM.items():
            value = getattr(args, name, None)
            if value is not None and value < least:
                flag = "--" + name.replace("_", "-")
                raise ValidationError(f"{flag} must be at least {least}, got {value}")
        code, artifacts = args.func(args)
        _emit(args, artifacts)
    except (GogSyntaxError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal invariant violated (bug): {exc}", file=sys.stderr)
        return 3
    except GogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        pass  # reported below, once leaving the handler has freed the failed run's frames
    else:
        return code
    hint = (
        "lower --max-link-vertices or --height"
        if args.command == "desclink"
        else "use a smaller input or lower bounds"
    )
    print(f"cap exceeded: out of memory; {hint}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
