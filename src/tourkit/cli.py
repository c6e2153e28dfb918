"""Batch command-line front door.

Every subcommand reads the module text formats, runs one operation, and
emits a deterministic report: a short human-readable summary followed by
a machine-readable ``key: value`` section. Rational quantities are
printed exactly as fractions; decimal renderings are annotations.

Exit codes: 0 success, 1 negative decision, 2 budget exhaustion,
3 malformed input or unusable arguments, 4 a failed internal audit.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import coloring as col
from . import digraphs as dg
from . import forcing as fc
from . import formats as fmt
from . import hardness as hd
from . import lowerbound as lb
from . import orderedhom as oh
from . import regularity as rg
from .errors import AuditError, BudgetExceeded

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3
EXIT_AUDIT = 4


class Report:
    def __init__(self) -> None:
        self.summary: list[str] = []
        self.values: list[tuple[str, str]] = []

    def note(self, line: str) -> None:
        self.summary.append(line)

    def put(self, key: str, value) -> None:
        if isinstance(value, Fraction):
            text = f"{value} (~{float(value):.6g})"
        else:
            text = str(value)
        self.values.append((key, text))

    def render(self) -> str:
        lines = list(self.summary)
        lines.append("---")
        lines.extend(f"{key}: {value}" for key, value in self.values)
        return "\n".join(lines) + "\n"


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")


def _emit(report: Report, out: Optional[str]) -> None:
    text = report.render()
    sys.stdout.write(text)
    if out:
        Path(out).write_text(text)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a fraction: {text!r}")


# -- handlers ------------------------------------------------------------


def _cmd_color(args) -> tuple[int, Report]:
    g = fmt.parse_oriented_graph(_read(args.graph))
    result = col.acyclic_k_coloring(g, args.k, budget=args.budget)
    rep = Report()
    rep.put("vertices", g.n)
    rep.put("k", args.k)
    if result is None:
        rep.note(f"no proper {args.k}-coloring")
        rep.put("colorable", "no")
        return EXIT_NEGATIVE, rep
    rep.note(f"proper {args.k}-coloring found")
    rep.put("colorable", "yes")
    rep.put("classes", " | ".join(
        " ".join(str(v) for v in cls) for cls in result.classes()
    ))
    return EXIT_OK, rep


def _cmd_chromatic(args) -> tuple[int, Report]:
    g = fmt.parse_oriented_graph(_read(args.graph))
    value = col.chromatic_number(g, budget=args.budget)
    rep = Report()
    rep.note(f"chromatic number {value}")
    rep.put("vertices", g.n)
    rep.put("chromatic-number", value)
    return EXIT_OK, rep


def _cmd_classify(args) -> tuple[int, Report]:
    g = fmt.parse_oriented_graph(_read(args.graph))
    verdict = col.classify(g, budget=args.budget)
    rep = Report()
    rep.note(verdict)
    rep.put("vertices", g.n)
    rep.put("classification", verdict)
    return EXIT_OK, rep


def _cmd_count(args) -> tuple[int, Report]:
    host = fmt.parse_oriented_graph(_read(args.host))
    pattern = fmt.parse_oriented_graph(_read(args.pattern))
    stats = dg.embedding_stats(host, pattern)
    rep = Report()
    rep.note(f"{stats.embeddings} embeddings")
    rep.put("embeddings", stats.embeddings)
    rep.put("automorphisms", stats.automorphisms)
    rep.put("unlabeled-copies", stats.unlabeled)
    return (EXIT_OK if stats.embeddings else EXIT_NEGATIVE), rep


def _cmd_distance(args) -> tuple[int, Report]:
    host = fmt.parse_tournament(_read(args.host))
    pattern = fmt.parse_oriented_graph(_read(args.pattern))
    result = dg.distance_to_h_free(host, pattern, budget=args.budget)
    rep = Report()
    rep.put("lower-bound", result.lower_bound)
    rep.put("exact", "yes" if result.exact else "no")
    if result.exact:
        rep.note(f"distance {result.distance}")
        rep.put("distance", result.distance)
        if result.flips:
            rep.put(
                "flips", " ".join(f"{a}-{b}" for a, b in result.flips)
            )
        return EXIT_OK, rep
    if result.lower_bound > host.n * (host.n - 1) // 2:
        # more reversals than vertex pairs: the search proved that none works
        rep.note("no reversal set makes the host pattern-free")
        return EXIT_NEGATIVE, rep
    # a cap-stopped search proves lower_bound = budget + 1; otherwise the
    # search's own node budget ran out
    capped = args.budget is not None and result.lower_bound > args.budget
    limit = "distance exceeds budget" if capped else "search node budget exhausted"
    rep.note(f"{limit}; proven lower bound {result.lower_bound}")
    return EXIT_BUDGET, rep


def _cmd_core(args) -> tuple[int, Report]:
    g = fmt.parse_labeled_graph(_read(args.graph))
    core = oh.ordered_core(g)
    rep = Report()
    rep.note(f"ordered core on {core.n} of {g.n} vertices")
    rep.put("core-vertices", " ".join(str(v) for v in core.vertices))
    rep.put("core-edges", " ".join(f"{a}-{b}" for a, b in sorted(core.edges)))
    return EXIT_OK, rep


def _cmd_kofh(args) -> tuple[int, Report]:
    h = fmt.parse_oriented_graph(_read(args.graph))
    family = oh.core_family(h)
    kernel = oh.select_k(family)
    witness = family.witnesses[family.members.index(kernel)]
    rep = Report()
    rep.note(f"family of {len(family)} core classes")
    rep.put("family-size", len(family))
    rep.put("kernel-vertices", " ".join(str(v) for v in kernel.vertices))
    rep.put(
        "kernel-edges", " ".join(f"{a}-{b}" for a, b in sorted(kernel.edges))
    )
    rep.put("witness-labeling", " ".join(str(x) for x in witness))
    return EXIT_OK, rep


def _cmd_forcing_build(args) -> tuple[int, Report]:
    h = fmt.parse_oriented_graph(_read(args.pattern))
    if h.n < 2:
        raise ValueError("pattern needs at least two vertices")
    coloring = col.acyclic_k_coloring(h, 2)
    if coloring is None:
        raise ValueError("pattern is not 2-colorable")
    classes = coloring.classes()
    if not classes[1]:
        # an acyclic pattern fits in one class; split off its first vertex
        classes = [classes[0][:1], classes[0][1:]]
    d = dg.OrientedGraph(2, [])
    f = fc.build_forcing(h, classes, d, args.m, args.seed)
    rep = Report()
    rep.note(f"built 2-partite tournament, parts of size {args.m}")
    rep.put("parts", f.k)
    rep.put("part-size", f.m)
    rep.put("seed", args.seed)
    rep.put("classes", " | ".join(" ".join(map(str, c)) for c in classes))
    if args.out:
        Path(args.out).write_text(fmt.serialize_kpartite(f))
        rep.put("written", args.out)
    return EXIT_OK, rep


def _cmd_forcing_check(args) -> tuple[int, Report]:
    f = fmt.parse_kpartite(_read(args.forcing))
    h = fmt.parse_oriented_graph(_read(args.pattern))
    verdict = fc.forces_exhaustive(f, h)
    rep = Report()
    rep.note("forces the pattern" if verdict else "some completion avoids the pattern")
    rep.put("forces", "yes" if verdict else "no")
    rep.put("completions", 2 ** len(f.inner_pairs()))
    return (EXIT_OK if verdict else EXIT_NEGATIVE), rep


def _cmd_forcing_search(args) -> tuple[int, Report]:
    h = fmt.parse_oriented_graph(_read(args.pattern))
    found = fc.search_min_forcing(h, args.m_max)
    rep = Report()
    if found is None:
        rep.note(f"no forcing bipartite tournament with parts up to {args.m_max}")
        rep.put("found", "no")
        return EXIT_NEGATIVE, rep
    rep.note(f"minimal forcing part size {found.m}")
    rep.put("found", "yes")
    rep.put("part-size", found.m)
    if args.out:
        Path(args.out).write_text(fmt.serialize_kpartite(found))
        rep.put("written", args.out)
    return EXIT_OK, rep


def _cmd_regularity(args) -> tuple[int, Report]:
    t = fmt.parse_tournament(_read(args.tournament))
    delta = _parse_fraction(args.delta)
    f = rg.default_bipartite_pattern(2)
    outcome = rg.strong_decomposition(t, f, delta, seed=args.seed)
    rep = Report()
    if isinstance(outcome, rg.AfnCopies):
        rep.note(f"copy branch: {outcome.count} pattern copies")
        rep.put("branch", "copies")
        rep.put("count", outcome.count)
        rep.put("witness-rows", " ".join(map(str, outcome.witness[0])))
        rep.put("witness-cols", " ".join(map(str, outcome.witness[1])))
        return EXIT_OK, rep
    rep.note(
        f"decomposition into {outcome.q} parts; "
        f"{outcome.item1_failures} pair failures allowed up to {outcome.item1_bound}"
    )
    rep.put("branch", "decomposition")
    rep.put("parts", outcome.q)
    rep.put("delta", outcome.delta)
    rep.put("gamma", outcome.gamma)
    rep.put("item1-failures", outcome.item1_failures)
    rep.put("item1-bound", outcome.item1_bound)
    # a representative pair that is not delta-homogeneous is resampled
    rep.put("item2-ok", "yes")
    rep.put("representative-sizes", " ".join(map(str, outcome.representative_sizes)))
    rep.put("attempts", outcome.attempts)
    return EXIT_OK, rep


def _cmd_behrend(args) -> tuple[int, Report]:
    result = lb.behrend(args.n)
    rep = Report()
    rep.note(f"{len(result.members)} progression-free integers up to {args.n}")
    rep.put("size", len(result.members))
    rep.put("members", " ".join(map(str, result.members)))
    rep.put("digits", result.digits)
    rep.put("dimension", result.dimension)
    rep.put("radius", "all" if result.radius is None else result.radius)
    return EXIT_OK, rep


def _cmd_rsgraph(args) -> tuple[int, Report]:
    pattern = tuple(int(x) for x in args.cycle.split(","))
    g = lb.rs_graph(args.k, pattern, args.nmax)
    rep = Report()
    rep.note(
        f"base graph on {g.r} vertices: {len(g.cliques)} cliques, "
        f"{g.patterned_cycles} patterned cycles"
    )
    rep.put("order", g.r)
    rep.put("cliques", len(g.cliques))
    rep.put("edges", len(g.edges))
    rep.put("delta", g.delta)
    rep.put("patterned-cycles", g.patterned_cycles)
    rep.put("cycle-bound", g.r * g.r)
    return EXIT_OK, rep


def _cmd_blowup(args) -> tuple[int, Report]:
    h = fmt.parse_oriented_graph(_read(args.pattern))
    b = lb.blowup_tournament(h, args.n, args.seed, n_max=args.nmax)
    rep = Report()
    rep.note(
        f"blow-up on {b.n} vertices: base order {b.base.r}, block size {b.m}, "
        f"{len(b.base.cliques)} cliques"
    )
    rep.put("vertices", b.n)
    rep.put("requested", args.n)
    rep.put("base-order", b.base.r)
    rep.put("block-size", b.m)
    rep.put("cliques", len(b.base.cliques))
    rep.put("seed", args.seed)
    if args.out:
        Path(args.out).write_text(
            fmt.serialize_oriented_graph(b.tournament, style=args.format)
        )
        Path(args.out + ".provenance").write_text(
            "\n".join(b.provenance_lines()) + "\n"
        )
        rep.put("written", args.out)
    return EXIT_OK, rep


def _cmd_audit_copies(args) -> tuple[int, Report]:
    h = fmt.parse_oriented_graph(_read(args.pattern))
    b = lb.blowup_tournament(h, args.n, args.seed, n_max=args.nmax)
    report = lb.audit_copy_localization(b)
    rep = Report()
    rep.note(
        f"{report.total_copies} copies, {len(report.violations)} localization "
        f"violations"
    )
    rep.put("copies", report.total_copies)
    rep.put("violations", len(report.violations))
    rep.put("special-tuples", report.special_tuples)
    rep.put("special-tuple-bound", report.special_tuple_bound)
    rep.put("copy-bound", report.copy_bound)
    return (EXIT_OK if report.ok else EXIT_NEGATIVE), rep


def _cmd_gadget_verify(args) -> tuple[int, Report]:
    result = hd.verify_gadget()
    rep = Report()
    rep.note(
        f"{result.proper_colorings} proper colorings over 128 assignments; "
        "endpoints always share a color"
    )
    rep.put("assignments", 128)
    rep.put("proper-colorings", result.proper_colorings)
    # a proper coloring that separates the endpoints raises AuditError
    rep.put("endpoints-always-equal", "yes")
    rep.put(
        "witness",
        " ".join(
            f"{name}={result.witness.color(i + 1)}"
            for i, name in enumerate(hd.GADGET_NAMES)
        ),
    )
    return EXIT_OK, rep


def _cmd_reduce(args) -> tuple[int, Report]:
    g = fmt.parse_undirected_graph(_read(args.graph))
    out = hd.reduce_graph(g)
    rep = Report()
    rep.note(
        f"tournament on {out.tournament.n} vertices "
        f"({out.n} spine + {3 * out.m} triple + {15 * out.m} block)"
    )
    rep.put("vertices", out.tournament.n)
    rep.put("triangles", out.m)
    if args.out:
        Path(args.out).write_text(
            fmt.serialize_oriented_graph(out.tournament, style=args.format)
        )
        Path(args.out + ".roles").write_text("\n".join(out.role_lines()) + "\n")
        rep.put("written", args.out)
    return EXIT_OK, rep


def _cmd_check_reduction(args) -> tuple[int, Report]:
    g = fmt.parse_undirected_graph(_read(args.graph))
    chk = hd.check_reduction(g, budget=args.budget)
    rep = Report()
    cut = "yes" if chk.cut is not None else "no"
    tcol = "yes" if chk.tournament_coloring is not None else "no"
    rep.note(f"cut: {cut}, tournament 2-colorable: {tcol}, agree: {chk.agree}")
    rep.put("triangle-free-cut", cut)
    rep.put("tournament-2-colorable", tcol)
    rep.put("agree", "yes" if chk.agree else "no")
    if chk.tournament_coloring is not None:
        # check_reduction raises AuditError (exit 4) on an invalid lift
        rep.put("lifted-cut-valid", "yes")
    return (EXIT_OK if chk.agree else EXIT_NEGATIVE), rep


def _cmd_lift(args) -> tuple[int, Report]:
    t = fmt.parse_tournament(_read(args.tournament))
    lifted = hd.lift(t, args.k)
    rep = Report()
    rep.note(f"lift on {lifted.n} vertices")
    rep.put("input-vertices", t.n)
    rep.put("output-vertices", lifted.n)
    rep.put("k", args.k)
    if args.out:
        Path(args.out).write_text(
            fmt.serialize_oriented_graph(lifted, style=args.format)
        )
        rep.put("written", args.out)
    return EXIT_OK, rep


# -- wiring ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise ValueError, so they exit
    with the malformed-input code rather than argparse's 2."""

    def error(self, message: str):
        raise ValueError(message)


def _budget(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be non-negative, got {value}")
    return value


# the optional flags a subcommand declares when its handler reads them;
# every subcommand takes --out
_FLAGS = {
    "--seed": dict(type=int, default=0, help="64-bit seed"),
    "--budget": dict(type=_budget, default=None, help="node budget"),
    "--format": dict(
        choices=("matrix", "edges"), default="edges",
        help="serialization style for written graphs",
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every
    later ``main`` call in the process; each parse returns a fresh
    namespace, and ``main`` looks the handler up by command name."""
    parser = _Parser(
        prog="tourkit",
        description="tournament colorability, forcing, regularity, "
        "lower-bound and hardness toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, *flags: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--out", default=None, help="write outputs here")
        return p

    p = command("color", "acyclic k-coloring", "--budget")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)

    p = command("chromatic", "tournament chromatic number", "--budget")
    p.add_argument("graph")

    p = command("classify", "easy/hard pattern classification", "--budget")
    p.add_argument("graph")

    p = command("count", "embedding count")
    p.add_argument("host")
    p.add_argument("pattern")

    p = command("distance", "reversal distance to pattern-freeness")
    p.add_argument("host")
    p.add_argument("pattern")
    # here the budget caps the distance; the search stops at its own
    # 2,000,000-node budget
    p.add_argument("--budget", **dict(
        _FLAGS["--budget"], help="largest distance to search for"
    ))

    p = command("core", "ordered core of a labeled graph")
    p.add_argument("graph")

    p = command("kofh", "maximal ordered core of a pattern")
    p.add_argument("graph")

    p = command("forcing-build", "seeded k-partite construction", "--seed")
    p.add_argument("pattern")
    p.add_argument("--m", type=int, required=True)

    p = command("forcing-check", "exhaustive forcing check")
    p.add_argument("forcing")
    p.add_argument("pattern")

    p = command("forcing-search", "minimal bipartite forcing search")
    p.add_argument("pattern")
    p.add_argument("--m-max", type=int, default=3)

    p = command("regularity", "decomposition pipeline", "--seed")
    p.add_argument("tournament")
    p.add_argument("--delta", default="1/4")

    p = command("behrend", "progression-free set")
    p.add_argument("--n", type=int, required=True)

    p = command("rsgraph", "clique-decomposable base graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cycle", required=True, help="comma-separated part indices")
    p.add_argument("--nmax", type=int, required=True)

    p = command("blowup", "hard-instance blow-up", "--seed", "--format")
    p.add_argument("pattern")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nmax", type=int, default=None)

    p = command("audit-copies", "copy localization audit", "--seed")
    p.add_argument("pattern")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nmax", type=int, default=None)

    command("gadget-verify", "exhaustive gadget sweep")

    p = command("reduce", "triangle-free-cut reduction", "--format")
    p.add_argument("graph")

    p = command("check-reduction", "reduction equivalence check", "--budget")
    p.add_argument("graph")

    p = command("lift", "colorability lift", "--format")
    p.add_argument("tournament")
    p.add_argument("--k", type=int, default=3)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code, report = globals()["_cmd_" + args.command.replace("-", "_")](args)
    except fmt.ParseError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exhausted: {exc}\n")
        return EXIT_BUDGET
    except AuditError as exc:
        sys.stderr.write(f"audit failure: {exc}\n")
        return EXIT_AUDIT
    except ValueError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    # commands whose --out already received an artifact only report to stdout
    artifact_commands = ("forcing-build", "forcing-search", "blowup", "reduce", "lift")
    out = None if args.command in artifact_commands else args.out
    _emit(report, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
