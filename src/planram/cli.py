"""Command line front end.

Subcommands:
  enumerate                stream graphs or triangulations
  verify pr-upper|pr-lower|delta|fact|lemmas
                           emit certificates as canonical JSON
  construct seed|grow|witness
                           seed graphs, grown embeddings, witness traces
  dual                     vertex-edge dual of piped embeddings
  identity                 triangle-edge identity residual of piped embeddings
  stats                    degree sequence, triangle-free edge count, faces

Graphs are read from stdin in graph6 (text lines) or planar_code (binary,
">>planar_code<<" header), auto-detected.  planar_code output is the
embedding the generator or construction built; the left-right planarity
test embeds only graph6 input.  --out is opened before any input is read
or search starts.  Exit codes: 0 all verified, 1 any refuted, 2 any
infeasible, 64 usage error, 74 output that could not be written.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

from . import __version__, errors
from .formats import (
    from_graph6,
    from_planar_code,
    rotation_to_graph,
    to_graph6,
    to_planar_code,
)
from .graphs import MAX_VERTICES
from .planarity import (
    PlaneEmbedding,
    edge_identity_residual,
    embed,
    gamma,
    vertex_edge_dual,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INFEASIBLE = 2
EXIT_USAGE = 64
EXIT_IOERR = 74


def _read_inputs():
    """Parse stdin as planar_code or graph6 into (graph, embedding) pairs.

    The embedding is None when the graph has no single plane embedding
    (input that is disconnected, or graph6 with no vertices).
    """
    data = sys.stdin.buffer.read()
    if data.startswith(b">>planar_code<<"):
        pairs = []
        for rot in from_planar_code(data):
            g = rotation_to_graph(rot)
            # a rotation system need not be a plane one
            pairs.append((g, PlaneEmbedding(g, rot) if g.is_connected()
                          else None))
        return pairs
    out = []
    for line in data.split():
        # latin-1 decodes any byte, so from_graph6 judges every character
        g = from_graph6(line.decode("latin-1"))
        try:
            out.append((g, embed(g)))
        except errors.Disconnected:
            out.append((g, None))
    return out


def _read_embeddings():
    """The stdin embeddings, for commands that need every graph embedded."""
    pairs = _read_inputs()
    if any(e is None for _, e in pairs):
        raise errors.Disconnected("embedding requires a connected graph")
    return [e for _, e in pairs]


def _write_graphs(graphs, fmt, out, rotations):
    """graphs as graph6 lines, or as planar_code of the rotations they
    were built with, each checked to be a plane embedding of its graph."""
    if fmt == "graph6":
        for g in graphs:
            out.write(to_graph6(g) + "\n")
        return
    for g, rot in zip(graphs, rotations, strict=True):
        PlaneEmbedding(g, rot)
    out.buffer.write(to_planar_code(rotations))


@contextmanager
def _output(path):
    """The --out file, closed on exit, or stdout when no path is given."""
    if not path:
        yield sys.stdout
        sys.stdout.flush()  # a failed write surfaces here, not at exit
        return
    try:
        out = open(path, "w")
    except OSError as exc:
        raise errors.BadInput(f"cannot write --out {path}: {exc.strerror}") \
            from None
    with out:
        yield out


def _emit_certs(certs, out):
    for c in certs:
        out.write(c.to_json() + "\n")
    verdicts = {c.verdict for c in certs}
    if "refuted" in verdicts:
        return EXIT_REFUTED
    if "infeasible" in verdicts:
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_enumerate(args, out):
    from .enumeration import EnumerationTask, classes

    if args.format == "planar_code" and args.mode == "c4free_planar" \
            and not args.maximal_only and args.n >= 2:
        # from order 2 on the classes include the edgeless graph; maximal
        # C4-free planar graphs are connected: an edge joining two
        # components creates no C4 and keeps the graph planar
        raise errors.Disconnected(
            "planar_code needs connected graphs; in c4free_planar mode "
            "use it with --maximal-only")
    task = EnumerationTask(n=args.n, mode=args.mode,
                           min_degree=args.min_degree,
                           maximal_only=args.maximal_only)
    result = classes(task, args.budget_nodes)
    _write_graphs(result.graphs, args.format, out, result.embeddings)
    return EXIT_OK


def cmd_verify(args, out):
    from . import ramsey

    if args.claim == "pr-lower":
        return _emit_certs([ramsey.verify_pr_lower(args.wheel)], out)
    budget = args.budget_nodes
    if args.claim == "pr-upper":
        certs = [ramsey.verify_pr_upper(args.wheel, args.host, budget)]
    elif args.claim == "delta":
        certs = [ramsey.verify_delta(args.n, budget)]
    elif args.claim == "fact":
        certs = [ramsey.check_fact(args.id, budget)]
    else:
        certs = [ramsey.lemma_property_suite(args.n, budget)]
    return _emit_certs(certs, out)


def cmd_construct(args, out):
    from .construct import (
        build_delta_witness,
        build_ramsey_lower_witness,
        resolve_seed,
    )

    if args.what == "witness":
        e = build_ramsey_lower_witness(args.wheel)
    elif args.what == "seed":
        e = resolve_seed(args.name)
    else:
        trace = build_delta_witness(args.n)
        if args.format == "trace":
            out.write(f"seed {trace.seed}\n")
            for op in trace.ops:
                out.write(" ".join(str(x) for x in op) + "\n")
            return EXIT_OK
        e = trace.embedding
    _write_graphs([e.base], args.format, out, [e.rotation])
    return EXIT_OK


def cmd_dual(args, out):
    for e in _read_embeddings():
        out.write(to_graph6(vertex_edge_dual(e)) + "\n")
    return EXIT_OK


def cmd_identity(args, out):
    # every residual first: input outside the identity's hypothesis is a
    # usage error and prints nothing
    residuals = [edge_identity_residual(e) for e in _read_embeddings()]
    for r in residuals:
        out.write(f"{r}\n")
    return EXIT_REFUTED if any(residuals) else EXIT_OK


def _degree_string(g):
    """The degree multiset as "d^m" terms, degrees ascending."""
    degs = g.degrees()
    return " ".join(f"{d}^{degs.count(d)}" for d in sorted(set(degs)))


def cmd_stats(args, out):
    for g, e in _read_inputs():
        if e is not None:
            census = e.face_census()
            faces = " ".join(f"{k}:{census[k]}" for k in sorted(census))
        else:
            faces = "-"  # disconnected or empty: no single plane embedding
        out.write(
            f"n={g.n} eps={g.edge_count} degrees={_degree_string(g)} "
            f"tau={len(gamma(g))} faces={faces}\n"
        )
    return EXIT_OK


def _at_least(low):
    """An argparse type: an int no smaller than low."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


class _SeedHelp(argparse.HelpFormatter):
    """Fills the seed names in for {seeds} when the help is printed, so
    that parsing a command line does not load ``construct``; printing
    ``construct seed --help`` does."""

    def _get_help_string(self, action):
        from .construct import SEED_NAMES

        return action.help.replace("{seeds}", ", ".join(SEED_NAMES))


def build_parser():
    p = argparse.ArgumentParser(prog="planram", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=None)

    e = sub.add_parser("enumerate", help="stream graph classes")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--mode", choices=["c4free_planar", "triangulation"],
                   default="c4free_planar")
    e.add_argument("--min-degree", type=int, default=0)
    e.add_argument("--maximal-only", action="store_true")
    e.add_argument("--format", choices=["graph6", "planar_code"],
                   default="graph6")
    common(e)
    e.set_defaults(func=cmd_enumerate)

    v = sub.add_parser("verify", help="emit certificates")
    vsub = v.add_subparsers(dest="claim", required=True)
    vu = vsub.add_parser("pr-upper")
    vu.add_argument("--wheel", type=int, required=True)
    vu.add_argument("--host", type=int, required=True)
    vl = vsub.add_parser("pr-lower")
    vl.add_argument("--wheel", type=int, required=True)
    vd = vsub.add_parser("delta")
    vd.add_argument("--n", type=int, required=True)
    vf = vsub.add_parser("fact")
    vf.add_argument("--id", required=True,
                    choices=["fact1", "fact2", "fact3",
                             "fact1_property", "fact2_property"])
    vm = vsub.add_parser("lemmas")
    vm.add_argument("--n", type=int, default=11)
    for sp in (vu, vl, vd, vf, vm):
        sp.add_argument("--workers", type=_at_least(1), default=1,
                        help="accepted for existing command lines; has no "
                        "effect, every search runs in one process")
        common(sp)
        sp.set_defaults(func=cmd_verify)
    # a budget caps a search; pr-lower loads or grows its witness
    for sp in (e, vu, vd, vf, vm):
        sp.add_argument("--budget-nodes", type=_at_least(0))

    c = sub.add_parser("construct", help="seed graphs and witnesses")
    csub = c.add_subparsers(dest="what", required=True)
    cs = csub.add_parser("seed", formatter_class=_SeedHelp)
    cs.add_argument("--name", required=True,
                    help="one of {seeds}, "
                    f"or cycleN for 3 <= N <= {MAX_VERTICES}")
    cg = csub.add_parser("grow")
    cg.add_argument("--n", type=int, required=True)
    cw = csub.add_parser("witness")
    cw.add_argument("--wheel", type=int, required=True)
    for sp, formats in ((cs, ()), (cg, ("trace",)), (cw, ())):
        sp.add_argument("--format",
                        choices=["graph6", "planar_code", *formats],
                        default="graph6")
        common(sp)
        sp.set_defaults(func=cmd_construct)

    for name, func in [("dual", cmd_dual), ("identity", cmd_identity),
                       ("stats", cmd_stats)]:
        sp = sub.add_parser(name)
        common(sp)
        sp.set_defaults(func=func)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code
        if exc.code not in (0, None):
            raise SystemExit(EXIT_USAGE)
        raise
    try:
        with _output(args.out) as out:
            return args.func(args, out)
    except errors.InfeasibleScale as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except errors.PlanramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        # stdout on the null device, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_IOERR


if __name__ == "__main__":
    raise SystemExit(main())
