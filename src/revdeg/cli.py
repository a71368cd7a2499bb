"""Command-line front end.

Subcommands: analyze, group-info, basic-degree, burnside-mul, geometry-check,
figure-data, oracle-stability.  Exit codes: 0 certificates emitted, 10 clean
run without certificates, 20 hypotheses failed, 30 configuration error (a
domain the geometry cannot solve among them), 31 unexpected internal error,
32-39 one per typed failure (EXIT_FAILURES).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import burnside as br
from .burnside import InconsistentDegreeData
from .chars import NonIntegralAverage
from .config import AnalysisConfig, ConfigError, example_config_text, family_spec, int_field, parse_config
from .degrees import DegreeEngine, IncompleteLattice, RouteDisagreement
from .geometry import FIGURE_HEADER, UnsolvableDomain, check_conditions, figure_data
from .lattice import InadmissibleLevel, TruncationInstability, gamma_z2_classes
from .report import make_engine, run_analyze
from .spectra import SignNotCertified

EXIT_OK = 0
EXIT_NO_CERTIFICATES = 10
EXIT_HYPOTHESES_FAILED = 20
EXIT_CONFIG = 30  # ConfigError (a missing domain too) or a domain the geometry cannot solve
EXIT_UNEXPECTED = 31
# each typed failure of the engine has its own code; 38 is retired, not reused
EXIT_FAILURES = {
    TruncationInstability: 32,
    IncompleteLattice: 33,
    RouteDisagreement: 34,
    SignNotCertified: 35,
    NonIntegralAverage: 36,
    InconsistentDegreeData: 37,
    InadmissibleLevel: 39,
}


def _checked(value, name: str, least: int):
    """A command-line integer (None when absent), refused (ConfigError) as
    config.int_field refuses a field of that name."""
    problems: list[str] = []
    int_field({name: value}, name, None, least, problems)
    if problems:
        raise ConfigError(problems)
    return value


def _load_config(args) -> AnalysisConfig:
    """The configuration, its truncation level overridden by --truncation;
    --truncation and --grid are checked as truncation_base and boundary_grid.
    A --config file that cannot be read as UTF-8 text is refused
    (ConfigError) with its path and the reason."""
    if args.config == "example":
        text = example_config_text()
    else:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            reason = getattr(e, "strerror", None) or e
            raise ConfigError([f"cannot read --config {args.config!r}: {reason}"]) from None
    cfg = parse_config(text)
    _checked(getattr(args, "grid", None), "boundary_grid", 2)
    truncation = _checked(getattr(args, "truncation", None), "truncation_base", 1)
    if truncation is not None:
        cfg = replace(cfg, truncation_base=truncation)
    return cfg


def _out_path(text: str) -> Path:
    """--out target, refused at parse time, before any work, when its
    directory does not exist."""
    path = Path(text)
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(
            f"cannot write {text!r}: directory {str(path.parent)!r} does not exist")
    return path


def _token_mode(token: str) -> int | None:
    """The mode k of a deg:k token, checked as --mode is; None for anything
    else, which is taken for a class label."""
    k = token.removeprefix("deg:")
    is_mode = k != token and k.removeprefix("-").isdecimal()
    return _checked(int(k), "mode", 0) if is_mode else None


def _emit(text: str, args) -> None:
    if getattr(args, "out", None):
        args.out.write_text(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    cfg = _load_config(args)
    doc = run_analyze(cfg, skip_geometry=args.unsafe_skip_geometry)
    _emit(doc.machine_text() if args.format == "machine" else doc.text(), args)
    return doc.exit_code


def cmd_group_info(args) -> int:
    cfg = _load_config(args)
    gz, classes, names = gamma_z2_classes(cfg.group_kind, cfg.group_n)
    lines = [f"subgroup classes of {gz.name} ({len(classes)} classes):"]
    lines += [f"  {nm}: order {len(c.representative)}, "
              f"{c.n_conjugates} conjugates, Weyl order {c.weyl_order}"
              for c, nm in zip(classes, names)]
    _emit("\n".join(lines) + "\n", args)
    return EXIT_OK


def _default_component(engine: DegreeEngine) -> int:
    try:
        return engine.natural_component()
    except ValueError:
        return 0


def _element_for_token(engine: DegreeEngine, token: str):
    k = _token_mode(token)
    if k is not None:
        return engine.basic_degree(k, _default_component(engine))
    if token not in engine.lattice.labels:
        # populate the working set from the low modes before label lookup
        comp = _default_component(engine)
        for k in (0, 1):
            engine.basic_degree(k, comp)
    try:
        return br.generator(engine.lattice, engine.lattice.class_id_by_label(token))
    except KeyError:
        known = ", ".join(sorted(engine.lattice.labels))
        raise ConfigError([f"unknown class label {token!r}; known labels: {known}"])


def cmd_basic_degree(args) -> int:
    cfg = _load_config(args)
    engine = make_engine(cfg, [_checked(args.mode, "mode", 0)])
    l = _default_component(engine)
    e = engine.basic_degree(args.mode, l)
    _emit(f"deg[V({args.mode},{l})] = {e.render()}\n", args)
    return EXIT_OK


def cmd_burnside_mul(args) -> int:
    cfg = _load_config(args)
    modes = [k for k in map(_token_mode, (args.left, args.right)) if k is not None]
    engine = make_engine(cfg, modes)
    left = _element_for_token(engine, args.left)
    right = _element_for_token(engine, args.right)
    _emit(f"{left.multiply(right).render()}\n", args)
    return EXIT_OK


def cmd_geometry_check(args) -> int:
    cfg = _load_config(args)
    fam = family_spec(cfg)
    if fam is None:
        raise ConfigError(["no domain in configuration"])
    rep = check_conditions(fam, grid=cfg.boundary_grid if args.grid is None else args.grid)
    lines = [f"{k}: {v}" for k, v in sorted(rep.status.items())]
    lines += [f"{k} = {v:.9g}" for k, v in sorted(rep.constants.items())]
    _emit("\n".join(lines) + "\n", args)
    return EXIT_OK if rep.all_passed() else EXIT_HYPOTHESES_FAILED


def cmd_figure_data(args) -> int:
    cfg = _load_config(args)
    if cfg.domain is None:
        raise ConfigError(["no domain in configuration"])
    rows = figure_data(cfg.domain, grid=1024 if args.grid is None else args.grid)
    lines = [FIGURE_HEADER]
    lines += [",".join(f"{v:.12g}" for v in row) for row in rows]
    _emit("\n".join(lines) + "\n", args)
    return EXIT_OK


def cmd_oracle_stability(args) -> int:
    """Check every containment count of the example pipeline's working set
    at both levels (ClassLattice.n_count refuses one that differs); the Weyl
    orders were checked so as each class was interned."""
    cfg = _load_config(args)
    engine = make_engine(cfg, ())
    nat = _default_component(engine)
    engine.basic_degree(0, nat)
    engine.basic_degree(1, nat)
    lat = engine.lattice
    ids = range(len(lat.classes))
    for i in ids:
        for j in ids:
            lat.n_count(i, j)
    _emit(f"stability diff empty over {len(ids)} classes "
          f"(levels {lat.m_lo}/{lat.m_hi})\n", args)
    return EXIT_OK


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="revdeg", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, grid=False, trunc=True):
        p.add_argument("--config", default="example",
                       help="path to a JSON configuration, or 'example'")
        p.add_argument("--out", type=_out_path, help="write output to this path")
        if trunc:
            p.add_argument("--truncation", type=int,
                           help="override the base truncation level")
        if grid:
            p.add_argument("--grid", type=int, help="grid size override")

    p = sub.add_parser("analyze", help="full pipeline: geometry, spectrum, degrees")
    common(p)
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.add_argument("--unsafe-skip-geometry", action="store_true",
                   help="emit degrees even when geometry checks fail (watermarked)")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("group-info", help="subgroup classes of Gamma x Z2")
    common(p, trunc=False)
    p.set_defaults(fn=cmd_group_info)

    p = sub.add_parser("basic-degree", help="basic degree of one Fourier mode")
    common(p)
    p.add_argument("--mode", type=int, required=True)
    p.set_defaults(fn=cmd_basic_degree)

    p = sub.add_parser("burnside-mul", help="product of two Burnside elements")
    common(p)
    p.add_argument("--left", required=True, help="class label or deg:<mode>")
    p.add_argument("--right", required=True, help="class label or deg:<mode>")
    p.set_defaults(fn=cmd_burnside_mul)

    p = sub.add_parser("geometry-check", help="verify the domain conditions")
    common(p, grid=True, trunc=False)
    p.set_defaults(fn=cmd_geometry_check)

    p = sub.add_parser("figure-data", help="boundary data table (CSV)")
    common(p, grid=True, trunc=False)
    p.set_defaults(fn=cmd_figure_data)

    p = sub.add_parser("oracle-stability", help="two-level stability diff")
    common(p)
    p.set_defaults(fn=cmd_oracle_stability)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        sys.stderr.write(str(e) + "\n")
        return EXIT_CONFIG
    except UnsolvableDomain as e:
        sys.stderr.write(f"{type(e).__name__}: {e}\n")
        return EXIT_CONFIG
    except tuple(EXIT_FAILURES) as e:
        sys.stderr.write(f"{type(e).__name__}: {e}\n")
        return next(code for t, code in EXIT_FAILURES.items() if isinstance(e, t))
    except Exception as e:  # noqa: BLE001 -- surfaced with the failing condition
        sys.stderr.write(f"internal error: {type(e).__name__}: {e}\n")
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
