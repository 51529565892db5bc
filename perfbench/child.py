"""Child process of the benchmark; one process per measured launch.

    python3 child.py setup KIND -- CLI-ARGS...
        Import carleson.cli, load the config CLI-ARGS give, and build the
        lattice arrays the workload uses (KIND: "lattice" for lattice_arrays
        over j_lo..j_hi, "cumulative" for cumulative_lattice_arrays at both
        truncations, "none"), then print the backend and numpy version.
        The parent times the whole process: that is one set-up launch.

    python3 child.py trace SPANS.npz -- CLI-ARGS...
        Install the span tracer, call carleson.cli.main(CLI-ARGS) in this
        process and write the spans to SPANS.npz, also when the command
        raises.  Exits with the command's exit code.
"""

import sys


def _config(cli_args):
    """The config carleson.cli.main would build from these arguments."""
    import dataclasses

    from carleson.cli import build_parser
    from carleson.config import ExperimentConfig, load_config

    args = build_parser().parse_args(cli_args)
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(ExperimentConfig)
        if getattr(args, f.name) is not None
    }
    return load_config(args.config, overrides)


def setup(kind, cli_args) -> int:
    import numpy

    import carleson
    from carleson import kernels

    cfg = _config(cli_args)
    fam = cfg.family()
    if kind == "lattice":
        for j in range(cfg.j_lo, cfg.j_hi + 1):
            kernels.lattice_arrays(fam, j)
    elif kind == "cumulative":
        for J in (cfg.carleson_j, cfg.carleson_j2):
            kernels.cumulative_lattice_arrays(fam, J, cfg.budget)
    elif kind != "none":
        raise SystemExit(f"unknown set-up kind {kind!r}")
    print(f"backend={carleson.BACKEND} numpy={numpy.__version__}")
    return 0


def trace(spans_path, cli_args) -> int:
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    import carleson.cli

    try:
        return carleson.cli.main(cli_args)
    finally:
        tracer.save(spans_path)


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--" or argv[0] not in ("setup", "trace"):
        raise SystemExit(__doc__)
    mode, arg, cli_args = argv[0], argv[1], argv[3:]
    return setup(arg, cli_args) if mode == "setup" else trace(arg, cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
