"""Fresh-process probes started by `run.py`, one at a time.

    child.py setup                  time `import edgelca.cli` plus loading the
                                    four bundled data files; print seconds
    child.py setup-trace OUT        load the four data files with spans, written to OUT
    child.py cli OUT COUNTING ARGS  run `edgelca ARGS` with spans, written to OUT

`edgelca` must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import json
import sys
import time


def _load_data(defaults):
    defaults.default_factor_table()
    defaults.default_unit_registry()
    defaults.default_trends()
    defaults.default_scenarios()


def main(argv):
    mode = argv[0]
    if mode == "setup":
        start = time.perf_counter()
        import edgelca.cli  # noqa: F401
        from edgelca import defaults

        _load_data(defaults)
        print(json.dumps({"seconds": time.perf_counter() - start}))
        return 0

    from tracer import Tracer

    if mode == "setup-trace":
        import edgelca.cli  # noqa: F401
        from edgelca import defaults

        tracer = Tracer().install()
        _load_data(defaults)
        code = 0
    else:
        assert mode == "cli"
        import click
        import edgelca.cli

        tracer = Tracer(counting=argv[2] == "1").install()
        try:
            tracer.span("cli.main", edgelca.cli.main, argv[3:], standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
        sys.stdout.flush()
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
