"""One benchmark job: a fresh process that runs one `ncpe` CLI command.

    python3 perfbench/job.py META MODE [CLI ARGS...]

MODE is `plain`, `trace` (wrap the package's functions with spans from
perfbench/spans.py and write them to META.spans when the command ends) or
`import` (stop after the import; used to sample set-up time).  META gets
the monotonic time at which `ncpe.cli` finished importing, which the
parent subtracts from its own spawn time, the CPU time the process had
used by then, which the parent subtracts from the process's total, and the
file the package was imported from, which the parent requires to lie under
this checkout's src/.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ncpe.cli  # noqa: E402  (must follow the path set-up above)

imported = time.monotonic()
imported_cpu = time.process_time()


def main() -> None:
    meta_path, mode, cli_args = Path(sys.argv[1]), sys.argv[2], sys.argv[3:]
    ncpe_file = str(Path(ncpe.cli.__file__).resolve())
    meta_path.write_text(json.dumps({"imported": imported, "imported_cpu": imported_cpu,
                                      "ncpe_file": ncpe_file}))
    if mode == "import":
        return
    if mode == "plain":
        ncpe.cli.main(args=cli_args, prog_name="ncpe")
        return
    import spans  # from this script's directory, which is on sys.path
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        ncpe.cli.main(args=cli_args, prog_name="ncpe")
    finally:
        tracer.dump(Path(str(meta_path) + ".spans"))


if __name__ == "__main__":
    main()
