"""Run the sirsql CLI once; report the import and main() times on stderr.

    python3 perfbench/cli_probe.py -k kernel.sqlite explain R000

Stands in for `python -m sirsql.cli` in traced runs.  The last line of
stderr is {"import_ms": ..., "main_ms": ...}; the exit code is main()'s.
"""

import json
import sys
import time

start = time.perf_counter()
import sirsql.cli  # noqa: E402

imported = time.perf_counter()
code = sirsql.cli.main(sys.argv[1:])
done = time.perf_counter()
sys.stdout.flush()
print(json.dumps({"import_ms": (imported - start) * 1000, "main_ms": (done - imported) * 1000}),
      file=sys.stderr)
sys.exit(code)
