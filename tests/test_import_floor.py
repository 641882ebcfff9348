"""What a CLI call imports: each subcommand loads only what it uses, so no
timing test is needed to keep the import floor from creeping back."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: run in a fresh interpreter; it imports json, dataclasses and inspect
#: only for its report, after the checks
_PROBE = """\
import sys
import pertbvp.cli
from pertbvp import cli, engine, expr, problem
names = ("numpy.random", "numpy.polynomial", "pertbvp.oracles", "json")
loaded = {"import": [name for name in names if name in sys.modules],
          "fft": "numpy.fft" in sys.modules}
cli.main(["oracle", "--problem", "demos/model3.prob", "--lambda", "1",
          "--guess", "9.8696"])
loaded["oracle"] = [name for name in names if name in sys.modules]
import dataclasses, inspect, json
loaded["dataclasses"] = sorted(
    f"{module.__name__}.{name}"
    for module in (expr, problem, engine)
    for name, obj in vars(module).items()
    if inspect.isclass(obj) and obj.__module__ == module.__name__
    and dataclasses.is_dataclass(obj))
print(json.dumps(loaded))
"""


def test_a_cli_call_imports_only_what_it_uses():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                               if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    got = json.loads(done.stdout.splitlines()[-1])
    # importing the CLI loads no RNG, no numpy.polynomial, no oracles, no json
    assert got["import"] == []
    # and no numpy.fft: the first transform resolves the FFT gufunc
    assert got["fft"] is False
    # the FD oracle loads the oracles, and still no RNG
    assert got["oracle"] == ["pertbvp.oracles"]
    # every value class is a plain record but the series
    assert got["dataclasses"] == ["pertbvp.engine.PerturbationSeries"]
