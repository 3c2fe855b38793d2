"""The names the benchmark's tracer patches must exist where it patches them.

`bench/spans.py` swaps module attributes of the package for timing
wrappers by name; a refactor that drops or moves one would otherwise only
show up in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from assetval import cli, core, schedule

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patched_names_exist():
    spans = load_spans()
    modules = {"core": core, "schedule": schedule, "cli": cli}
    wanted = [(modules[mod], attr) for attr, where in spans.CORE_LEAVES.values() for mod in where]
    wanted += [(mod, attr) for attr in spans.SCHEDULE_SPANS for mod in (schedule, cli)]
    wanted += [(cli, attr) for attr in (*spans.CLI_COMMANDS, *spans.CLI_EMITTERS, "_load_registry",
                                        "_batch_record", "build_parser", "main")]
    wanted.append((schedule, "_CLASSIC_BOOK"))
    missing = [f"{mod.__name__}.{attr}" for mod, attr in wanted if not hasattr(mod, attr)]
    assert missing == []
