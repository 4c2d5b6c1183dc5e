"""The benchmark in perfbench/ looks library functions up by name: its
tracer wraps a fixed list of (module, attribute) targets, and its workloads
read lib.<module>.<name> at call time. A library change that deletes or
renames one of them breaks a benchmark run, so every name must resolve.
"""

import importlib.util
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _perfbench_run():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(PERFBENCH, "run.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_every_target():
    run = _perfbench_run()
    run.import_library()
    tracer = run.make_tracer()

    def resolve(modname, attr):
        obj = sys.modules[f"squarewalls.{modname}"]
        for part in attr.split("."):
            obj = getattr(obj, part)
        return obj

    try:
        tracer.install()
        for modname, attr, _span, _counter in tracer.targets:
            assert hasattr(resolve(modname, attr), "__wrapped__"), (modname, attr)
    finally:
        tracer.uninstall()
    for modname, attr, _span, _counter in tracer.targets:
        assert not hasattr(resolve(modname, attr), "__wrapped__"), (modname, attr)


def test_workload_library_names_resolve():
    lib = _perfbench_run().import_library()
    with open(os.path.join(PERFBENCH, "workloads.py")) as fh:
        src = fh.read()
    names = set(re.findall(r"\blib\.(\w+(?:\.\w+)+)", src))
    # a module bound to a local name (walls = self.lib.walls) is read
    # through that name
    for alias, module in re.findall(r"(\w+) = self\.lib\.(\w+)\n", src):
        names |= {f"{module}.{attr}"
                  for attr in re.findall(rf"(?<![\w.]){alias}\.(\w+)", src)}
    assert len(names) > 10
    for dotted in sorted(names):
        obj = lib
        for part in dotted.split("."):
            assert hasattr(obj, part), dotted
            obj = getattr(obj, part)
