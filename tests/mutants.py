"""Mutation catalogue: does the core test set notice each named fault?

Each mutant is a file, an old string that must occur exactly once in it,
and the string that replaces it. For each mutant in turn, the script copies
the tree into a fresh temporary directory, applies the mutant there and
runs the core tests (:data:`TESTS`, the unit modules first) with ``-x``.
A mutant is *killed* when a test fails, with the first failing test
printed, *timed out* when the tests run past :data:`TIMEOUT_S`, with the
test that was running (a hang is noticed too), and *survives* when every
test passes; a survivor marks behaviour no test pins. The mutants run one
at a time, never in parallel, and the checkout itself is never edited.
SIGTERM ends the script as an exception would, so the temporary copy is
removed and the running pytest is killed.

Run from the repository root, for every mutant or the named ones::

    python tests/mutants.py [NAME ...]

It exits 1 if a mutant survived or could not be applied. pytest does not
collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS = [f"tests/test_{name}.py" for name in
         ("rng", "qos", "router", "scenario", "kernel", "equivalence_property", "acceptance")]
# the core tests take about 30 s when nothing fails
TIMEOUT_S = 300
# left out of each copy: version control and what runs leave behind
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".perfbench_out", "*.egg-info")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str


KERNEL, MODEL = "src/dsnetsim/kernel.py", "src/dsnetsim/model.py"
ROUTER, QOS, RNG = "src/dsnetsim/router.py", "src/dsnetsim/qos.py", "src/dsnetsim/rng.py"
SCENARIO = "src/dsnetsim/scenario.py"

MUTANTS = [
    Mutant("lookahead-plus-2", MODEL,
           "return 1 + min((e.delay_ns", "return 2 + min((e.delay_ns"),
    Mutant("restore-keeps-queued-packets", ROUTER,
           "for packets in pipe.pkts:\n                    packets.clear()",
           "for packets in pipe.pkts:\n                    pass"),
    Mutant("fossil-bisect-right", KERNEL,
           "i = bisect.bisect_left(history, gvt,", "i = bisect.bisect_right(history, gvt,"),
    Mutant("causality-check-strict", KERNEL, "if t <= now:", "if t < now:"),
    Mutant("cut-through-no-queue-stamp", ROUTER,
           "        st[queue.i + 1] = now\n        link = pipe.link",
           "        link = pipe.link"),
    Mutant("srtcm-green-above-need", QOS,
           "if st[i] >= need:\n            st[i] -= need\n            return _GREEN",
           "if st[i] > need:\n            st[i] -= need\n            return _GREEN"),
    Mutant("earliest-ready-floors", QOS,
           "return now_ns + -(-deficit // self.rate_Bps)",
           "return now_ns + deficit // self.rate_Bps"),
    Mutant("arrive-not-counted", ROUTER,
           "    st[ARRIVE_COUNT] += 1\n", ""),
    Mutant("uniform-keeps-cursor", RNG,
           "cursors[purpose] = c + 1", "cursors[purpose] = c"),
    Mutant("red-cursor-not-advanced", ROUTER,
           "lp_st[rng.PURPOSE_RED] = cursor + 1", "lp_st[rng.PURPOSE_RED] = cursor"),
    Mutant("generate-emission-keeps-seq", ROUTER,
           "        st[SEQ] = seq + 1\n        fx.emitted.append(events.Event(nxt, lp.node, "
           "events.GENERATE,",
           "        fx.emitted.append(events.Event(nxt, lp.node, events.GENERATE,"),
    Mutant("refill-emission-keeps-seq", ROUTER,
           "        st[SEQ] = seq + 1\n        fx.emitted.append(events.Event(nxt, lp.node, "
           "events.REFILL,",
           "        fx.emitted.append(events.Event(nxt, lp.node, events.REFILL,"),
    Mutant("bucket-refill-uncapped", QOS,
           "            st[i] = tokens if tokens < cap else cap\n            st[i + 1] = now_ns",
           "            st[i] = tokens\n            st[i + 1] = now_ns"),
    Mutant("periodic-refill-uncapped", QOS,
           "        st[i] = tokens if tokens < cap else cap\n\n    def take",
           "        st[i] = tokens\n\n    def take"),
    Mutant("srtcm-excess-uncapped", QOS,
           "st[i + 1] = te if te < cap else cap", "st[i + 1] = te"),
    Mutant("cbs-scaled-from-ebs", QOS,
           "self.cbs_scaled = params.cbs_bytes * TOKEN_SCALE",
           "self.cbs_scaled = params.ebs_bytes * TOKEN_SCALE"),
    Mutant("identity-unsorted-keys", SCENARIO,
           "json.dumps(ident, sort_keys=True", "json.dumps(ident, sort_keys=False"),
    Mutant("events-counted-only-with-a-save", ROUTER,
           "        fx.saved = lp.clone(port)\n    lp.st[EVENTS] += 1",
           "        fx.saved = lp.clone(port)\n        lp.st[EVENTS] += 1"),
    Mutant("events-at-the-red-cursor", ROUTER,
           "EVENTS = 1 + max(rng.PURPOSE_RED, rng.PURPOSE_DS, rng.PURPOSE_GEN)",
           "EVENTS = rng.PURPOSE_RED"),
    Mutant("events-at-the-gen-cursor", ROUTER,
           "EVENTS = 1 + max(rng.PURPOSE_RED, rng.PURPOSE_DS, rng.PURPOSE_GEN)",
           "EVENTS = rng.PURPOSE_GEN"),
    Mutant("events-counted-before-the-save", ROUTER,
           "        fx.saved = lp.clone(port)\n    lp.st[EVENTS] += 1\n",
           "        lp.st[EVENTS] += 1\n        fx.saved = lp.clone(port)\n"),
    Mutant("audit-read-one-offset-low", KERNEL,
           "pipe.st[ARRIVE_COUNT:REDUNDANT_SENDS + 1]",
           "pipe.st[ARRIVE_COUNT - 1:REDUNDANT_SENDS]"),
    Mutant("arrive-blocked-without-retry", ROUTER,
           "    st[SEND_FLAG] = True\n    _blocked(lp, pipe, size, now, fx, ctx)\n",
           "    st[SEND_FLAG] = True\n"),
    Mutant("stall-drops-the-head", KERNEL,
           "if stall and rnd.random() < STALL:\n                    break",
           "if stall and rnd.random() < STALL:\n                    box.popleft()\n"
           "                    break"),
    Mutant("shuffle-without-seed", KERNEL, "rnd.shuffle(order)", "random.shuffle(order)"),
]


def apply(mutant: Mutant, root: str) -> None:
    """Edit ``mutant.path`` under ``root``; raises ValueError unless the old
    string occurs exactly once."""
    path = os.path.join(root, mutant.path)
    with open(path) as fh:
        text = fh.read()
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.name}: old string occurs {found} times in {mutant.path}")
    with open(path, "w") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def first_failure(output: str) -> str:
    """The first failing test's id in pytest's short summary, else the
    output's last line (in verbose output, the test that was running)."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    lines = output.strip().splitlines()
    return lines[-1].strip() if lines else "(no output)"


def run(mutant: Mutant) -> tuple[str, str]:
    """(verdict, detail) of one mutant: killed with the first failing
    test, timeout with the running test, survived with pytest's summary
    line, or error."""
    with tempfile.TemporaryDirectory(prefix="dsnetsim-mutant-") as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        try:
            apply(mutant, tree)
        except ValueError as e:
            return "error", str(e)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)  # the copy's pyproject puts its src first
        log = os.path.join(tmp, "pytest.log")
        with open(log, "w") as fh:
            try:
                code = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-v", "-rfE",
                     "-p", "no:cacheprovider", *TESTS],
                    cwd=tree, env=env, stdout=fh, stderr=subprocess.STDOUT,
                    timeout=TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = None
        with open(log) as fh:
            output = fh.read()
    if code is None:
        return "timeout", first_failure(output)
    if code == 0:
        return "survived", first_failure(output)
    if code == 1:
        return "killed", first_failure(output)
    return "error", first_failure(output)


def _terminated(signum, _frame):
    sys.exit(128 + signum)


def main(argv: list[str]) -> int:
    # unwinds run(): subprocess.run kills pytest, and the temporary
    # directory removes itself
    signal.signal(signal.SIGTERM, _terminated)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}; known: {', '.join(by_name)}",
              file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in argv] if argv else MUTANTS
    bad = 0
    for mutant in chosen:
        t0 = time.perf_counter()
        verdict, detail = run(mutant)
        bad += verdict not in ("killed", "timeout")
        print(f"{mutant.name:32s} {verdict:8s} {time.perf_counter() - t0:6.1f} s  {detail}",
              flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
