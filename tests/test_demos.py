"""Every demo script imports: a library name a demo still uses but the
package no longer has fails here. The demos guard main(), so importing runs
nothing; the fast demos also run, which catches a call that passes a keyword
the library no longer takes."""

import importlib.util
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))
# 02_lazy_vs_baseline (about 6 s) and 06_paper_scale_setup (about 7 s) are
# not run whole; each other demo runs in about a second or less
FAST_DEMOS = [p for p in DEMOS
              if p.stem not in ("02_lazy_vs_baseline", "06_paper_scale_setup")]


def _load(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports(path):
    assert callable(_load(path).main)


@pytest.mark.parametrize("path", FAST_DEMOS, ids=[p.stem for p in FAST_DEMOS])
def test_fast_demo_runs(path, tmp_path, monkeypatch, capsys):
    # 04_partition_strategies writes its best plan into the working directory
    monkeypatch.chdir(tmp_path)
    _load(path).main()
    assert capsys.readouterr().out.strip()


def test_paper_scale_setup_measures_a_small_size(capsys):
    # one size of 06_paper_scale_setup, in this process: its set-up path
    # (topology, route rows, model build, a k=4 plan) on each routing
    # metric, and one sequential run
    _load(next(p for p in DEMOS if p.stem == "06_paper_scale_setup")).measure(100)
    latency, hop, run = capsys.readouterr().out.splitlines()
    assert hop.startswith("   100 nodes,     hop:")
    assert latency.startswith("   100 nodes, latency:")
    for line in (hop, latency):
        assert "route pairs of 9,900" in line
        assert "plan k=4" in line and "build + plan" in line
    assert run.startswith("   100 nodes: peak RSS") and "events/s" in run
