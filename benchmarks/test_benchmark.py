"""Tests of the benchmark's own logic: tail rule, self times, seeded jobs, tracer.

Run with ``python3 -m pytest benchmarks`` from the root of the repository.
"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_tail_is_the_value_with_ten_jobs_beyond_it():
    value, pct, count = run.tail_latency([float(x) for x in range(20, 0, -1)])
    assert (value, pct, count) == (10.0, 50.0, 20)
    value, pct, count = run.tail_latency(list(range(1000)))
    assert value == 989 and pct == pytest.approx(99.0) and count == 1000
    assert sum(1 for x in range(1000) if x > value) == 10


def test_tail_needs_more_than_ten_jobs():
    assert run.tail_latency(list(range(11)))[0] == 0
    with pytest.raises(ValueError):
        run.tail_latency(list(range(10)))


def test_timings_divide_each_round_by_its_reference_time():
    jobs = [{"id": "a", "command": "classify", "points": 4},
            {"id": "b", "command": "classify", "points": 6}]
    rounds = [{"lat": [1.0, 3.0], "ref": 2.0}] * 3 + [{"lat": [2.0, 6.0], "ref": 4.0}] * 3
    ref = run.timings("implicit_fields", jobs, {}, rounds)
    assert ref["wall"] == 2.0 and ref["work_per"] == 5.0
    assert ref["job_p50"] == 1.0 and ref["tail_n"] == 12
    raw = run.timings("implicit_fields", jobs, {}, rounds, scale=False)
    assert raw["wall"] == 6.0


def _span(sid, parent, start, end, name="x.f"):
    return [sid, parent, "job", name, start, end, False, None]


def test_self_time_subtracts_merged_children_only():
    spans = [
        _span(0, -1, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 5.0),    # overlaps span 1: covered once
        _span(3, 0, 8.0, 12.0),   # clipped to the parent's end
        _span(4, 1, 1.5, 2.5),    # grandchild: not subtracted from span 0
    ]
    selfs = tracer.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_eval_q_calls_per_step_counts_calls_under_full_muscl_runs():
    evolve = _span(1, 0, 0.0, 1.0, "simulate.evolve_full")
    evolve[tracer.ATTRS] = {"n": 64, "steps": 2, "scheme": "muscl_minmod"}
    spans = [_span(0, -1, 0.0, 2.0, "cli.main"), evolve]
    spans += [_span(2 + k, 1, 0.1 * k, 0.1 * k + 0.05, "constitutive.eval_Q") for k in range(14)]
    spans.append(_span(16, 0, 1.5, 1.6, "constitutive.eval_Q"))  # outside the run
    m = tracer.layer_metrics(spans, {}, points=0)
    assert m["constitutive.eval_Q_calls"] == 15
    assert m["constitutive.eval_Q_calls_per_step"] == 7.0
    assert m["simulate.cell_updates"] == 128


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_job_generation_is_seeded(name, tmp_path):
    first = workloads.generate(name, 7)
    assert json.dumps(first) == json.dumps(workloads.generate(name, 7))
    assert json.dumps(first) != json.dumps(workloads.generate(name, 8))
    assert len({job["id"] for job in first}) == len(first)
    assert all(job["expect"] in (0, 2, 3) and job["config"]["command"] == job["command"]
               for job in first)
    a = run.write_configs(first, tmp_path / "a")
    b = run.write_configs(workloads.generate(name, 7), tmp_path / "b")
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]


def test_oracle_tolerances_stay_well_below_the_amplitude():
    shares = [*checks.ORACLE_TOL.values(), *checks.CONVERGENCE_TOL.values()]
    assert max(shares) <= checks.MAX_TOL_SHARE
    for name in ("evolve_coarse", "evolve_fine"):
        for seed in range(5):
            for job in workloads.generate(name, seed):
                cfg = job["config"]
                if job["check"] == "oracle":
                    assert (cfg["system"], cfg["run"]["scheme"], cfg["grid"]["n"]) in checks.ORACLE_TOL
                elif job["check"] == "convergence":
                    assert cfg["system"] in checks.CONVERGENCE_TOL


def test_oracle_check_rejects_an_all_zero_state(tmp_path):
    jobs = [j for j in workloads.generate("evolve_coarse", 0) if j["check"] == "oracle"]
    assert {j["config"]["system"] for j in jobs} == {"full", "asymptotic", "scalar"}
    for job in jobs:
        cfg = job["config"]
        n = cfg["grid"]["n"]
        n_fields = {"full": 4, "asymptotic": 2, "scalar": 1}[cfg["system"]]
        centers = (run.np.arange(n) + 0.5) * workloads.TWO_PI / n
        rows = [[cfg["run"]["end"], x] + [0.0] * n_fields for x in centers]
        out = tmp_path / job["id"]
        out.mkdir()
        run.np.savetxt(out / "snapshots.csv", rows, delimiter=",", header="h", comments="")
        ok, detail, err = checks.CHECKS["oracle"](job, out)
        assert not ok and err > 0.9 * checks.wave_amplitude(cfg), (job["id"], detail)


def test_tracer_wraps_names_imported_by_name_and_restores_them():
    import shearwaves.cli as cli
    import shearwaves.exact as exact
    import shearwaves.simulate as simulate

    originals = (cli.evolve_full, simulate.evolve_full, exact.solve_level_set)
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.evolve_full is not originals[0]
        assert cli.evolve_full is simulate.evolve_full
        assert exact.solve_level_set is not originals[2]
    finally:
        t.uninstall()
    assert (cli.evolve_full, simulate.evolve_full, exact.solve_level_set) == originals


def test_traced_full_muscl_job_makes_seven_eval_q_calls_per_step(tmp_path):
    import shearwaves.cli as cli

    cfg = {"command": "simulate", "system": "full",
           "modulus": {"kind": "cubic", "mu0": 1.0, "mu1": 0.5},
           "grid": {"n": 32, "a": 0.0, "b": workloads.TWO_PI},
           "run": {"end": 0.1, "scheme": "muscl_minmod"},
           "init": {"kind": "carroll", "amplitude": 1.0, "wavenumber": 1.0}}
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    t = tracer.Tracer()
    t.install()
    try:
        code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o"),
                         "--quiet"])
    finally:
        t.uninstall()
    assert code == 0
    m = tracer.layer_metrics(t.spans, t.counts, points=0)
    assert m["simulate.steps"] > 0
    assert m["constitutive.eval_Q_calls_per_step"] == 7.0
    assert m["cli.csv_rows"] == 2 * 32
