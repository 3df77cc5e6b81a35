import inspect
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cscflag import (SchemaError, build_flag, cli, invariants, momentum, poly,
                     rootsys)
from cscflag.cli import (EXIT_CONFIG, EXIT_OK, EXIT_ORACLE, EXIT_WEIGHT_DOMAIN,
                         _weight_basis, emit, main, parse_config, run)

F = Fraction


def o1_job(**extra):
    job = {"lie_type": "A1", "pi_prime": [], "lambda": [-1], "kappa": [1],
           "scalar_curvature": 0}
    job.update(extra)
    return job


def a2_job(**extra):
    job = {"lie_type": "A2", "pi_prime": [], "lambda": [-1, -1],
           "kappa": [1, 1], "scalar_curvature": 0}
    job.update(extra)
    return job


def job_of(payload):
    return parse_config(json.dumps(payload))[0][0]


class TestParseConfig:
    def test_single(self):
        jobs, is_batch = parse_config(json.dumps(o1_job()))
        assert not is_batch and len(jobs) == 1
        spec = jobs[0]
        assert spec.lie_type == "A1" and spec.lam == (-1,)
        assert spec.kappa == (F(1),)
        assert spec.options.sample_count == 16

    def test_batch(self):
        jobs, is_batch = parse_config(json.dumps([o1_job(), a2_job()]))
        assert is_batch and len(jobs) == 2

    def test_rational_strings(self):
        jobs, _ = parse_config(json.dumps(
            o1_job(kappa=["3/2"], scalar_curvature="-1/4")))
        assert jobs[0].kappa == (F(3, 2),)
        assert jobs[0].scalar_curvature == F(-1, 4)

    def test_options(self):
        jobs, _ = parse_config(json.dumps(o1_job(options={
            "tolerance": "1/1000000", "sample_count": 4, "tau_max": 3,
            "tau0": "1/2", "find_smooth_c": ["1/2", 4],
            "emit_samples": True, "oracle_step": "1/100"})))
        o = jobs[0].options
        assert o.tolerance == F(1, 10 ** 6)
        assert o.find_smooth_c == (F(1, 2), F(4))
        assert o.emit_samples and o.tau0 == F(1, 2)

    @pytest.mark.parametrize("mutate,path_part", [
        (lambda j: j.update(lie_type="H2"), "lie_type"),
        (lambda j: j.update(lie_type=7), "lie_type"),
        (lambda j: j.update(pi_prime=[5]), "pi_prime"),
        (lambda j: j.pop("kappa"), "$"),
        (lambda j: j.update(bogus=1), "$"),
        (lambda j: j.update(kappa=[1, 1]), "kappa"),
        (lambda j: j.update(kappa=["1/0"]), "kappa"),
        (lambda j: j.update(options={"unknown": 1}), "unknown"),
        (lambda j: j.update(schema_version=99), "schema_version"),
        (lambda j: j.update(options={"tolerance": "0"}), "options.tolerance"),
        (lambda j: j.update(options={"tolerance": "-1"}), "options.tolerance"),
        (lambda j: j.update(scalar_curvature=float("nan")), "scalar_curvature"),
        (lambda j: j.update(kappa=[float("inf")]), "kappa[0]"),
    ])
    def test_schema_errors(self, mutate, path_part):
        job = o1_job()
        mutate(job)
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(job))
        assert path_part in str(err.value)

    @pytest.mark.parametrize("version", [1, 2])
    def test_job_schema_versions(self, version):
        # jobs are the same in v1 and v2; only the report changed
        jobs, _ = parse_config(json.dumps(o1_job(schema_version=version)))
        assert jobs[0].lie_type == "A1"

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            parse_config("{not json")

    def test_batch_error_path(self):
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps([o1_job(), {"lie_type": "A1"}]))
        assert "$[1]" in str(err.value)

    def test_echo_roundtrip(self):
        report = run(job_of(a2_job()))
        jobs, _ = parse_config(json.dumps(report["job"]))
        assert jobs[0] == job_of(a2_job())


class TestRun:
    def test_o1_report(self):
        report = run(job_of(o1_job()))
        assert report["schema_version"] == 2
        assert report["flag"]["n"] == 2 and report["flag"]["dim_X"] == 1
        assert report["profile"]["qtilde"] == ["1", "1"]
        assert report["profile"]["p"] == ["2"]
        assert report["profile"]["phi_numerator"] == ["0", "1", "1"]
        assert report["metric_index"] == "1"
        assert report["behavior"]["theorem_case"] == "scalar_flat"
        assert report["interval"]["finite"] is False
        assert report["asymptotics"]["case"] == "conical"
        assert report["asymptotics"]["laurent"] == [[1, "1"]]
        assert report["bundle"]["classification"] == "negative"
        assert report["invariant_fields"]["case"] == "B"
        assert report["invariant_fields"]["l"] == "1/2"
        assert report["oracle"]["max_abs_deviation"] < 1e-9
        assert report["timing"] is None

    def test_a2_report(self):
        report = run(job_of(a2_job()))
        assert report["profile"]["phi_numerator"] == ["0", "2", "6", "4", "1"]
        assert report["metric_index"] == "1/2"
        assert report["flag"]["delta"]["root"] == ["2", "2"]
        assert report["bundle"]["ke_coeffs"] == ["2", "2", "4"]

    def test_positive_c_report(self):
        spec = job_of(o1_job(scalar_curvature=2))
        report = run(spec)
        assert report["behavior"]["theorem_case"] == "positive_csc"
        assert report["interval"]["finite"] is True
        assert report["asymptotics"]["case"] == "cone_angle"
        lo = F(report["interval"]["lo"])
        hi = F(report["interval"]["hi"])
        assert hi - lo <= F(1, 10 ** 12)

    def test_samples(self):
        spec = job_of(o1_job(options={
            "emit_samples": True, "sample_count": 4, "tau_max": 4}))
        report = run(spec)
        rows = report["samples"]
        assert [r["tau"] for r in rows] == [1.0, 2.0, 3.0, 4.0]
        assert rows[0]["t"] == 0.0 and rows[0]["s"] == 0.0
        assert rows[0]["phi"] == pytest.approx(1.0, abs=1e-12)

    def test_smooth_search_in_report(self):
        spec = job_of(o1_job(options={
            "find_smooth_c": ["1/2", 4], "sample_count": 4}))
        report = run(spec)
        assert report["smooth_c_search"]["c_star"] is None
        assert len(report["smooth_c_search"]["samples"]) == 5

    def test_timing_flag(self):
        spec = job_of(o1_job())
        assert run(spec, with_timing=True)["timing"] > 0


@pytest.mark.parametrize("lie_type", ["A1", "B3", "C4", "D5", "G2", "F4",
                                      "E8", "A2xA1"])
def test_weight_basis_matches_convert(lie_type):
    rs = rootsys.build_root_system(rootsys.parse_lie_type(lie_type))
    delta = build_flag(rs, []).delta.coords
    for root in [*rs.positive_roots, tuple(int(c) for c in delta)]:
        want = rootsys.convert(rs, rootsys.WeightVector.roots(root),
                               rootsys.Basis.FUNDAMENTAL_WEIGHT)
        assert _weight_basis(rs, root) == [str(F(c)) for c in want.coords]


class TestEmit:
    def test_json_deterministic(self):
        report = run(job_of(a2_job()))
        again = run(job_of(a2_job()))
        assert emit(report) == emit(again)
        assert emit(report).endswith(b"\n")
        assert json.loads(emit(report)) == json.loads(emit(again))

    def test_float_17g(self):
        data = emit({"x": 0.1})
        assert data == b'{"x":0.10000000000000001}\n'

    def test_csv(self):
        spec = job_of(o1_job(options={
            "emit_samples": True, "sample_count": 4, "tau_max": 4}))
        data = emit(run(spec), "csv").decode()
        lines = data.strip().split("\n")
        assert lines[0] == "tau,phi,t,s,f,r"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == 1.0 and float(first[2]) == 0.0

    def test_csv_requires_samples(self):
        report = run(job_of(o1_job()))
        with pytest.raises(ValueError):
            emit(report, "csv")

    def test_csv_rejects_batch(self):
        with pytest.raises(ValueError):
            emit([], "csv")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit({}, "yaml")


class TestMain:
    def write(self, tmp_path, payload, name="job.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_ok(self, tmp_path, capfd):
        assert main([self.write(tmp_path, o1_job())]) == EXIT_OK
        out = capfd.readouterr().out
        assert json.loads(out)["metric_index"] == "1"

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([self.write(tmp_path, o1_job()), "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["schema_version"] == 2

    def test_config_error(self, tmp_path, capsys):
        path = self.write(tmp_path, o1_job(lie_type="H2"))
        assert main([path]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/path.json"]) == EXIT_CONFIG

    def test_positive_weight_exit_3(self, tmp_path, capsys):
        job = a2_job(**{"lambda": [1, 1]})
        assert main([self.write(tmp_path, job)]) == EXIT_WEIGHT_DOMAIN
        assert "weight domain" in capsys.readouterr().err

    @pytest.mark.parametrize("lie_type,pi_prime,c", [
        ("A1xA1", [], -1), ("A1xA1", [], 0), ("A1xA1", [], 1), ("A3", [1], 0),
    ], ids=["A1xA1-neg", "A1xA1-zero", "A1xA1-pos", "A3-zero"])
    def test_semi_negative_weight_exit_3(self, tmp_path, capsys, lie_type,
                                         pi_prime, c):
        # (lambda, alpha) = 0 for some alpha in D+: the momentum
        # construction needs a strictly negative weight
        job = {"lie_type": lie_type, "pi_prime": pi_prime, "lambda": [-1, 0],
               "kappa": [1, 1], "scalar_curvature": c}
        assert main([self.write(tmp_path, job)]) == EXIT_WEIGHT_DOMAIN
        assert "strictly negative" in capsys.readouterr().err

    def test_zero_weight_exit_3(self, tmp_path, capsys):
        assert main([self.write(tmp_path, o1_job(**{"lambda": [0]}))]) \
            == EXIT_WEIGHT_DOMAIN

    def test_nonpositive_kappa_exit_2(self, tmp_path, capsys):
        assert main([self.write(tmp_path, o1_job(kappa=[0]))]) == EXIT_CONFIG

    def test_oracle_failure_exit_5(self, tmp_path, capsys):
        # one RK4 step of length 10 on a degree-4 forcing
        job = a2_job(lie_type="B2", options={"oracle_step": 10})
        assert main([self.write(tmp_path, job)]) == EXIT_ORACLE
        assert "oracle error: local error estimate" in capsys.readouterr().err

    @pytest.mark.parametrize("lie_type,pi_prime,lam,kappa,c", [
        ("B3", [], [-1, -1, -1], [1, 1, 1], 1),
        ("A4", [], [-1, -1, -1, -1], [1, 1, 1, 1], 1),
        ("F4", [], [-1, -1, -1, -1], [1, 1, 1, 1], 0),
        ("E6", [2, 3, 4, 5, 6], [-1], [1], 1),
        ("D4", [], [-4, -4, -4, -1], ["3/2", 3, "3/2", 2], 1),
    ])
    def test_rank_3_and_up_jobs_pass_the_oracle(self, tmp_path, lie_type,
                                                pi_prime, lam, kappa, c):
        job = {"lie_type": lie_type, "pi_prime": pi_prime, "lambda": lam,
               "kappa": kappa, "scalar_curvature": c}
        out = tmp_path / "report.json"
        assert main([self.write(tmp_path, job), "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["oracle"]["max_abs_deviation"] < 1e-9

    def test_wide_tolerance_encloses_b_away_from_0(self, tmp_path, capfd):
        # the bisection goes on past the width until lo > 0, so the oracle
        # and the fiber maps get a range inside (0, b)
        job = a2_job(scalar_curvature=1, options={"tolerance": "100"})
        out = tmp_path / "report.json"
        assert main([self.write(tmp_path, job), "--out", str(out)]) == EXIT_OK
        assert capfd.readouterr().err == ""
        interval = json.loads(out.read_text())["interval"]
        assert 0 < F(interval["lo"]) < F(interval["hi"])

    @pytest.mark.parametrize("c", [0, -1])
    def test_e8_full_flag(self, tmp_path, capfd, c):
        job = {"lie_type": "E8", "pi_prime": [], "lambda": [-1] * 8,
               "kappa": [1] * 8, "scalar_curvature": c}
        out = tmp_path / "report.json"
        assert main([self.write(tmp_path, job), "--out", str(out)]) == EXIT_OK
        assert capfd.readouterr().err == ""
        report = json.loads(out.read_text())
        assert report["flag"]["n"] == 121
        assert report["metric_index"] == "2/121"  # 2/(m+1), m = 120

    def test_phi_past_its_numerator_overflow(self, tmp_path, capfd):
        # on the E7 full flag at C = 0, Phi and Qtilde overflow near
        # tau = 1.5e4 while phi is about (1 + tau)/32 (metric index 2/64);
        # the samples reach 1e5
        job = {"lie_type": "E7", "pi_prime": [], "lambda": [-1] * 7,
               "kappa": [1] * 7, "scalar_curvature": 0,
               "options": {"tau_max": "100000", "emit_samples": True}}
        out = tmp_path / "report.json"
        assert main([self.write(tmp_path, job), "--out", str(out)]) == EXIT_OK
        assert capfd.readouterr().err == ""
        last = json.loads(out.read_text())["samples"][-1]
        assert last["tau"] == 1e5
        assert last["phi"] == pytest.approx((1 + 1e5) / 32, rel=1e-12)

    def test_oracle_step_cap_exit_2(self, tmp_path, capsys):
        job = o1_job(options={"oracle_step": "1/1000000000"})
        assert main([self.write(tmp_path, job)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        # raised while the job runs, printed like every other SchemaError
        assert err.startswith("config error: options.oracle_step: ")
        assert "10000000000 oracle steps" in err and "1000000" in err
        # the default range [0, 10] at step 1/100000 is just at the cap
        assert momentum.oracle_steps(10, F(1, 100000)) \
            == momentum.ORACLE_MAX_STEPS
        assert momentum.oracle_steps(10, F(1, 99999)) < momentum.ORACLE_MAX_STEPS

    @pytest.mark.parametrize("count,options", [
        (0, {"find_smooth_c": ["1/10", "2"]}),
        (-3, {"find_smooth_c": ["1/10", "2"]}),
        (1025, {"find_smooth_c": ["1/10", "2"]}),
        (1025, {"emit_samples": True}),
    ])
    def test_sample_count_bounds_exit_2(self, tmp_path, capfd, monkeypatch,
                                        count, options):
        # rejected at parse time: no job runs
        def no_work(*args):
            raise AssertionError("a job ran")
        monkeypatch.setattr(cli, "_run_jobs", no_work)
        job = a2_job(scalar_curvature=1,
                     options={**options, "sample_count": count})
        assert main([self.write(tmp_path, job)]) == EXIT_CONFIG
        out, err = capfd.readouterr()
        assert out == ""
        assert err.startswith("config error: $.options.sample_count: ")

    def test_coefficient_beyond_binary64_exit_5(self, tmp_path, capfd):
        # with kappa = 60 * (sum of the omega_i), Qtilde has coefficients
        # beyond binary64
        job = {"lie_type": "E8", "pi_prime": [], "lambda": [-1] * 8,
               "kappa": [60] * 8, "scalar_curvature": 0}
        assert main([self.write(tmp_path, job)]) == EXIT_ORACLE
        out, err = capfd.readouterr()
        assert out == ""
        assert err == ("oracle error: a coefficient of Qtilde is beyond "
                       "binary64, so the oracle cannot evaluate it\n")

    def test_schema_error_survives_a_batch_worker(self):
        # errors raised in a --jobs N worker are pickled to the parent
        exc = pickle.loads(pickle.dumps(SchemaError("options.x", "too big")))
        assert (exc.path, str(exc)) == ("options.x", "options.x: too big")

    def test_import_loads_no_scipy(self):
        # numpy is the only runtime dependency
        code = "import sys, cscflag.cli; print('scipy' in sys.modules)"
        src = str(Path(inspect.getfile(momentum)).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"

    def test_batch_output_is_array(self, tmp_path, capfd):
        path = self.write(tmp_path, [o1_job(), a2_job()])
        assert main([path]) == EXIT_OK
        docs = json.loads(capfd.readouterr().out)
        assert isinstance(docs, list) and len(docs) == 2

    def test_positive_c_job_computes_each_object_once(self, tmp_path,
                                                      monkeypatch):
        # C > 0 with samples and no smooth completion: every stage that
        # needs the certified interval runs, and no gcd root count adds a
        # Sturm chain of its own; the weight pairings are dot products,
        # not one inner_product per root
        counted = (momentum.momentum_interval, poly.sturm_sequence,
                   invariants.classify_invariant_fields,
                   rootsys.build_root_system, rootsys.inner_product)
        calls = {fn: 0 for fn in counted}

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls[fn] += 1
                return fn(*args, **kwargs)
            return wrapper

        wrappers = {fn: counting(fn) for fn in counted}
        for name, module in list(sys.modules.items()):
            if name == "cscflag" or name.startswith("cscflag."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        monkeypatch.setattr(module, attr, wrappers[value])
        job = a2_job(scalar_curvature="1/2", options={"emit_samples": True})
        out = tmp_path / "report.json"
        assert main([self.write(tmp_path, job), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["behavior"]["smooth_completion"] is False
        assert len(report["samples"]) == 16
        assert {fn.__name__: n for fn, n in calls.items()} == {
            "momentum_interval": 1, "sturm_sequence": 1,
            "classify_invariant_fields": 1, "build_root_system": 1,
            "inner_product": 0}
