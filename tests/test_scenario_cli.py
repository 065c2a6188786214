import csv
import dataclasses
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import synclab
from synclab import invariants, scenario, suites
from synclab.cli import main
from synclab.errors import ScenarioError, SynclabError
from synclab.integrate import IntegratorSettings, Trajectory, default_settings, integrate
from synclab.scenario import (
    _state_columns,
    content_hash,
    decode_complex,
    encode_complex,
    run_scenario,
    trajectory_csv,
    validate_scenario,
)
from synclab.state import (
    Flavor,
    make_phase_config,
    make_sphere_config,
    make_unitary_config,
    random_phase_config,
    random_sphere_config,
    random_unitary,
    random_unitary_config,
)


def _kuramoto_doc(sid="t", **kw):
    doc = {
        "id": sid,
        "seed": 77,
        "t_final": 1.0,
        "model": {"kind": "kuramoto", "kappa": 2.0, "alpha": 0.0,
                  "flavor": "cosine", "initial": {"random": {"n": 5}}},
        "integrator": {"dt": 0.001, "record_every": 10},
        "observables": [{"name": "kuramoto_I", "tolerance": 1e-6}],
    }
    doc.update(kw)
    return doc


def test_complex_codec_roundtrip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_array_equal(decode_complex(encode_complex(m)), m)


def _fresh_python(args):
    """Run ``python args`` in a new interpreter that imports this synclab."""
    src = str(Path(synclab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


_LAZY_SCHEMA = """
import json, sys
import numpy as np
import synclab.cli
from synclab.errors import ScenarioError
from synclab.integrate import IntegratorSettings, Projection, integrate_batch
from synclab.scenario import validate_scenario
from synclab.state import random_sphere_config
from synclab.suites import run_suite

seen = {"import": "jsonschema" in sys.modules}
seen["suite"] = all(r.passed for r in run_suite("equilibria", sys.argv[1]))
rng = np.random.default_rng(5)
settings = IntegratorSettings(dt=0.01, projection=Projection.NORMALIZE)
runs = [(random_sphere_config(rng, 4, 2), settings, 0.1, None) for _ in range(2)]
seen["batch"] = [bool(np.isfinite(states).all()) for _, states, _ in integrate_batch(runs)]
seen["library"] = "jsonschema" in sys.modules
try:
    validate_scenario({"id": 1})
except ScenarioError as exc:
    seen["error"] = str(exc)
seen["validated"] = "jsonschema" in sys.modules
print(json.dumps(seen))
"""


def test_jsonschema_loads_on_a_process_first_validation(tmp_path):
    # importing the command line, a library pack and a batch integration
    # validate no document, so they never import jsonschema; the first
    # validation imports it and reports what an eager validator reported
    run = _fresh_python(["-c", _LAZY_SCHEMA, str(tmp_path / "out")])
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {
        "import": False, "suite": True, "batch": [True, True], "library": False,
        "error": "$: 'model' is a required property", "validated": True}


def test_schema_rejects_bad_scenarios():
    with pytest.raises(ScenarioError) as exc:
        validate_scenario({"id": "x"})
    assert "$" in str(exc.value)
    with pytest.raises(ScenarioError) as exc:
        validate_scenario(_kuramoto_doc(t_final=-1.0))
    assert "t_final" in str(exc.value)
    doc = _kuramoto_doc()
    doc["integrator"]["dt"] = 0
    with pytest.raises(ScenarioError) as exc:
        validate_scenario(doc)
    assert "$.integrator.dt" in str(exc.value)


def test_zero_horizon_single_row(tmp_path):
    res = run_scenario(_kuramoto_doc("zero", t_final=0.0, observables=[]),
                       tmp_path, quiet=True)
    assert res.exit_code == 0
    rows = (tmp_path / "zero_trajectory.csv").read_text().strip().splitlines()
    assert len(rows) == 2  # header + t=0
    assert rows[0].startswith("t,theta_0")


def test_checks_at_zero_horizon_are_a_scenario_error(tmp_path):
    # one record has no drift: the requested verdict must not vanish into an
    # empty drift report and exit 0
    doc = _kuramoto_doc("zero-checks", t_final=0)
    doc["model"]["initial"] = {"random": {"n": 6}}
    res = run_scenario(doc, tmp_path, quiet=True)
    assert res.exit_code == 1
    assert res.error.startswith("$.t_final: the kuramoto_I check")
    assert not (tmp_path / "zero-checks_drift.json").exists()
    # observables without a verdict are still recorded at the one record
    doc["observables"] = [{"name": "order_R"}]
    assert run_scenario(doc, tmp_path, quiet=True).exit_code == 0
    assert json.loads((tmp_path / "zero-checks_drift.json").read_text()) == []


def test_successful_run_writes_all_artifacts(tmp_path):
    res = run_scenario(_kuramoto_doc("good"), tmp_path, quiet=True)
    assert res.exit_code == 0
    for suffix in ("trajectory.csv", "observables.csv", "drift.json",
                   "manifest.json"):
        assert (tmp_path / f"good_{suffix}").exists()
    manifest = json.loads((tmp_path / "good_manifest.json").read_text())
    assert manifest["prng"] == {"name": "numpy-pcg64", "seed": 77}
    assert len(manifest["content_hash"]) == 64
    drift = json.loads((tmp_path / "good_drift.json").read_text())
    assert drift[0]["verdict"] == "pass"


def test_coarse_step_fails_drift_verdict(tmp_path):
    doc = _kuramoto_doc("coarse", integrator={"dt": 0.5, "record_every": 1},
                        t_final=5.0)
    doc["model"]["kappa"] = 16.0
    res = run_scenario(doc, tmp_path, quiet=True)
    assert res.exit_code == 2
    assert res.failed_checks == ["kuramoto_I"]


def test_runs_are_byte_reproducible(tmp_path):
    doc = _kuramoto_doc("repro")
    run_scenario(doc, tmp_path / "a", quiet=True)
    run_scenario(doc, tmp_path / "b", quiet=True)
    for name in ("repro_trajectory.csv", "repro_observables.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_content_hash_tracks_semantics():
    doc = _kuramoto_doc("h")
    assert content_hash(doc) == content_hash(json.loads(json.dumps(doc)))
    other = _kuramoto_doc("h", seed=78)
    assert content_hash(doc) != content_hash(other)


def test_seed_override_changes_initial_data(tmp_path):
    doc = _kuramoto_doc("s")
    run_scenario(doc, tmp_path / "a", quiet=True)
    run_scenario(doc, tmp_path / "b", seed_override=123, quiet=True)
    a = (tmp_path / "a" / "s_trajectory.csv").read_text().splitlines()[1]
    b = (tmp_path / "b" / "s_trajectory.csv").read_text().splitlines()[1]
    assert a != b


# The string writers run_scenario used before it streamed its tables to the
# files, kept verbatim as the oracle for the bytes of every table artifact.


def _text_trajectory_csv(traj):
    flat = np.ascontiguousarray(traj.states).reshape(len(traj), -1)
    if np.iscomplexobj(flat):
        flat = flat.view(flat.real.dtype)
    lines = [",".join(["t"] + _state_columns(traj.config))]
    for t, row in zip(traj.times.tolist(), flat):
        lines.append(",".join([format(t, ".17g")]
                              + [format(v, ".17g") for v in row.tolist()]))
    return "\r\n".join(lines) + "\r\n"


def _text_observables_csv(traj, series):
    cols = []
    for label, values in series.items():
        if values.ndim == 1 and not np.iscomplexobj(values):
            cols.append((label, values))
        else:
            vals = np.atleast_2d(values.T).T
            for k in range(vals.shape[1]):
                cols.append((f"{label}_ev{k}_re", vals[:, k].real))
                cols.append((f"{label}_ev{k}_im", vals[:, k].imag))
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["t"] + [c[0] for c in cols])
    for i, t in enumerate(traj.times):
        w.writerow([f"{t:.17g}"] + [f"{c[1][i]:.17g}" for c in cols])
    return buf.getvalue()


def _text_dat_mirror(csv_text):
    lines = csv_text.splitlines()
    out = ["# " + " ".join(lines[0].split(","))]
    for line in lines[1:]:
        out.append(" ".join(line.split(",")))
    return "\n".join(out) + "\n"


def _run_against_oracle(doc, out_dir, monkeypatch, traj=None):
    """Run ``doc`` and compare each table artifact with the oracle's text as
    ``Path.write_text`` writes it.  ``traj``, if given, replaces the
    integration's result (keeping the config ``run_scenario`` built)."""
    seen = []

    def integrate_and_keep(cfg, settings, t_final):
        out = integrate(cfg, settings, t_final) if traj is None else \
            Trajectory(traj.times, traj.states, cfg)
        seen.append(out)
        return out

    monkeypatch.setattr(scenario, "integrate", integrate_and_keep)
    res = run_scenario(doc, out_dir, quiet=True)
    (ran,) = seen
    series = {ob.label: ob.series(ran)
              for ob, _ in scenario._build_observables(doc, ran.config)}
    obs = _text_observables_csv(ran, series)
    expected = {"trajectory.csv": _text_trajectory_csv(ran), "observables.csv": obs}
    if doc.get("output", {}).get("dat_mirror"):
        expected["observables.dat"] = _text_dat_mirror(obs)
    oracle = out_dir / "oracle"
    oracle.mkdir()
    for suffix, text in expected.items():
        (oracle / suffix).write_text(text)
        assert (out_dir / f"{doc['id']}_{suffix}").read_bytes() == \
            (oracle / suffix).read_bytes(), suffix
    return res


def test_dat_mirror(tmp_path, monkeypatch):
    doc = _kuramoto_doc("m", output={"dat_mirror": True})
    assert _run_against_oracle(doc, tmp_path, monkeypatch).exit_code == 0
    dat = (tmp_path / "m_observables.dat").read_text()
    assert dat.startswith("# t kuramoto_I")
    assert "," not in dat


def test_special_values_stream_byte_identical(tmp_path, monkeypatch):
    special = np.array([[[-0.0, 5e-324, 1e308], [np.nan, np.inf, -np.inf],
                         [1 / 3, -2.5e-17, 123456789.0]]])
    doc = {"id": "spec", "t_final": 0.0,
           "model": {"kind": "sphere", "initial": {"x": np.eye(3).tolist()}},
           # one record carries no verdict, so both observables are records
           "observables": [{"name": "sphere_rho"},
                           {"name": "pair_inner", "indices": [0, 1], "check": "record"}],
           "output": {"dat_mirror": True}}
    traj = Trajectory(np.array([-0.0]), special, None)
    assert _run_against_oracle(doc, tmp_path, monkeypatch, traj).exit_code == 0
    rows = (tmp_path / "spec_trajectory.csv").read_text().splitlines()
    assert rows[1] == "-0,-0,4.9406564584124654e-324,1e+308,nan,inf,-inf," \
        "0.33333333333333331,-2.4999999999999999e-17,123456789"


def test_run_scenario_streams_its_tables(tmp_path, monkeypatch):
    # the N=200 large-n document: the trajectory text is about five times
    # the size of the states, so holding it whole would exceed the bound;
    # on one CPU its table is written in this process, where it is traced
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    w = np.random.default_rng(1000).standard_normal((3, 3))
    doc = {"id": "big", "seed": 1000, "t_final": 2.0,
           "model": {"kind": "sphere", "kappa": 1.0, "a": 0.0, "w": (w - w.T).tolist(),
                     "initial": {"random": {"n": 200, "d": 2}}},
           "integrator": {"dt": 1e-3, "record_every": 10},
           "observables": [{"name": "pair_distance_product", "tolerance": 1e-6},
                           {"name": "sphere_H", "indices": [0, 50, 100, 150],
                            "tolerance": 1e-6},
                           {"name": "sphere_rho"}],
           "output": {"dat_mirror": True}}
    states = 201 * 200 * 3 * 8  # bytes of the recorded states: 201 records
    tracemalloc.start()
    try:
        res = run_scenario(doc, tmp_path, quiet=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 0
    assert len((tmp_path / "big_trajectory.csv").read_text().splitlines()) == 1 + 201
    assert peak < 3 * states, f"traced peak {peak} B for {states} B of states"


def test_sphere_and_matrix_scenarios(tmp_path, monkeypatch):
    sphere = {
        "id": "sph", "seed": 3, "t_final": 1.0,
        "model": {"kind": "sphere", "kappa": 1.0,
                  "initial": {"random": {"n": 4, "d": 2}}},
        "integrator": {"dt": 0.002, "record_every": 10},
        "observables": [{"name": "sphere_DM", "tolerance": 1e-9},
                        {"name": "sphere_rho_sq", "tolerance": 1e-9}],
        "output": {"dat_mirror": True},
    }
    assert _run_against_oracle(sphere, tmp_path / "s", monkeypatch).exit_code == 0
    matrix = {
        "id": "mat", "seed": 4, "t_final": 1.0,
        "model": {"kind": "matrix", "kappa": 1.0,
                  "initial": {"random": {"n": 4, "d": 2}}},
        "integrator": {"dt": 0.002, "record_every": 10},
        "observables": [
            {"name": "matrix_cross_ratio", "indices": [0, 1, 2, 3],
             "tolerance": 1e-5},
            {"name": "matrix_D"}],
        "output": {"dat_mirror": True},
    }
    assert _run_against_oracle(matrix, tmp_path / "m", monkeypatch).exit_code == 0
    obs = (tmp_path / "m" / "mat_observables.csv").read_text().splitlines()[0]
    assert "matrix_cross_ratio_0_1_2_3_ev0_re" in obs


def test_explicit_initial_matrices(tmp_path):
    u = [np.eye(2), np.diag([1j, -1j])]
    doc = {
        "id": "expl", "t_final": 0.5,
        "model": {"kind": "matrix", "kappa": 1.0,
                  "v": encode_complex(np.eye(2)),
                  "initial": {"u": [encode_complex(m) for m in u]}},
        "integrator": {"dt": 0.001, "record_every": 50},
        "observables": [{"name": "matrix_D"}],
    }
    assert run_scenario(doc, tmp_path, quiet=True).exit_code == 0


def test_invalid_initial_state_is_an_error(tmp_path):
    doc = {
        "id": "bad", "t_final": 1.0,
        "model": {"kind": "matrix", "kappa": 1.0,
                  "initial": {"u": [encode_complex(np.diag([2.0, 1.0]))]}},
    }
    res = run_scenario(doc, tmp_path, quiet=True)
    assert res.exit_code == 1
    assert "non-unitary" in res.error


@pytest.mark.parametrize("model, projection, message", [
    ("kuramoto", "polar", "Polar projection applies to unitary configurations"),
    ("sphere", "polar", "Polar projection applies to unitary configurations"),
    ("matrix", "normalize", "Normalize projection applies to sphere configurations"),
])
def test_projection_of_another_model_is_a_scenario_error(tmp_path, capsys, model,
                                                         projection, message):
    doc = {"id": "proj", "seed": 1, "t_final": 0.1, "model": _MODELS[model],
           "integrator": {"dt": 0.01, "projection": projection}}
    res = run_scenario(doc, tmp_path, quiet=True)
    assert res.exit_code == 1
    assert res.error == f"$.integrator: {message}"
    path = tmp_path / "proj.json"
    path.write_text(json.dumps(doc))
    assert main(["--scenario", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: $.integrator: {message}\n"


def test_scenario_that_is_not_an_object_is_a_scenario_error(tmp_path, capsys):
    res = run_scenario([1, 2], tmp_path, quiet=True)
    assert res.exit_code == 1
    assert res.error == "$: [1, 2] is not of type 'object'"
    # an override goes into objects only, and validation reports the rest
    for i, (doc, message) in enumerate([
            ([1, 2], "$: [1, 2] is not of type 'object'"),
            (_kuramoto_doc(integrator=[1]), "$.integrator: [1] is not of type 'object'")]):
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps(doc))
        for flags in ([], ["--seed", "3", "--dt", "0.1"]):
            code = main(["--scenario", str(path), "--out", str(tmp_path / "out"),
                         "--quiet", *flags])
            assert code == 1
            assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


_SPHERE_X = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


@pytest.mark.parametrize("model", [
    {"kind": "kuramoto", "nu": [0.1, 0.2], "initial": {"theta": [0.0, 1.0, 2.0]}},
    {"kind": "sphere", "omega": [[0.0, 1.0], [-1.0, 0.0]], "initial": {"x": _SPHERE_X}},
    {"kind": "sphere", "initial": {"x": [[1.0, 0.0, 0.0], [0.0, 1.0]]}},
    {"kind": "sphere", "initial": {"x": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}},
    {"kind": "matrix", "v": encode_complex(np.eye(1)),
     "initial": {"u": [encode_complex(np.eye(2))] * 2}},
], ids=["nu-length", "omega-shape", "ragged-x", "zero-row", "v-shape"])
def test_malformed_model_is_a_scenario_error(tmp_path, capsys, model):
    # schema-valid documents whose shapes disagree fail as scenario errors
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"id": "m", "t_final": 0.1, "model": model}))
    assert main(["--scenario", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error: $.model: ")
    assert not (tmp_path / "out").exists()


_KEYS = {"kuramoto": ["kind", "kappa", "alpha", "flavor", "nu", "initial"],
         "sphere": ["kind", "kappa", "a", "w", "omega", "initial"],
         "matrix": ["kind", "kappa", "h", "v", "initial"]}
_KEY_VALUES = {"alpha": 0.3, "flavor": "sine", "nu": 0.1, "a": 0.5,
               "w": np.zeros((3, 3)).tolist(), "omega": np.zeros((3, 3)).tolist(),
               "h": encode_complex(np.eye(2)), "v": encode_complex(np.eye(2))}
_RANDOM = {"kuramoto": {"n": 4}, "sphere": {"n": 4, "d": 2}, "matrix": {"n": 4, "d": 2}}


def _refused_documents():
    """(id, document, message) for each key or initial form a model kind
    does not take; every document is otherwise one that runs."""
    def doc(kind, initial=None, seed=3, **model):
        initial = {"random": _RANDOM[kind]} if initial is None else initial
        d = {"id": "refused", "t_final": 0.1,
             "model": {"kind": kind, **model, "initial": initial}}
        return d if seed is None else {**d, "seed": seed}

    cases = [(f"{kind}-{key}", doc(kind, **{key: _KEY_VALUES[key]}),
              f"$.model: '{key}' is not one of {keys!r}")
             for kind, keys in _KEYS.items() for key in _KEY_VALUES if key not in keys]
    cases += [
        ("kuramoto-initial-x", doc("kuramoto", {"x": _SPHERE_X}),
         "$.model.initial: 'x' is not one of ['theta', 'random']"),
        ("sphere-random-without-d", doc("sphere", {"random": {"n": 4}}),
         "$.model.initial.random: 'd' is a required property"),
        ("matrix-random-without-d", doc("matrix", {"random": {"n": 4}}),
         "$.model.initial.random: 'd' is a required property"),
        ("kuramoto-random-with-d", doc("kuramoto", {"random": {"n": 4, "d": 2}}),
         "$.model.initial.random: 'd' is not one of ['n', 'low', 'high']"),
        ("sphere-random-with-low", doc("sphere", {"random": {"n": 4, "d": 2, "low": 0.0}}),
         "$.model.initial.random: 'low' is not one of ['n', 'd']"),
    ]
    cases += [(f"{kind}-random-without-seed", doc(kind, seed=None),
               "$: 'seed' is a required property") for kind in _KEYS]
    return cases


@pytest.mark.parametrize("doc, message", [pytest.param(doc, message, id=case)
                                          for case, doc, message in _refused_documents()])
def test_key_a_model_does_not_take_is_a_scenario_error(tmp_path, capsys, doc, message):
    res = run_scenario(doc, tmp_path / "out", quiet=True)
    assert (res.exit_code, res.error) == (1, message)
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(doc))
    assert main(["--scenario", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", sorted(_KEYS))
def test_each_kind_takes_its_own_keys(tmp_path, kind):
    random = {**_RANDOM[kind], **({"low": 0.0, "high": 1.0} if kind == "kuramoto" else {})}
    model = {"kind": kind, "kappa": 1.0, "initial": {"random": random},
             **{key: _KEY_VALUES[key] for key in _KEYS[kind] if key in _KEY_VALUES}}
    doc = {"id": kind, "seed": 3, "t_final": 0.1, "model": model}
    assert run_scenario(doc, tmp_path, quiet=True).exit_code == 0


_FACTORIES = {"kuramoto": make_phase_config, "sphere": make_sphere_config,
              "matrix": make_unitary_config}


def _schema_model_keys(kind):
    for rule in scenario._SCHEMA["properties"]["model"]["allOf"]:
        if rule["if"]["properties"]["kind"]["const"] == kind:
            return set(rule["then"]["propertyNames"]["enum"])
    raise KeyError(kind)


@pytest.mark.parametrize("kind", sorted(_FACTORIES))
def test_model_keys_are_the_factory_keywords(kind):
    # a model's keys, but for kind and initial, are passed to its factory as
    # keywords, and the factory's defaults are the only ones
    params = inspect.signature(_FACTORIES[kind]).parameters.values()
    keywords = {p.name for p in params if p.default is not p.empty}
    assert _schema_model_keys(kind) - {"kind", "initial"} == keywords


def _every_key_cases():
    """(kind, model setting every key of its kind, the same configuration
    from a direct factory call)."""
    rng = np.random.default_rng(11)
    theta = [0.1, 1.2, 2.5, 4.0]
    nu = [0.1, -0.2, 0.3, 0.0]
    x = rng.standard_normal((4, 3))
    w = rng.standard_normal((3, 3))
    w = w - w.T
    omega = rng.standard_normal((3, 3))
    u = np.array([random_unitary(rng, 2) for _ in range(3)])
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    v = random_unitary(rng, 2)
    return [
        ("kuramoto",
         {"kind": "kuramoto", "kappa": 1.7, "alpha": 0.4, "flavor": "cosine", "nu": nu,
          "initial": {"theta": theta}},
         make_phase_config(theta, nu=nu, kappa=1.7, alpha=0.4, flavor=Flavor.COSINE)),
        ("sphere",
         {"kind": "sphere", "kappa": -0.8, "a": 0.6, "w": w.tolist(), "omega": omega.tolist(),
          "initial": {"x": x.tolist()}},
         make_sphere_config(x, omega=omega, kappa=-0.8, a=0.6, w=w)),
        ("matrix",
         {"kind": "matrix", "kappa": 2.0, "h": encode_complex(h), "v": encode_complex(v),
          "initial": {"u": [encode_complex(m) for m in u]}},
         make_unitary_config(u, h=h, kappa=2.0, v=v)),
        ("kuramoto-defaults", {"kind": "kuramoto", "initial": {"theta": theta}},
         make_phase_config(theta)),
        ("sphere-defaults", {"kind": "sphere", "initial": {"x": x.tolist()}},
         make_sphere_config(x)),
        ("matrix-defaults",
         {"kind": "matrix", "initial": {"u": [encode_complex(m) for m in u]}},
         make_unitary_config(u)),
    ]


@pytest.mark.parametrize("model, want", [pytest.param(model, want, id=case)
                                         for case, model, want in _every_key_cases()])
def test_document_builds_the_factory_configuration(model, want):
    doc = {"id": "keys", "t_final": 0.1, "model": model}
    validate_scenario(doc)
    got = scenario._build_config(doc["model"], np.random.default_rng(0))
    assert type(got) is type(want)
    for field in dataclasses.fields(want):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and np.array_equal(g, w), field.name
        else:
            assert type(g) is type(w) and g == w, field.name


_NON_FINITE = "$: not a JSON document (Out of range float values are not JSON compliant"


@pytest.mark.parametrize("old, new", [
    ('"t_final": 0.5', '"t_final": NaN'), ('"t_final": 0.5', '"t_final": Infinity'),
    ('"t_final": 0.5', '"t_final": 1e400'), ('"kappa": 2.0', '"kappa": NaN'),
])
def test_non_finite_number_is_a_scenario_error(tmp_path, capsys, old, new):
    # Python's json reads NaN, Infinity and 1e400, which JSON has no numbers for
    text = json.dumps(_kuramoto_doc("nonfinite", t_final=0.5)).replace(old, new)
    assert new in text
    res = run_scenario(json.loads(text), tmp_path / "out", quiet=True)
    assert res.exit_code == 1 and res.error.startswith(_NON_FINITE)
    path = tmp_path / "nonfinite.json"
    path.write_text(text)
    assert main(["--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {_NON_FINITE}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_dt_override_is_a_scenario_error(tmp_path, capsys, value):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(_kuramoto_doc("override")))
    assert main(["--scenario", str(path), "--out", str(tmp_path / "out"),
                 "--dt", value, "--quiet"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {_NON_FINITE}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("alpha", [np.pi / 2, -np.pi / 2, np.pi / 2 - 1e-10,
                                   3 * np.pi / 2])
def test_kuramoto_j_at_singular_alpha_is_a_scenario_error(tmp_path, capsys, alpha):
    # refused when the observable is built, before the run, not after it;
    # J_alpha is the cosine flavor's invariant, singular where cos alpha = 0
    doc = {"id": "jpi2", "seed": 1, "t_final": 0.1,
           "model": {"kind": "kuramoto", "alpha": alpha, "flavor": "cosine",
                     "initial": {"random": {"n": 5}}},
           "observables": [{"name": "kuramoto_J"}]}
    message = "$.observables[0]: J_alpha is singular at |alpha| = pi/2 (tan blows up)"
    res = run_scenario(doc, tmp_path / "out", quiet=True)
    assert (res.exit_code, res.error) == (1, message)
    path = tmp_path / "jpi2.json"
    path.write_text(json.dumps(doc))
    assert main(["--scenario", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("alpha, flavor", [
    (2.0, "cosine"), (np.pi, "cosine"), (-2.5, "cosine"), (4.0, "cosine"),
    (-np.pi / 2, "sine"),                    # the cosine flow at alpha = pi
])
def test_kuramoto_j_past_pi_over_2_is_conserved(tmp_path, alpha, flavor):
    # tan(alpha) is finite away from pi/2 + k pi, and J_alpha is conserved
    # there while the total phase moves
    doc = {"id": "jwide", "seed": 3, "t_final": 2.0,
           "model": {"kind": "kuramoto", "alpha": alpha, "flavor": flavor,
                     "initial": {"random": {"n": 6}}},
           "integrator": {"dt": 1e-3, "record_every": 100},
           "observables": [{"name": "kuramoto_J"}, {"name": "total_phase",
                                                    "check": "record"}]}
    res = run_scenario(doc, tmp_path, quiet=True)
    assert res.exit_code == 0, res
    j_report, _ = json.loads((tmp_path / "jwide_drift.json").read_text())
    assert j_report["verdict"] == "pass" and j_report["max_abs_dev"] < 1e-12
    total_phase = np.loadtxt(tmp_path / "jwide_observables.csv", delimiter=",",
                             skiprows=1)[:, 2]
    assert np.ptp(total_phase) > 0.1


def test_kuramoto_j_on_a_sine_model_is_its_cosine_equivalent(tmp_path):
    # a sine model at alpha is the cosine flow at pi/2 - alpha: J_alpha is
    # conserved there to round-off, and singular at sine alpha 0
    doc = {"id": "jsine", "seed": 3, "t_final": 2.0,
           "model": {"kind": "kuramoto", "alpha": 0.3, "flavor": "sine",
                     "initial": {"random": {"n": 6}}},
           "integrator": {"dt": 1e-3, "record_every": 100},
           "observables": [{"name": "kuramoto_J"}]}
    res = run_scenario(doc, tmp_path, quiet=True)
    assert res.exit_code == 0, res
    (report,) = json.loads((tmp_path / "jsine_drift.json").read_text())
    assert report["verdict"] == "pass" and report["max_abs_dev"] < 1e-11
    doc["model"]["alpha"] = 0.0
    res = run_scenario(doc, tmp_path / "singular", quiet=True)
    assert res.exit_code == 1 and "J_alpha is singular" in res.error


def test_run_result_fields_and_manifest_keys(tmp_path):
    assert [f.name for f in dataclasses.fields(scenario.RunResult)] == \
        ["exit_code", "failed_checks", "error"]
    assert run_scenario(_kuramoto_doc("ids"), tmp_path, quiet=True).exit_code == 0
    manifest = json.loads((tmp_path / "ids_manifest.json").read_text())
    assert manifest["scenario_id"] == "ids"
    assert manifest["outputs"] == ["ids_drift.json", "ids_observables.csv",
                                   "ids_trajectory.csv", "ids_manifest.json"]


def test_cli_seed_runs_a_random_document_without_seed(tmp_path):
    doc = {"id": "noseed", "t_final": 0.1,
           "model": {"kind": "sphere", "initial": {"random": {"n": 4, "d": 2}}},
           "observables": [{"name": "sphere_rho"}]}
    path = tmp_path / "noseed.json"
    path.write_text(json.dumps(doc))
    for out in ("a", "b"):
        assert main(["--scenario", str(path), "--out", str(tmp_path / out),
                     "--seed", "3", "--quiet"]) == 0
    manifest = json.loads((tmp_path / "a" / "noseed_manifest.json").read_text())
    assert manifest["prng"]["seed"] == 3
    assert ((tmp_path / "a" / "noseed_trajectory.csv").read_bytes()
            == (tmp_path / "b" / "noseed_trajectory.csv").read_bytes())


def test_cli_prints_a_scenario_error_once(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_kuramoto_doc("bad", t_final=0.0)))
    assert main(["--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: $.t_final: ") and err.count("\n") == 1


def test_readme_example_scenario_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    doc = json.loads(example)
    res = run_scenario(doc, tmp_path, quiet=True)
    assert res.exit_code == 0, res
    assert (tmp_path / f"{doc['id']}_drift.json").exists()


def test_conserved_check_on_log_functional_is_a_scenario_error(tmp_path):
    doc = _kuramoto_doc("logc", observables=[
        {"name": "order_R"},
        {"name": "kuramoto_J", "check": "conserved", "tolerance": 1e-6}])
    res = run_scenario(doc, tmp_path, quiet=True)
    assert res.exit_code == 1
    assert res.error.startswith("$.observables[1]:")
    assert "conserved-log" in res.error


def test_conserved_log_check_on_linear_functional_is_a_scenario_error(tmp_path):
    # |I| is about 2e-5 on this run: the registered relative check fails at
    # drift 2e-5, while differences of I read as log differences would pass
    doc = {"id": "linlog", "seed": 3, "t_final": 5.0,
           "model": {"kind": "kuramoto", "kappa": 1.0, "flavor": "cosine",
                     "initial": {"random": {"n": 20}}},
           "integrator": {"dt": 0.5},
           "observables": [{"name": "kuramoto_I", "tolerance": 1e-6}]}
    res = run_scenario(doc, tmp_path, quiet=True)
    assert res.exit_code == 2 and res.failed_checks == ["kuramoto_I"]
    doc["observables"][0]["check"] = "conserved-log"
    res = run_scenario(doc, tmp_path, quiet=True)
    assert res.exit_code == 1
    assert res.error.startswith("$.observables[0]:")
    assert "not a logarithm" in res.error


_MODELS = {
    "kuramoto": {"kind": "kuramoto", "kappa": 1.0, "initial": {"random": {"n": 6}}},
    "sphere": {"kind": "sphere", "kappa": 1.0, "initial": {"random": {"n": 6, "d": 2}}},
    "matrix": {"kind": "matrix", "kappa": 1.0, "initial": {"random": {"n": 6, "d": 2}}},
}


@pytest.mark.parametrize("model, observable, message", [
    # functionals of another model
    ("kuramoto", {"name": "matrix_D"}, "functional of the matrix model"),
    ("kuramoto", {"name": "sphere_H", "indices": [0, 1, 2, 3]},
     "functional of the sphere model"),
    ("kuramoto", {"name": "sphere_rho"}, "functional of the sphere model"),
    ("matrix", {"name": "order_R"}, "functional of the kuramoto model"),
    # index lists
    ("kuramoto", {"name": "kuramoto_I", "indices": [0, 1]}, "takes no indices"),
    ("kuramoto", {"name": "kuramoto_K", "indices": [0, 1, 2, 10]}, "must lie in"),
    ("kuramoto", {"name": "kuramoto_K", "indices": [0, 1, 2, 2]}, "distinct indices"),
    ("sphere", {"name": "ptolemy", "indices": [0, 0, 1, 2]}, "distinct indices"),
    ("sphere", {"name": "pair_inner", "indices": [1, 1]}, "distinct indices"),
    ("matrix", {"name": "matrix_cross_ratio", "indices": [0, 0, 1, 2]},
     "distinct indices"),
])
def test_bad_observable_is_a_scenario_error(tmp_path, model, observable, message):
    doc = {"id": "bad", "seed": 1, "t_final": 1.0, "model": _MODELS[model],
           "integrator": {"dt": 0.25},
           "observables": [{"name": "total_phase" if model == "kuramoto"
                            else "sphere_rho" if model == "sphere" else "matrix_D"},
                           observable]}
    res = run_scenario(doc, tmp_path, quiet=True)
    assert res.exit_code == 1
    assert res.error.startswith("$.observables[1]:")
    assert message in res.error
    assert not list(tmp_path.iterdir())


def test_schema_enums_match_the_python_enums():
    from importlib import resources

    from synclab.integrate import Projection, Scheme
    from synclab.invariants import OBSERVABLES, Kind
    from synclab.state import Flavor

    def schema(name):
        with resources.files("synclab").joinpath(name).open() as fh:
            return json.load(fh)

    props = schema("scenario.schema.json")["properties"]
    observable = props["observables"]["items"]["properties"]
    assert observable["name"]["enum"] == list(OBSERVABLES)
    kinds = [k.value for k in Kind]
    assert observable["check"]["enum"] == kinds
    report = schema("report.schema.json")["$defs"]["driftReport"]["items"]
    assert report["properties"]["kind"]["enum"] == kinds
    integrator = props["integrator"]["properties"]
    assert integrator["scheme"]["enum"] == [s.value for s in Scheme]
    assert integrator["projection"]["enum"] == [p.value for p in Projection] + ["auto"]
    assert props["model"]["properties"]["flavor"]["enum"] == [f.value for f in Flavor]
    assert props["model"]["properties"]["kind"]["enum"] == \
        list(invariants._MODEL_KIND.values())


def test_each_functional_is_evaluated_once_per_record(tmp_path, monkeypatch):
    names = ("skew_frustration_log_product", "sphere_cross_ratio_H",
             "sphere_order_parameter", "sphere_squared_diameter")
    calls = {}
    for name in names:
        fn = getattr(invariants, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(invariants, name, counted)
    w = np.random.default_rng(5).standard_normal((3, 3))
    doc = {
        "id": "once", "seed": 5, "t_final": 0.5,
        "model": {"kind": "sphere", "kappa": 1.0, "a": 0.0, "w": (w - w.T).tolist(),
                  "initial": {"random": {"n": 6, "d": 2}}},
        "integrator": {"dt": 0.01, "record_every": 5},
        "observables": [{"name": "pair_distance_product"},
                        {"name": "sphere_H", "indices": [0, 1, 2, 3]},
                        {"name": "sphere_rho"},
                        {"name": "sphere_DM", "check": "record"}],
    }
    assert run_scenario(doc, tmp_path, quiet=True).exit_code == 0
    records = len((tmp_path / "once_trajectory.csv").read_text().splitlines()) - 1
    assert records == 11
    assert calls == {name: records for name in names}


def _oracle_trajectory_csv(traj):
    # the csv.writer formulation trajectory_csv replaced, kept as the oracle
    def flatten(state):
        if np.iscomplexobj(state):
            out = []
            for z in state.ravel():
                out.extend((z.real, z.imag))
            return out
        return list(np.asarray(state, dtype=float).ravel())

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["t"] + _state_columns(traj.config))
    for t, s in zip(traj.times, traj.states):
        w.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in flatten(s)])
    return buf.getvalue()


def _csv_trajectories():
    rng = np.random.default_rng(21)
    for cfg in (random_phase_config(rng, 7, alpha=0.3),
                random_sphere_config(rng, 6, 3, w_scale=0.5),
                random_unitary_config(rng, 4, 3)):
        yield integrate(cfg, default_settings(cfg, dt=0.01, record_every=7), 0.5)
    cfg = make_sphere_config(np.eye(3), None)
    special = np.array([[[-0.0, 5e-324, 1e308], [np.nan, np.inf, -np.inf],
                         [1 / 3, -2.5e-17, 123456789.0]]])
    yield Trajectory(np.array([0.0]), special, cfg)
    yield integrate(cfg, IntegratorSettings(dt=0.1), 0.0)


def test_trajectory_csv_matches_csv_writer_bytes():
    for traj in _csv_trajectories():
        assert trajectory_csv(traj).encode() == _oracle_trajectory_csv(traj).encode()


# --- command line -------------------------------------------------------------


def test_cli_scenario_roundtrip(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(_kuramoto_doc("cli")))
    assert main(["--scenario", str(path), "--out", str(tmp_path / "out"),
                 "--quiet"]) == 0
    assert (tmp_path / "out" / "cli_manifest.json").exists()


def test_cli_dt_override_causes_failure_exit(tmp_path):
    doc = _kuramoto_doc("cli2", t_final=5.0)
    doc["model"]["kappa"] = 16.0
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(doc))
    code = main(["--scenario", str(path), "--out", str(tmp_path / "out"),
                 "--dt", "0.5", "--quiet"])
    assert code == 2


@pytest.mark.parametrize("dt", ["1e-320", "5e-324"])
def test_cli_step_count_overflow_is_an_integration_error(tmp_path, capsys, dt):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(_kuramoto_doc("overflow", t_final=20.0)))
    code = main(["--scenario", str(path), "--out", str(tmp_path / "out"), "--dt", dt,
                 "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the step count of t_final = 20.0 at dt = ")
    assert "overflows" in err and err.count("\n") == 1


def test_cli_polar_factor_that_does_not_converge_exits_1(tmp_path, capsys):
    # at dt = 3 the first step leaves the unitaries so far from U(2) that
    # the Newton iteration is still moving by thousands after its cap;
    # before, it returned that matrix, and the run failed only later as a
    # non-finite state
    doc = {"id": "polar", "seed": 1, "t_final": 30.0,
           "model": {"kind": "matrix", "kappa": 5.0,
                     "initial": {"random": {"n": 3, "d": 2}}},
           "integrator": {"dt": 3.0}}
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(doc))
    assert main(["--scenario", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == ("error: the polar factor did not converge in 50 iterations "
                   "(last update 5.38e+03)\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value, pointer", [
    ("--seed", "-1", "$.seed: "),
    ("--dt", "-0.01", "$.integrator.dt: "),
    ("--dt", "0", "$.integrator.dt: "),
])
def test_cli_overrides_are_validated(tmp_path, capsys, flag, value, pointer):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(_kuramoto_doc("override")))
    code = main(["--scenario", str(path), "--out", str(tmp_path / "out"),
                 flag, value, "--quiet"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {pointer}")
    assert not (tmp_path / "out").exists()


def test_cli_malformed_scenario_exits_1(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["--scenario", str(path), "--out", str(tmp_path)]) == 1
    path2 = tmp_path / "schema.json"
    path2.write_text(json.dumps({"id": "x"}))
    assert main(["--scenario", str(path2), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("content, reason", [
    (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
    (b"[" * 100000 + b"]" * 100000, "maximum recursion depth exceeded"),
    (b"1" * 5000, "Exceeds the limit (4300 digits)"),
], ids=["not-utf-8", "nested-too-deep", "integer-too-long"])
def test_cli_unreadable_scenario_is_a_scenario_error(tmp_path, capsys, content, reason):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    assert main(["--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}: not valid JSON ({reason}")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_deep_document_is_a_scenario_error(tmp_path):
    nested = []
    for _ in range(100000):
        nested = [nested]
    res = run_scenario(_kuramoto_doc("deep", observables=nested), tmp_path / "out")
    assert res.exit_code == 1
    assert res.error.startswith("$: not a JSON document (maximum recursion depth")
    assert not (tmp_path / "out").exists()


def _nested(depth):
    value = 0.0
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("theta0, shown", [
    ("a" * 5000, "'" + "a" * 39 + "..."),
    (_nested(300), "[" * 40 + "..."),
], ids=["long-string", "nested-300"])
def test_a_huge_offending_value_is_cut_in_the_error(tmp_path, capsys, theta0, shown):
    doc = _kuramoto_doc("huge", model={"kind": "kuramoto",
                                       "initial": {"theta": [theta0, 1.0]}})
    want = f"$.model.initial.theta[0]: {shown} is not of type 'number'"
    res = run_scenario(doc, tmp_path / "out")
    assert (res.exit_code, res.error) == (1, want)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {want}\n")
    assert len(err) < 200
    assert not (tmp_path / "out").exists()
    # the same message from a fresh process's first validation, which
    # builds the validator: the cut does not depend on import order
    run = _fresh_python(["-m", "synclab.cli", "--scenario", str(path),
                         "--out", str(tmp_path / "out")])
    assert (run.returncode, run.stdout, run.stderr) == (1, "", f"error: {want}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [["--seed", "5"], ["--dt", "0.5"],
                                   ["--seed", "5", "--dt", "0.5"]])
def test_cli_scenario_flags_with_a_suite_exit_1(tmp_path, capsys, flags):
    # a suite has no seed or step to override: refused, not ignored
    assert main(["--suite", "kuramoto-invariants", "--out", str(tmp_path / "out"),
                 *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --seed and --dt apply to --scenario only\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_cli_unknown_suite_exits_1(tmp_path):
    assert main(["--suite", "nope", "--out", str(tmp_path)]) == 1


def _file(path):
    path.write_text("")
    return path


def _failing_pack(out_dir):
    raise SynclabError("the certificate run failed")


@pytest.mark.parametrize("make_out, message", [
    (lambda tmp, mp: _file(tmp / "out"), "File exists"),
    (lambda tmp, mp: _file(tmp / "file") / "out", "Not a directory"),
    (lambda tmp, mp: mp.setitem(suites._PACKS, "equilibria", _failing_pack) or tmp,
     "the certificate run failed"),
], ids=["out-is-a-file", "out-under-a-file", "pack-raises"])
def test_cli_suite_error_exits_1(tmp_path, capsys, monkeypatch, make_out, message):
    out = make_out(tmp_path, monkeypatch)
    assert main(["--suite", "equilibria", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("dt", [1e-15, 1e-300])
def test_cli_record_grid_too_large_exits_1(tmp_path, capsys, dt):
    # 2e16 records would take 142 PiB; 2e301 exceed numpy's largest dimension
    doc = {"id": "grid", "seed": 3, "t_final": 20.0,
           "model": {"kind": "sphere", "initial": {"random": {"n": 4, "d": 2}}}}
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(doc))
    assert main(["--scenario", str(path), "--out", str(tmp_path / "out"),
                 "--dt", repr(dt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot allocate 2e+") and "records" in err
    assert not (tmp_path / "out").exists()


def test_cli_requires_exactly_one_mode(tmp_path):
    assert main(["--out", str(tmp_path)]) == 1


def test_cli_suite_writes_summary(tmp_path):
    code = main(["--suite", "equilibria", "--out", str(tmp_path), "--quiet"])
    assert code == 0
    summary = json.loads((tmp_path / "suite_equilibria.json").read_text())
    assert summary["passed"] is True
    assert all(r["passed"] for r in summary["results"])


def test_output_json_validates_against_report_schema(tmp_path):
    from importlib import resources
    import jsonschema

    with resources.files("synclab").joinpath("report.schema.json").open() as fh:
        schema = json.load(fh)
    registry = {"drift": schema["$defs"]["driftReport"],
                "manifest": schema["$defs"]["manifest"],
                "suite": schema["$defs"]["suiteSummary"]}

    run_scenario(_kuramoto_doc("check"), tmp_path, quiet=True)
    drift = json.loads((tmp_path / "check_drift.json").read_text())
    jsonschema.validate(drift, registry["drift"])
    manifest = json.loads((tmp_path / "check_manifest.json").read_text())
    jsonschema.validate(manifest, registry["manifest"])

    main(["--suite", "equilibria", "--out", str(tmp_path), "--quiet"])
    summary = json.loads((tmp_path / "suite_equilibria.json").read_text())
    jsonschema.validate(summary, registry["suite"])
