import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import glasslocal
from glasslocal.cli import _HANDLERS, _hex_to_spins, _spins_to_hex, main
from glasslocal.config import CONFIG_SCHEMA, KINDS, resolve_config, ConfigError
from glasslocal.disorder import gen_random, hamiltonian, read_tensors, write_tensors
from glasslocal.mixture import MixtureSpec


def run_cli(*args):
    return main(list(args))


def test_cli_import_loads_no_scipy(tmp_path):
    # the runtime is numpy only: neither the import nor w2 and chaos, the
    # commands that run empirical_w2, load scipy
    src = os.path.dirname(os.path.dirname(glasslocal.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = f"""
import os, sys
import numpy as np
import glasslocal.cli as cli
from glasslocal.baselines import SampleBatch, write_batch_bits
scipy_mods = lambda: [m for m in sys.modules if m.split('.')[0] == 'scipy']
print(scipy_mods())
os.chdir({str(tmp_path)!r})
gen = np.random.default_rng(0)
for name in ("a.bits", "b.bits"):
    write_batch_bits(name, SampleBatch(np.where(gen.uniform(size=(12, 5)) < 0.5, -1.0, 1.0)))
assert cli.main(["w2", "--set", 'w2.batch_a="a.bits"', "--set", 'w2.batch_b="b.bits"',
                 "--out", "w2.csv"]) == 0
assert cli.main(["chaos", "--n", "4", "--beta", "0.5", "--set", "chaos.s_list=[0.0,0.5]",
                 "--set", "chaos.n_seeds=1", "--set", "chaos.batch_size=10",
                 "--out", "chaos.csv"]) == 0
print(scipy_mods())
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:2] == ["[]", "[]"]
    assert (tmp_path / "w2.csv").exists() and (tmp_path / "chaos.csv").exists()


@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
@example(8, 0)
@example(1, 0)
def test_spin_hex_roundtrip(n, seed):
    x = np.where(np.random.default_rng(seed).uniform(size=n) < 0.5, -1.0, 1.0)
    h = _spins_to_hex(x)
    assert len(h) == 2 * ((n + 7) // 8)
    np.testing.assert_array_equal(_hex_to_spins([h], n)[0], x, strict=True)


class TestConfig:
    def test_defaults_materialized(self):
        cfg = resolve_config({"kind": "sample"})
        assert cfg["sampler"]["delta"] == 0.05
        assert cfg["sampler"]["L"] == 400
        assert cfg["sampler"]["k_amp"] == 5
        assert cfg["sampler"]["k_ngd"] == 100
        assert cfg["sampler"]["eta"] == 0.6
        assert cfg["sampler"]["gamma"] == 1.0

    @pytest.mark.parametrize("key", ["bogus", "threads"])
    def test_unknown_key_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            resolve_config({"kind": "se", key: 1})

    def test_nested_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="sampler"):
            resolve_config({"kind": "sample", "sampler": {"junk": 2}})

    @pytest.mark.parametrize(
        "cfg, where",
        [
            ({"kind": "sample", "beta": float("nan")}, "beta"),
            ({"kind": "sample", "mixture": {"2": float("inf")}}, "mixture/2"),
            ({"kind": "chaos", "chaos": {"s_list": [0.1, float("nan")]}}, "chaos/s_list/1"),
            ({"kind": "sample", "sampler": {"eta": float("inf")}}, "sampler/eta"),
        ],
    )
    def test_non_finite_rejected(self, cfg, where):
        with pytest.raises(ConfigError, match=f"config field '{where}'"):
            resolve_config(cfg)

    def test_schema_is_strict_everywhere(self):
        assert CONFIG_SCHEMA["additionalProperties"] is False
        assert CONFIG_SCHEMA["properties"]["sampler"]["additionalProperties"] is False

    def test_one_subcommand_list(self):
        assert list(_HANDLERS) == KINDS

    def test_removed_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            run_cli("validate")
        assert e.value.code == 2
        assert "invalid choice: 'validate'" in capsys.readouterr().err

    def test_removed_kind_rejected(self):
        with pytest.raises(ConfigError, match="config field 'kind'"):
            resolve_config({"kind": "validate"})


class TestSubcommands:
    def test_thresholds_sk(self, tmp_path, capsys):
        out = tmp_path / "th.json"
        code = run_cli("thresholds", "--mixture", '{"2": 0.5}', "--out", str(out))
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["beta1"] == pytest.approx(1.0, abs=1e-3)
        assert rep["beta2"] == pytest.approx(1.0, abs=1e-3)
        assert rep["beta3"] == 0.5
        assert rep["beta_c_rs"] == pytest.approx(1.0, abs=2e-3)
        # resolved config echoed next to the result
        paired = json.loads((tmp_path / "th.json.config.json").read_text())
        assert paired["kind"] == "thresholds"
        assert "thresholds" not in paired  # c0 and the ceiling are constants
        assert rep["method"]["beta3"]["c0"] == 0.25

    def test_malformed_config_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"kind": "se", "betaa": 0.3}))
        code = run_cli("se", "--config", str(cfg))
        assert code == 2
        assert "betaa" in capsys.readouterr().err

    def test_se_csv(self, tmp_path):
        out = tmp_path / "se.csv"
        code = run_cli(
            "se", "--beta", "0.5", "--set", "se.t_max=1.0", "--set", "se.t_step=0.5",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,q_star,psi_star,mmse"
        rows = [line.split(",") for line in lines[1:]]
        assert float(rows[0][1]) == 0.0  # q*(t=0) = 0 below beta1
        assert float(rows[2][1]) == pytest.approx(0.5946385559, abs=1e-6)

    def test_truncated_tensor_file_reported(self, tmp_path, capsys):
        path = tmp_path / "g.gltn"
        assert run_cli("gen-disorder", "--n", "4", "--out", str(path)) == 0
        path.write_bytes(path.read_bytes()[:12])
        assert run_cli("sample", "--tensor-file", str(path)) == 1
        assert "header truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["exact", "sample"])
    def test_non_finite_tensor_entry_reported(self, tmp_path, capsys, kind):
        g = gen_random(MixtureSpec.sk(), 8, seed=0)
        g.tensors[2][3, 5] = np.nan
        path = tmp_path / "nan.gltn"
        write_tensors(path, g)
        out = tmp_path / "out.csv"
        assert run_cli(kind, "--tensor-file", str(path), "--n", "8", "--out", str(out)) == 1
        assert "non-finite entry in degree p = 2" in capsys.readouterr().err
        assert not out.exists()

    def test_unconverged_q_schedule_reported(self, capsys, monkeypatch):
        from glasslocal import state_evolution

        monkeypatch.setattr(state_evolution, "FIXED_POINT_CAP", 2)
        assert run_cli("sample", "--n", "4", "--set", "sampler.L=4") == 1
        err = capsys.readouterr().err
        assert "error [RuntimeError]: q schedule" in err and "ell=1" in err

    @pytest.mark.parametrize(
        "flags", [["--beta", "nan"], ["--mixture", '{"2": NaN}'], ["--mixture", '{"2": Infinity}']]
    )
    def test_non_finite_flag_rejected(self, capsys, flags):
        assert run_cli("sample", "--n", "4", *flags) == 2
        assert "is not of type 'number'" in capsys.readouterr().err

    def test_glauber_burn_in_checked(self, capsys):
        # the default burn_in of 100 is not below 30 sweeps
        assert run_cli("glauber", "--n", "4", "--set", "glauber.sweeps=30") == 1
        assert "burn_in" in capsys.readouterr().err

    def test_amp_planted_needs_generated_instance(self, tmp_path, capsys):
        path = tmp_path / "p.gltn"
        code = run_cli(
            "gen-disorder", "--n", "6", "--set", 'gen.mode="planted"',
            "--set", "gen.planted_beta=0.5", "--out", str(path),
        )
        assert code == 0
        out = tmp_path / "amp.csv"
        assert run_cli("amp", "--tensor-file", str(path), "--out", str(out)) == 2
        assert "amp.planted=false" in capsys.readouterr().err
        assert not out.exists()
        flags = ["--set", "amp.planted=false", "--set", "amp.k=2", "--out", str(out)]
        assert run_cli("amp", "--tensor-file", str(path), *flags) == 0

    def test_amp_planted_conflicts_with_gen_planting(self, tmp_path, capsys):
        out = tmp_path / "amp.csv"
        flags = [
            "--n", "50", "--beta", "0.4", "--seed", "1", "--set", "amp.k=2",
            "--set", 'gen.mode="planted"', "--set", "gen.planted_beta=2.0", "--out", str(out),
        ]
        assert run_cli("amp", *flags) == 2
        err = capsys.readouterr().err
        assert "amp/planted" in err and "amp.planted=false" in err
        assert list(tmp_path.iterdir()) == []
        assert run_cli("amp", *flags, "--set", "amp.planted=false") == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].split(",")[2:4] == ["mse_empirical", "mse_predicted"]
        for line in lines[1:]:
            assert np.all(np.isfinite([float(v) for v in line.split(",")[2:4]]))

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--set", "gen.mode=planted"], "--set 'gen.mode=planted'"),
            (["--mixture", "{2: 0.5}"], "--mixture"),
            (["--config", "CONFIG"], "--config 'CONFIG'"),
        ],
        ids=["set", "mixture", "config"],
    )
    def test_malformed_json_input_named(self, tmp_path, capsys, flags, named):
        path = tmp_path / "cfg.json"
        path.write_text('{"kind": "se", "beta": 0.')
        flags = [f.replace("CONFIG", str(path)) for f in flags]
        assert run_cli("se", *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: " + named.replace("CONFIG", str(path)))
        assert "malformed JSON" in err
        assert ("JSON quotes" in err) == (flags[0] == "--set")

    @pytest.mark.parametrize(
        "raw, match",
        [
            ((10).to_bytes(4, "little"), "corrupt batch file"),
            (b"\x0a", "header truncated"),
            ((0).to_bytes(4, "little") + b"\x01", "n = 0"),
            ((6).to_bytes(4, "little") + b"\xff", "sets a padding bit past n = 6"),
        ],
        ids=["header-only", "one-byte", "n-zero", "padding-bit"],
    )
    def test_bad_bits_file_reported(self, tmp_path, capsys, raw, match):
        path = tmp_path / "bad.bits"
        path.write_bytes(raw)
        out = tmp_path / "w2.csv"
        code = run_cli(
            "w2", "--set", f'w2.batch_a="{path}"', "--set", f'w2.batch_b="{path}"',
            "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [ValueError]") and match in err
        assert not out.exists()

    def test_gen_disorder_roundtrip(self, tmp_path):
        out = tmp_path / "g.gltn"
        assert run_cli("gen-disorder", "--n", "4", "--seed", "9", "--out", str(out)) == 0
        g = read_tensors(out)
        assert g.n == 4 and g.seed == 9

    def test_amp_at_tiny_t(self, tmp_path):
        # t = 1e-140 reaches psi at gamma of that order, which must stay >= 0
        out = tmp_path / "amp.csv"
        code = run_cli("amp", "--n", "5", "--set", "amp.t=1e-140", "--out", str(out))
        assert code == 0
        rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
        assert rows and all(0.0 <= float(r[3]) <= 1.0 for r in rows)  # mse_predicted

    def test_amp_csv(self, tmp_path):
        out = tmp_path / "amp.csv"
        code = run_cli(
            "amp", "--n", "300", "--beta", "0.5", "--seed", "1",
            "--set", "amp.k=5", "--set", "amp.t=1.0", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "k,q_hat,mse_empirical,mse_predicted,z_increment_ratio"
        assert len(lines) == 6

    def test_tap_json(self, tmp_path):
        out = tmp_path / "tap.json"
        code = run_cli(
            "tap", "--n", "60", "--beta", "0.3", "--seed", "2",
            "--set", "tap.q=0.2", "--set", "tap.k_amp=10", "--out", str(out),
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert {"ftap_value", "grad_norm", "relative_hessian_min"} <= set(rep)

    def test_tap_spectrum_past_hessian_cap(self, tmp_path):
        # the default spectrum is reported at every n the budget admits;
        # tap.spectrum=false skips its dense Hessian and eigvalsh
        out = tmp_path / "tap.json"
        args = ("tap", "--n", "600", "--set", "tap.k_amp=3", "--out", str(out))
        assert run_cli(*args) == 0
        report = json.loads(out.read_text())
        assert report["relative_hessian_min"] <= report["relative_hessian_max"]
        assert run_cli(*args, "--set", "tap.spectrum=false") == 0
        report = json.loads(out.read_text())
        assert "relative_hessian_min" not in report
        assert "relative_hessian_max" not in report

    def test_exact_and_w2(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path, seed in ((a, 3), (b, 4)):
            code = run_cli(
                "exact", "--n", "6", "--beta", "0.2", "--seed", str(seed),
                "--set", "exact.m_samples=50", "--out", str(path),
            )
            assert code == 0
        out = tmp_path / "w2.csv"
        code = run_cli(
            "w2", "--set", f'w2.batch_a="{a}"', "--set", f'w2.batch_b="{b}"',
            "--out", str(out),
        )
        assert code == 0
        val = float(out.read_text().strip().split("\n")[1])
        assert 0.0 <= val <= 2.0

    def test_glauber_csv(self, tmp_path):
        out = tmp_path / "gl.csv"
        code = run_cli(
            "glauber", "--n", "5", "--beta", "0.2", "--seed", "5",
            "--set", "glauber.sweeps=40", "--set", "glauber.burn_in=10",
            "--set", "glauber.thin=2", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "state,x_bits_hex"
        assert len(lines) == 16

    def test_glauber_large_beta(self, tmp_path):
        # beta delta reaches thousands, past exp's overflow: the chain is
        # zero-temperature Glauber and ends at a one-flip local maximum of H
        out = tmp_path / "gl.csv"
        code = run_cli(
            "glauber", "--n", "6", "--beta", "1000", "--set", "glauber.sweeps=20",
            "--set", "glauber.burn_in=0", "--set", "glauber.thin=1", "--out", str(out),
        )
        assert code == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 20
        x = _hex_to_spins([rows[-1].split(",")[1]], 6)[0]
        flips = np.where(np.eye(6, dtype=bool), -x, x)
        g = gen_random(MixtureSpec.from_dict({"2": 0.5}), 6, seed=0)
        assert np.all(hamiltonian(g, flips) <= hamiltonian(g, x))

    def test_chaos_csv(self, tmp_path):
        out = tmp_path / "chaos.csv"
        code = run_cli(
            "chaos", "--n", "8", "--beta", "1.0", "--seed", "0",
            "--set", "chaos.s_list=[0.0,1.0]", "--set", "chaos.n_seeds=2",
            "--set", "chaos.batch_size=50", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "s,seed,overlap_moment,w2"
        assert len(lines) == 5

    def test_stability_csv(self, tmp_path):
        out = tmp_path / "st.csv"
        code = run_cli(
            "stability", "--n", "6", "--beta", "0.2", "--seed", "0",
            "--set", "stability.s_list=[0.0,0.5]", "--set", "stability.n_seeds=1",
            "--set", "stability.replicas=2",
            "--set", "sampler.L=4", "--set", "sampler.delta=0.25",
            "--set", "sampler.k_amp=4", "--set", "sampler.k_ngd=6",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "s,seed,spin_distance,mean_distance"
        first = lines[1].split(",")
        assert float(first[2]) == 0.0  # s = 0 row is exactly zero


RERUN_MIXTURES = [{"2": 0.5}, {"2": 0.5, "3": 0.7, "4": 0.2}, {"3": 0.6}]
# the instances `gen-disorder` writes for the `--tensor-file` configs, by name
RERUN_TENSOR_FILES = {"sk": RERUN_MIXTURES[0], "p234": RERUN_MIXTURES[1]}


@pytest.fixture(scope="module")
def rerun_tensor_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("tensors")
    paths = {name: str(d / f"{name}.bin") for name in RERUN_TENSOR_FILES}
    for name, mixture in RERUN_TENSOR_FILES.items():
        args = ["--mixture", json.dumps(mixture), "--n", "6", "--seed", "9", "--out", paths[name]]
        assert run_cli("gen-disorder", *args) == 0
    return paths


@st.composite
def rerun_configs(draw):
    """A small run of one of the five commands that draw random numbers, on a
    generated instance or on a tensor file (named by its RERUN_TENSOR_FILES key)."""
    kind = draw(st.sampled_from(["sample", "exact", "glauber", "amp", "tap"]))
    cfg = {"kind": kind}
    tensor_file = draw(st.sampled_from([None, *RERUN_TENSOR_FILES]))
    if tensor_file is None:
        cfg.update(mixture=draw(st.sampled_from(RERUN_MIXTURES)), n=draw(st.integers(1, 8)))
    else:
        cfg["tensor_file"] = tensor_file
    cfg.update(beta=draw(st.floats(0.0, 0.4)), seed=draw(st.integers(0, 2**31)))
    if kind == "sample":
        cfg["sampler"] = {
            "L": draw(st.integers(1, 3)),
            "delta": draw(st.floats(0.05, 0.5)),
            "k_amp": draw(st.integers(1, 4)),
            "k_ngd": draw(st.integers(1, 6)),
            "eta": draw(st.floats(0.05, 1.0)),
            "keep_trajectory": draw(st.booleans()),
            "replicas": draw(st.integers(1, 4)),
        }
    elif kind == "exact":
        cfg["exact"] = {"m_samples": draw(st.integers(1, 30))}
    elif kind == "glauber":
        sweeps = draw(st.integers(1, 8))
        burn_in = draw(st.integers(0, sweeps - 1))
        cfg["glauber"] = {"sweeps": sweeps, "burn_in": burn_in, "thin": draw(st.integers(1, 3))}
    elif kind == "amp":
        cfg["amp"] = {
            "k": draw(st.integers(1, 4)),
            "t": draw(st.floats(0.0, 2.0)),
            # a tensor file stores no planted x
            "planted": tensor_file is None and draw(st.booleans()),
        }
    else:
        cfg["tap"] = {
            "q": draw(st.floats(0.0, 0.9)),
            "t": draw(st.floats(0.0, 2.0)),
            "k_amp": draw(st.integers(1, 4)),
            "spectrum": draw(st.booleans()),
        }
    return cfg


TWO_CHUNK_SAMPLE = {
    "kind": "sample", "mixture": {"2": 0.5, "3": 0.7, "4": 0.2}, "n": 7, "beta": 0.4, "seed": 3,
    "sampler": {"L": 2, "delta": 0.25, "k_amp": 3, "k_ngd": 4, "eta": 0.6,
                "keep_trajectory": True, "replicas": 66},
}


TENSOR_FILE_EXACT = {
    "kind": "exact", "tensor_file": "p234", "beta": 0.3, "seed": 5, "exact": {"m_samples": 9},
}


@given(rerun_configs())
@settings(max_examples=100, deadline=None)
@example(TWO_CHUNK_SAMPLE)  # 66 replicas: two REPLICA_CHUNK batches
@example(TENSOR_FILE_EXACT)
def test_rerun_from_echo_byte_identical(tmp_path_factory, rerun_tensor_files, cfg):
    if "tensor_file" in cfg:
        cfg = {**cfg, "tensor_file": rerun_tensor_files[cfg["tensor_file"]]}
    d = tmp_path_factory.mktemp("rerun")
    first = d / "first.json"
    first.write_text(json.dumps({**cfg, "out": str(d / "a.out")}))
    assert run_cli(cfg["kind"], "--config", str(first)) == 0
    echo = json.loads((d / "a.out.config.json").read_text())
    second = d / "second.json"
    second.write_text(json.dumps({**echo, "out": str(d / "b.out")}))
    assert run_cli(cfg["kind"], "--config", str(second)) == 0
    assert (d / "a.out").read_bytes() == (d / "b.out").read_bytes()
    assert json.loads((d / "b.out.config.json").read_text()) == {**echo, "out": str(d / "b.out")}
    if cfg.get("sampler", {}).get("keep_trajectory"):
        assert (d / "a.out.traj.bin").read_bytes() == (d / "b.out.traj.bin").read_bytes()


class TestDeterminism:
    SAMPLE_ARGS = [
        "sample", "--n", "8", "--beta", "0.25", "--seed", "11",
        "--set", "sampler.L=6", "--set", "sampler.delta=0.25",
        "--set", "sampler.k_amp=6", "--set", "sampler.k_ngd=10",
        "--set", "sampler.replicas=5",
    ]

    def test_rerun_byte_identical(self, tmp_path):
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            assert run_cli(*self.SAMPLE_ARGS, "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_rerun_from_resolved_config(self, tmp_path):
        out1 = tmp_path / "c1.csv"
        assert run_cli(*self.SAMPLE_ARGS, "--out", str(out1)) == 0
        resolved = json.loads((tmp_path / "c1.csv.config.json").read_text())
        cfg2 = tmp_path / "resolved.json"
        resolved["out"] = str(tmp_path / "c2.csv")
        cfg2.write_text(json.dumps(resolved))
        assert run_cli("sample", "--config", str(cfg2)) == 0
        assert out1.read_bytes() == (tmp_path / "c2.csv").read_bytes()

    def test_trajectory_dump(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run_cli(
            *self.SAMPLE_ARGS, "--set", "sampler.keep_trajectory=true", "--out", str(out)
        )
        assert code == 0
        traj = np.fromfile(tmp_path / "t.csv.traj.bin", dtype="<f8")
        # replicas x (L+1) x n doubles
        assert traj.size == 5 * 7 * 8
        assert np.all(traj.reshape(5, 7, 8)[:, 0, :] == 0.0)  # y_0 = 0

    def test_w2_accepts_bits_files(self, tmp_path):
        from glasslocal.baselines import SampleBatch, write_batch_bits

        gen = np.random.default_rng(3)
        spins = np.where(gen.uniform(size=(10, 6)) < 0.5, -1.0, 1.0)
        path = tmp_path / "b.bits"
        write_batch_bits(path, SampleBatch(spins=spins))
        out = tmp_path / "w2b.csv"
        code = run_cli(
            "w2", "--set", f'w2.batch_a="{path}"', "--set", f'w2.batch_b="{path}"',
            "--out", str(out),
        )
        assert code == 0
        assert float(out.read_text().strip().split("\n")[1]) == 0.0

    def test_w2_unequal_dimension_reported(self, tmp_path, capsys):
        from glasslocal.baselines import SampleBatch, write_batch_bits

        for name, n in (("a.bits", 6), ("b.bits", 9)):
            write_batch_bits(tmp_path / name, SampleBatch(spins=np.ones((4, n))))
        out = tmp_path / "w2.csv"
        code = run_cli(
            "w2", "--set", f'w2.batch_a="{tmp_path / "a.bits"}"',
            "--set", f'w2.batch_b="{tmp_path / "b.bits"}"', "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [ValueError]") and "equal dimension: n = 6 and 9" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "echo, rows, match",
        [
            ({"n": 12}, "", "batches must be nonempty"),
            ({"n": 12}, "0,94\n1,ff\n", "x_bits_hex '94' is not 2 bytes, as n = 12 needs"),
            ({"n": 12}, "0,94a0b1\n", "x_bits_hex '94a0b1' is not 2 bytes, as n = 12 needs"),
            ({"n": 20}, "0, 94 a0\n", "x_bits_hex ' 94 a0' is not 3 bytes, as n = 20 needs"),
            ({"n": 6}, "0,fc\n1\n", "row 2 has 1 fields, the header 2"),
            ({"kind": "exact"}, "0,fc\n", "n must be an integer >= 1, not None"),
            ({"n": "6"}, "0,fc\n", "n must be an integer >= 1, not '6'"),
            ({"n": 6.0}, "0,fc\n", "n must be an integer >= 1, not 6.0"),
            ({"n": True}, "0,80\n", "n must be an integer >= 1, not True"),
            ({"n": 0}, "0,\n1,\n", "n must be an integer >= 1, not 0"),
            ([6], "0,fc\n", "n must be an integer >= 1, not None"),
            ({"n": 6}, "0,fc\n1,ff\n", "sets a padding bit past n = 6"),
        ],
        ids=["empty", "short-rows", "long-row", "spaced-bytes", "missing-field",
             "no-n", "n-str", "n-float", "n-bool", "n-zero", "echo-not-object", "padding-bit"],
    )
    def test_w2_bad_batch_csv_reported(self, tmp_path, capsys, echo, rows, match):
        # a hand-edited `exact` output: n and the rows are checked before decoding
        (tmp_path / "e.csv").write_text("sample,x_bits_hex\n" + rows)
        (tmp_path / "e.csv.config.json").write_text(json.dumps(echo))
        out = tmp_path / "w2.csv"
        code = run_cli(
            "w2", "--set", f'w2.batch_a="{tmp_path / "e.csv"}"',
            "--set", f'w2.batch_b="{tmp_path / "e.csv"}"', "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [ValueError]") and match in err
        assert not out.exists()

    def test_w2_oversized_batch_csv_rejected_before_decoding(self, tmp_path, capsys):
        # the cap is checked before the rows become a (rows, n) float array
        import tracemalloc

        from glasslocal.baselines import W2_BATCH_CAP

        M, n = W2_BATCH_CAP + 1000, 1000
        text = "sample,x_bits_hex\n" + "".join(f"{i},{'00' * (n // 8)}\n" for i in range(M))
        (tmp_path / "e.csv").write_text(text)
        (tmp_path / "e.csv.config.json").write_text(json.dumps({"n": n}))
        out = tmp_path / "w2.csv"
        tracemalloc.start()
        try:
            code = run_cli(
                "w2", "--set", f'w2.batch_a="{tmp_path / "e.csv"}"',
                "--set", f'w2.batch_b="{tmp_path / "e.csv"}"', "--out", str(out),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [ValueError]")
        assert f"batch size {M} exceeds the cap {W2_BATCH_CAP}" in err
        assert not out.exists()
        assert peak < 8 * len(text)  # the decoded spins alone take 8 M n = 24 MB

    def test_seventeen_digit_floats(self, tmp_path):
        out = tmp_path / "se.csv"
        run_cli("se", "--beta", "0.5", "--set", "se.t_max=0.5", "--set", "se.t_step=0.5",
                "--out", str(out))
        val = out.read_text().strip().split("\n")[2].split(",")[1]
        assert float(val) == float(format(float(val), ".17g"))


def test_cli_import_loads_no_jsonschema():
    # configs are checked by config._walk; jsonschema is a test-only reference
    src = os.path.dirname(os.path.dirname(glasslocal.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, glasslocal.cli; print([m for m in sys.modules if 'jsonschema' in m])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _run_fresh(tmp_path, *args):
    """The CLI in a fresh process inside `tmp_path`, writing r.out: no cached
    beta1 and no pytest warning or log capture hide what reaches stderr."""
    src = os.path.dirname(os.path.dirname(glasslocal.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys; from glasslocal.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = [sys.executable, "-c", code, *args, "--out", "r.out"]
    return subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True)


@pytest.mark.parametrize("args", [["thresholds"], ["se", "--beta", "0.2"]], ids=["th", "se"])
def test_high_degree_writes_no_stderr(tmp_path, args):
    out = _run_fresh(tmp_path, *args, "--mixture", '{"50": 1.0}')
    assert out.returncode == 0 and out.stderr == ""


def test_beta1_warning_has_no_source_line(tmp_path):
    # the warning names no file or line of the CLI, so the log does not
    # move when code above the call moves
    out = _run_fresh(tmp_path, "se", "--mixture", '{"2": 0.5, "3": 0.7, "4": 0.2}', "--beta", "0.9")
    assert out.returncode == 0
    assert out.stderr == (
        "warning: psi_star evaluated at beta=0.9 >= beta1; the fixed point may not be unique\n"
    )
    assert ".py:" not in out.stderr


def test_amp_reports_large_z_moving(tmp_path):
    # at t = 60 the z of AMP exceeds 40 in size; it is AMP's own iterate, so
    # it moves between iterations, and nothing reaches stderr
    out = _run_fresh(tmp_path, "amp", "--n", "100", "--beta", "0.4", "--seed", "1",
                     "--set", "amp.k=3", "--set", "amp.t=60")
    assert out.returncode == 0 and out.stderr == ""
    rows = (tmp_path / "r.out").read_text().strip().split("\n")
    assert rows[0].split(",")[-1] == "z_increment_ratio"
    assert rows[1].split(",")[0] == "1" and float(rows[1].split(",")[-1]) > 0.0


def test_sample_at_long_horizon_writes_no_stderr(tmp_path):
    # T = 40: the tilt drives |z| past 40 at the late steps
    out = _run_fresh(tmp_path, "sample", "--n", "10", "--beta", "0.25", "--seed", "3",
                     "--set", "sampler.L=800", "--set", "sampler.replicas=4")
    assert out.returncode == 0 and out.stderr == ""
    assert len((tmp_path / "r.out").read_text().strip().split("\n")) == 5


class TestConfigFromCli:
    def test_mixture_flag_replaces_default(self, tmp_path):
        out = tmp_path / "th3.json"
        assert run_cli("thresholds", "--mixture", '{"3": 1.0}', "--out", str(out)) == 0
        assert json.loads(out.read_text())["beta1"] == pytest.approx(0.9542650, abs=2e-4)
        paired = json.loads((tmp_path / "th3.json.config.json").read_text())
        assert paired["mixture"] == {"3": 1.0}

    def test_integer_key_rejects_integral_float(self, capsys):
        assert run_cli("sample", "--n", "4", "--set", "sampler.L=2.0") == 2
        assert "config field 'sampler/L': 2.0 is not of type 'integer'" in capsys.readouterr().err

    @pytest.mark.parametrize("sets", [[], ["--set", 'w2.batch_a="a.csv"']], ids=["none", "one"])
    def test_w2_needs_both_batches(self, capsys, sets):
        assert run_cli("w2", *sets) == 2
        assert "config field 'w2'" in capsys.readouterr().err


def test_amp_tensor_file_predicts_from_its_mixture(tmp_path):
    from glasslocal.state_evolution import se_recursion

    path = tmp_path / "m.gltn"
    mix = '{"2": 0.5, "3": 0.7}'
    assert run_cli("gen-disorder", "--mixture", mix, "--n", "8", "--out", str(path)) == 0
    out = tmp_path / "amp.csv"
    flags = ["--set", "amp.planted=false", "--set", "amp.k=4", "--beta", "0.4", "--out", str(out)]
    assert run_cli("amp", "--tensor-file", str(path), *flags) == 0
    prof = se_recursion(read_tensors(path).spec, 0.4, 1.0, 4 + 2)
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert [float(r[3]) for r in rows] == [1.0 - prof.q_sequence[int(r[0]) + 1] for r in rows]


class TestTensorFileMixture:
    """With a tensor file, the run's mixture is the file's: the echo holds it,
    and a given mixture that differs is a config error."""

    SAMPLE = ["--beta", "0.3", "--set", "sampler.L=3", "--set", "sampler.delta=0.25",
              "--set", "sampler.k_amp=3", "--set", "sampler.k_ngd=5"]

    @pytest.fixture()
    def path(self, tmp_path):
        path = tmp_path / "t.gltn"
        mix = '{"2": 0.5, "3": 0.7}'
        assert run_cli("gen-disorder", "--mixture", mix, "--n", "6", "--out", str(path)) == 0
        return path

    @pytest.mark.parametrize("kind", ["sample", "thresholds"])
    def test_echo_is_the_files_and_reruns(self, path, tmp_path, kind):
        out, again = tmp_path / "s.csv", tmp_path / "again.csv"
        assert run_cli(kind, "--tensor-file", str(path), *self.SAMPLE, "--out", str(out)) == 0
        echo = json.loads((tmp_path / "s.csv.config.json").read_text())
        assert echo["mixture"] == {"2": 0.5, "3": 0.7}
        echo["out"] = str(again)
        (tmp_path / "echo.json").write_text(json.dumps(echo))
        assert run_cli(kind, "--config", str(tmp_path / "echo.json")) == 0
        assert again.read_bytes() == out.read_bytes()

    def test_same_mixture_accepted(self, path, tmp_path):
        out = tmp_path / "s.csv"
        flags = ["--mixture", '{"3": 0.7, "2": 0.5, "4": 0.0}', "--out", str(out)]
        assert run_cli("sample", "--tensor-file", str(path), *self.SAMPLE, *flags) == 0

    def test_conflicting_mixture_rejected(self, path, tmp_path, capsys):
        out = tmp_path / "s.csv"
        flags = ["--mixture", '{"4": 1.0}', "--out", str(out)]
        assert run_cli("sample", "--tensor-file", str(path), *self.SAMPLE, *flags) == 2
        err = capsys.readouterr().err
        assert "config field 'mixture'" in err and "tensor file" in err
        assert not out.exists()

    SPEC_ONLY = {  # kinds that read only the mixture from a tensor file
        "thresholds": [],
        "se": ["--beta", "0.3", "--set", "se.t_max=0.25"],
        "chaos": ["--set", "chaos.s_list=[0.5]", "--set", "chaos.n_seeds=1",
                  "--set", "chaos.batch_size=10"],
        "stability": ["--set", "stability.s_list=[0.5]", "--set", "stability.n_seeds=1",
                      "--set", "stability.replicas=2", "--set", "sampler.L=3"],
    }

    @pytest.mark.parametrize("kind", sorted(SPEC_ONLY))
    def test_spec_only_kinds_reject_a_conflict(self, path, tmp_path, capsys, kind):
        out = tmp_path / "r.out"
        args = (kind, "--tensor-file", str(path), *self.SPEC_ONLY[kind], "--out", str(out))
        assert run_cli(*args, "--mixture", '{"2": 0.5}') == 2
        err = capsys.readouterr().err
        assert "config field 'mixture'" in err and "tensor file" in err
        assert not out.exists()
        assert run_cli(*args) == 0

    def test_no_default_mixture_beside_a_file(self):
        assert "mixture" not in resolve_config({"kind": "sample", "tensor_file": "t.gltn"})
        assert resolve_config({"kind": "sample"})["mixture"] == {"2": 0.5}


def test_se_one_fixed_point_per_row(tmp_path, monkeypatch):
    from glasslocal import cli, state_evolution

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return se_recursion(*args, **kwargs)

    se_recursion = state_evolution.se_recursion
    monkeypatch.setattr(state_evolution, "se_recursion", counted)
    monkeypatch.setattr(cli, "se_recursion", counted)
    out = tmp_path / "se.csv"
    assert run_cli("se", "--beta", "0.5", "--set", "se.t_max=1.0", "--out", str(out)) == 0
    assert len(calls) == len(out.read_text().strip().split("\n")) - 1 == 5
