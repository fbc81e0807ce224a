import json
import os

import numpy as np
import pytest

from nsvsim import cli, fields
from nsvsim.errors import ConfigurationError


class TestParseConfig:
    def test_defaults_valid(self):
        cfg = cli.parse_config(None, [])
        assert cfg.experiment == "simulate"

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "p = 2.5\n"
            "noise.family = linear\n"
            "noise.amplitude = 0.25\n"
            "steps = 100\n"
            "dt = 0.0025\n"
            "T = 0.25\n"
        )
        cfg = cli.parse_config(str(path), ["seed=7", "ic.kind=random"])
        assert cfg.p == 2.5
        assert cfg.noise_family == "linear"
        assert cfg.seed == 7
        assert cfg.ic_kind == "random"

    def test_newtonian_q3_accepted_at_alpha_zero(self):
        cfg = cli.parse_config(None, ["p=2", "q=3", "alpha=0"])
        assert cfg.q == 3.0

    def test_small_p_rejected(self):
        with pytest.raises(ConfigurationError, match="p > 1"):
            cli.parse_config(None, ["p=0.9"])

    def test_q_floor_arithmetic(self):
        # p = 1.5 gives p' = 3, so q must reach max(2p', 3) = 6
        with pytest.raises(ConfigurationError, match="= 6"):
            cli.parse_config(None, ["p=1.5", "alpha=0.1", "q=5"])
        cfg = cli.parse_config(None, ["p=1.5", "alpha=0.1", "q=6"])
        assert cfg.q == 6.0

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError, match="unknown config key"):
            cli.parse_config(None, ["viscosity=1"])

    def test_steps_dt_consistency(self):
        with pytest.raises(ConfigurationError, match="steps\\*dt"):
            cli.parse_config(None, ["steps=100", "dt=0.001", "T=0.5"])

    def test_gamma_floor(self):
        with pytest.raises(ConfigurationError, match="gamma"):
            cli.parse_config(None, ["gamma=1.5"])

    def test_missing_file(self):
        with pytest.raises(ConfigurationError, match="not found"):
            cli.parse_config("/nonexistent.cfg", [])

    def test_bad_boolean(self):
        with pytest.raises(ConfigurationError, match="boolean"):
            cli.parse_config(None, ["pin_mean=maybe"])


class TestInitialConditions:
    def test_presets(self):
        for kind in ("zero", "shear", "taylor_green", "random"):
            cfg = cli.parse_config(None, [f"ic.kind={kind}"])
            basis = cfg.basis()
            c = cli.initial_coefficients(cfg, basis)
            assert c.shape == (basis.n,)
            if kind == "zero":
                assert np.all(c == 0.0)
            else:
                assert basis.energy(c, cfg.kappa) == pytest.approx(cfg.ic_energy, rel=1e-10)

    def test_random_extends_under_span_growth(self):
        cfg = cli.parse_config(None, ["ic.kind=random", "ic.energy=0"])
        small = cli.initial_coefficients(cfg, cli.SimConfig(n_modes=16).basis())
        large = cli.initial_coefficients(cfg, cli.SimConfig(n_modes=32).basis())
        assert np.allclose(large[:16], small, rtol=0, atol=0)

    def test_pin_mean(self):
        cfg = cli.parse_config(None, ["pin_mean=true", "ic.kind=random"])
        basis = cfg.basis()
        assert np.all(basis.k2 > 0)


class TestExperiments:
    def test_simulate_zero_ic(self, tmp_path):
        cfg = cli.parse_config(None, [
            "experiment=simulate", "ic.kind=zero", "noise.family=off",
            "steps=20", "dt=0.0025", "T=0.05",
        ])
        report = cli.run_experiment(cfg, str(tmp_path))
        assert report.passed
        assert (tmp_path / "report.json").exists()
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["passed"] is True
        assert "wall_clock" not in payload
        assert all("name" in c and "details" in c for c in payload["criteria"])
        # zero data stays identically zero in the emitted trajectory
        lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        cols = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(cols, line.split(",")))
            assert float(row["l2"]) == 0.0 and float(row["energy"]) == 0.0

    def test_exit_codes(self, tmp_path, capsys):
        rc = cli.main([
            "simulate", "--out", str(tmp_path / "a"), "--seed", "3",
            "--override", "steps=10", "--override", "dt=0.005", "--override", "T=0.05",
        ])
        assert rc == 0
        rc = cli.main(["simulate", "--override", "p=0.5", "--out", str(tmp_path / "b")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "p > 1" in err

    def test_snapshot_artifact_round_trips(self, tmp_path):
        cfg = cli.parse_config(None, [
            "experiment=simulate", "ic.kind=shear", "steps=10", "dt=0.005", "T=0.05",
        ])
        cli.run_experiment(cfg, str(tmp_path))
        snap = fields.load_field(tmp_path / "fields" / "final_path0.bin")
        assert fields.divergence_error(snap) < 1e-12

    def test_forcing_file(self, tmp_path):
        cfg = cli.parse_config(None, ["ic.kind=shear", "steps=10", "dt=0.005", "T=0.05"])
        basis = cfg.basis()
        f = basis.scatter(cli.initial_coefficients(cfg, basis))
        snap = tmp_path / "force.bin"
        fields.save_field(snap, f)
        cfg2 = cli.parse_config(None, [
            "ic.kind=shear", "steps=10", "dt=0.005", "T=0.05",
            "forcing.kind=file", f"forcing.path={snap}",
        ])
        state = cli.make_state(cfg2, cfg2.basis())
        assert np.max(np.abs(state.forcing)) > 0.0


class TestReproducibility:
    ARGS = [
        "--paths", "2",
        "--override", "noise.family=linear", "--override", "noise.amplitude=0.5",
        "--override", "ic.kind=random", "--override", "steps=20",
        "--override", "dt=0.0025", "--override", "T=0.05",
    ]

    def _run(self, out, threads):
        env_before = os.environ.get("NSV_THREADS")
        os.environ["NSV_THREADS"] = str(threads)
        try:
            rc = cli.main(["simulate", "--out", str(out), "--seed", "99", *self.ARGS])
        finally:
            if env_before is None:
                os.environ.pop("NSV_THREADS", None)
            else:
                os.environ["NSV_THREADS"] = env_before
        assert rc == 0

    def test_byte_identical_outputs(self, tmp_path):
        self._run(tmp_path / "a", threads=1)
        self._run(tmp_path / "b", threads=1)
        self._run(tmp_path / "c", threads=4)
        for name in ("report.json", "trajectory.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            assert a == (tmp_path / "b" / name).read_bytes()
            assert a == (tmp_path / "c" / name).read_bytes()
        a = (tmp_path / "a" / "fields" / "final_path0.bin").read_bytes()
        assert a == (tmp_path / "c" / "fields" / "final_path0.bin").read_bytes()
