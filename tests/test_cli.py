import dataclasses
import json
import math
import re
import struct
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nsvsim import cli, fields, galerkin, solvability
from nsvsim.errors import ConfigurationError, DivergenceError, ValidationError

from conftest import zero_field


def write_forcing_snapshots(directory, count: int) -> str:
    """``count`` distinct forcing snapshots f0.bin, f1.bin, ... with K = 2, enough
    for 16 modes on grid 16; returns their glob."""
    basis = galerkin.DivFreeBasis(16, 16)
    rng = np.random.default_rng(5)
    for i in range(count):
        table = basis.scatter(0.1 * rng.standard_normal(basis.n))
        fields.save_field(directory / f"f{i}.bin", fields.SpectralField(table, 16))
    return str(directory / "f*.bin")


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

    @pytest.mark.parametrize("pair", [
        "nu=nan", "kappa=inf", "alpha=nan", "ic.energy=nan", "noise.amplitude=inf",
    ])
    def test_non_finite_float_rejected(self, pair):
        key = pair.split("=")[0]
        with pytest.raises(ConfigurationError, match=f"^{key}: must be finite"):
            cli.parse_config(None, [pair])

    @pytest.mark.parametrize("pair", ["n_modes=abc", "seed=1.5", "dt=fast"])
    def test_unparsable_number_rejected(self, pair):
        key = pair.split("=")[0]
        with pytest.raises(ConfigurationError, match=f"^{key}: expected"):
            cli.parse_config(None, [pair])

    @pytest.mark.parametrize("pair", ["n_modes=abc", "nu=nan"])
    def test_bad_value_exits_2(self, pair, tmp_path, capsys):
        rc = cli.main(["simulate", "--override", pair, "--out", str(tmp_path)])
        assert rc == 2
        assert pair.split("=")[0] in capsys.readouterr().err


    @pytest.mark.parametrize("pair", ["ic.energy=-1", "monitor.threshold=-1"])
    def test_negative_energy_and_threshold_exit_2(self, pair, tmp_path, capsys):
        key = pair.split("=")[0]
        with pytest.raises(ConfigurationError, match=f"^{key}=-1.0 must be >= 0"):
            cli.parse_config(None, [pair])
        rc = cli.main(["simulate", "--override", pair, "--override", "steps=10",
                       "--override", "dt=0.005", "--override", "T=0.05", "--out", str(tmp_path)])
        assert rc == 2
        assert key in capsys.readouterr().err

    def test_huge_steps_rejected(self):
        with pytest.raises(ConfigurationError, match="^steps="):
            cli.parse_config(None, ["steps=1" + "0" * 400])

    @pytest.mark.parametrize("experiment, overrides", [
        ("simulate", ["n_modes=0"]),
        ("simulate", ["n_modes=443"]),
        ("simulate", ["pin_mean=true", "n_modes=441"]),
        ("moments", ["n_modes=300"]),
        ("simulate", ["grid_n=48"]),
        ("bogovskii", ["grid_n=2"]),
        ("simulate", ["noise.family=pink"]),
        ("simulate", ["noise.amplitude=-1"]),
        ("simulate", ["noise.modes=-1"]),
        ("simulate", ["steps=0", "T=0", "dt=-1"]),
        ("energy-audit", ["paths=2", "noise.family=linear", "noise.amplitude=0.5", "T=0", "steps=0"]),
        ("moments", ["paths=2", "T=0", "steps=0"]),
        ("uniqueness", ["paths=2", "T=0", "steps=0"]),
        ("alpha-sweep", ["q=4", "T=0", "steps=0"]),
        ("uniqueness", ["paths=2", "n_modes=2"]),
        ("uniqueness", ["paths=2", "n_modes=1"]),
        # pressure decomposes one path
        ("pressure", ["paths=2"]),
        # above sqrt(float max) the decay constant c^2 has no float value
        ("propcheck", ["noise.family=linear", "noise.amplitude=1.35e154"]),
        ("simulate", ["noise.family=linear", "noise.amplitude=1.35e154"]),
        # below it, the trace constant sum_k (c/k^2)^2 of 8 modes overflows from about 1.2891e154
        ("propcheck", ["noise.family=linear", "noise.amplitude=1.3e154"]),
    ], ids=lambda v: ",".join(v) if isinstance(v, list) else v)
    def test_config_error_names_its_key_before_any_work(self, experiment, overrides, tmp_path, capsys):
        key = overrides[-1].split("=")[0]
        args = [a for kv in ["steps=10", "dt=0.005", "T=0.05", *overrides] for a in ("--override", kv)]
        rc = cli.main([experiment, *args, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("amplitude", ["1.28e154", "1.289e154"])
    def test_propcheck_stays_finite_at_an_admitted_amplitude(self, amplitude, tmp_path):
        # just below the trace constant's overflow: the envelope check and both
        # samplers scale ratios of order one by the constants, so every margin
        # and constant is finite, and the decay envelope and coercivity hold
        cfg = cli.parse_config(None, ["experiment=propcheck", "noise.family=linear",
                                      f"noise.amplitude={amplitude}", "grid_n=16", "n_modes=16"])
        report = cli.run_experiment(cfg, str(tmp_path))
        for crit in report.criteria:
            assert not re.search(r"\b(nan|inf)\b", crit.details), crit
        assert all(math.isfinite(value) for value in report.metrics.values()), report.metrics
        passed = {crit.name: crit.passed for crit in report.criteria}
        assert passed["noise growth/Lipschitz/decay envelopes hold"]
        assert passed["weak coercivity margin nonnegative"]

    @pytest.mark.parametrize("overrides", [
        ["experiment=simulate", "T=0", "steps=0"],
        ["experiment=pressure", "T=0", "steps=0"],
        ["experiment=uniqueness", "n_modes=3"],
        ["experiment=uniqueness", "pin_mean=true", "n_modes=1"],
        ["noise.family=linear", "noise.amplitude=1.28e154"],
        ["experiment=alpha-sweep", "q=4"],
    ], ids=",".join)
    def test_the_bounds_admit_their_edge(self, overrides):
        cli.parse_config(None, overrides)

    def test_alpha_sweep_checks_its_damped_legs_up_front(self):
        # the sweep runs alpha > 0, which needs q >= max(2p', 3) = 4 at p = 2,
        # whatever the config's own alpha: rejected before the alpha = 0 leg runs
        with pytest.raises(ConfigurationError, match=r"^damping exponent q=3\.0 < max\(2p', 3\) = 4\.0"):
            cli.parse_config(None, ["experiment=alpha-sweep"])

    VALUES = st.one_of(
        st.text(max_size=12),
        st.integers().map(str),
        st.integers(min_value=10**300, max_value=10**600).map(str),
        st.floats().map(repr),
        st.sampled_from(["", "-1", "0", "1e400", "-0.0", "true", "off", "linear", "zero",
                         "energy-audit", "moments", "48", "443"]),
    )

    @pytest.mark.parametrize("key", sorted(cli._KEY_MAP))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=VALUES, more=st.lists(st.tuples(st.sampled_from(sorted(cli._KEY_MAP)), VALUES), max_size=2))
    def test_parse_fuzz(self, key, value, more):
        # 1-3 pairs parse or the rejection names one of the drawn keys; nothing
        # is built or run, since a valid huge n_modes, grid_n, noise.modes or
        # paths would allocate or loop at run time
        pairs = [(key, value), *more]
        try:
            cli.parse_config(None, [f"{k}={v}" for k, v in pairs])
        except (ConfigurationError, ValidationError) as exc:
            named = [k for k, _ in pairs if re.search(rf"(?<![\w.]){re.escape(k)}(?![\w.])", str(exc))]
            assert named, f"{exc} names none of {[k for k, _ in pairs]}"

    def test_config_keys_are_pinned(self):
        # the keys derive from the SimConfig fields, so renaming a field would
        # rename its key; this list is the user-facing surface
        assert sorted(cli._KEY_MAP) == [
            "T", "alpha", "convection", "dt", "experiment", "forcing.kind", "forcing.path",
            "gamma", "grid_n", "ic.energy", "ic.kind", "kappa", "monitor.threshold",
            "n_modes", "noise.amplitude", "noise.family", "noise.modes", "nu", "p", "paths",
            "pin_mean", "q", "seed", "steps",
        ]

    def test_config_echo_round_trips(self, tmp_path):
        # a non-default value of every type: float, int, str and bool
        cfg = cli.parse_config(None, [
            "p=2.5", "nu=0.1", "n_modes=16", "grid_n=16", "steps=10", "dt=0.005", "T=0.05",
            "noise.family=saturating", "noise.amplitude=0.25", "ic.kind=random",
            "experiment=moments", "paths=3", "pin_mean=true", "convection=false",
            "monitor.threshold=3.5",
        ])
        assert cfg != cli.SimConfig()
        path = tmp_path / "echo.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in cli.config_echo(cfg).items()))
        assert cli.parse_config(str(path)) == cfg


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
        f = fields.SpectralField(basis.scatter(cli.initial_coefficients(cfg, basis)), basis.grid_size)
        snap = tmp_path / "force.bin"
        fields.save_field(snap, f)
        cfg2 = cli.parse_config(None, [
            "ic.kind=shear", "steps=10", "dt=0.005", "T=0.05",
            "forcing.kind=file", f"forcing.path={snap}",
        ])
        assert np.max(np.abs(cli.forcing_coefficients(cfg2, cfg2.basis()))) > 0.0

    @pytest.mark.parametrize("kind", ["missing", "directory", "empty glob", "corrupt",
                                      "header grid 48", "header grid 8 at K 10"])
    def test_unreadable_forcing_file_exits_2(self, kind, tmp_path, capsys):
        path = tmp_path if kind == "directory" else tmp_path / "absent.bin"
        if kind == "corrupt":
            path = tmp_path / "bad.bin"
            path.write_text("garbage text\n")   # 13 bytes, no snapshot magic
        if kind.startswith("header"):
            # a snapshot whose header N is not a grid for its K: not a power of
            # two, or below 2K + 2
            path = tmp_path / "grid.bin"
            k_max, n = (2, 48) if kind == "header grid 48" else (10, 8)
            fields.save_field(path, zero_field(k_max, 32))
            data = bytearray(path.read_bytes())
            struct.pack_into("<I", data, 8, n)
            path.write_bytes(bytes(data))
        forcing_kind = "files" if kind == "empty glob" else "file"
        overrides = ["steps=10", "dt=0.005", "T=0.05", f"forcing.kind={forcing_kind}", f"forcing.path={path}"]
        cfg = cli.parse_config(None, overrides)
        with pytest.raises(ConfigurationError, match="^forcing.path"):
            cli.forcing_coefficients(cfg, cfg.basis())
        args = [a for ov in overrides for a in ("--override", ov)]
        rc = cli.main(["simulate", *args, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "forcing.path" in err
        if kind == "corrupt":
            assert str(path) in err and "bad snapshot magic" in err
        if kind.startswith("header"):
            assert str(path) in err and "bad snapshot header" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment, n_modes", [("simulate", 32), ("moments", 8)])
    def test_truncated_forcing_snapshot_exits_2(self, experiment, n_modes, tmp_path, capsys):
        # a K = 1 snapshot lies below k_max = 3 of 32 modes; 8 modes fit it, but
        # moments' doubled basis of 16 modes has k_max = 2
        snap = tmp_path / "coarse.bin"
        fields.save_field(snap, zero_field(1, 32))
        overrides = ["steps=4", "dt=0.005", "T=0.02", "paths=2", f"n_modes={n_modes}",
                     "forcing.kind=file", f"forcing.path={snap}"]
        rc = cli.main([experiment, *(a for ov in overrides for a in ("--override", ov)),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "forcing.path" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_hermitian_forcing_snapshot_exits_2(self, tmp_path, capsys):
        # the (1, -1) entry is not the conjugate of (-1, 1): the snapshot is not
        # the table of a real field, and its ky < 0 half would be lost unseen
        snap = tmp_path / "forcing.bin"
        basis = galerkin.DivFreeBasis(32, 32)
        table = basis.scatter(0.1 * np.random.default_rng(5).standard_normal(basis.n))
        fields.save_field(snap, fields.SpectralField(table, 32))
        raw = bytearray(snap.read_bytes())
        offset = 16 + 32 * fields.mode_table(basis.k_max).index((1, -1))
        raw[offset:offset + 8] = (np.frombuffer(raw[offset:offset + 8], "<f8") + 0.05).tobytes()
        snap.write_bytes(bytes(raw))
        overrides = ["steps=4", "dt=0.005", "T=0.02", "forcing.kind=file", f"forcing.path={snap}"]
        rc = cli.main(["simulate", *(a for ov in overrides for a in ("--override", ov)),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "forcing.path" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    FORCED = ["paths=3", "grid_n=16", "n_modes=8", "steps=4", "dt=0.005", "T=0.02", "ic.kind=random",
              "forcing.kind=files"]

    def test_propcheck_checks_coercivity_against_the_configured_forcing(self, tmp_path, monkeypatch, capsys):
        # propcheck builds its system like every experiment: with fewer
        # snapshots than steps it stops before any work, naming forcing.path,
        # and with enough, coercivity reads the first snapshot's forcing
        forcing = write_forcing_snapshots(tmp_path, 3)
        sweep = cli.monotonicity_sweep
        monkeypatch.setattr(cli, "monotonicity_sweep", lambda *args, **kwargs: pytest.fail("the run started"))
        overrides = [*self.FORCED, f"forcing.path={forcing}"]
        rc = cli.main(["propcheck", *(a for ov in overrides for a in ("--override", ov)),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "forcing.path" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        monkeypatch.setattr(cli, "monotonicity_sweep", sweep)
        coercivity, seen = solvability.check_coercivity, []

        def recording(system, *args, **kwargs):
            seen.append(system.forcing)
            return coercivity(system, *args, **kwargs)

        monkeypatch.setattr(solvability, "check_coercivity", recording)
        write_forcing_snapshots(tmp_path, 4)
        cfg = cli.parse_config(None, ["experiment=propcheck", *overrides])
        cli.run_experiment(cfg, str(tmp_path / "out"))
        [f] = seen
        assert np.array_equal(f, cli.forcing_coefficients(cfg, cfg.basis())) and np.any(f[0] != 0.0)

    def test_moments_reads_the_forcing_once_per_leg(self, tmp_path, monkeypatch):
        # 4 snapshots for the base leg and 4 for the doubled basis, however many paths
        forcing = write_forcing_snapshots(tmp_path, 4)
        load, loads = fields.load_field, []
        monkeypatch.setattr(fields, "load_field", lambda path: loads.append(path) or load(path))
        cfg = cli.parse_config(None, ["experiment=moments", *self.FORCED, f"forcing.path={forcing}",
                                      "noise.family=linear", "noise.amplitude=0.5", "noise.modes=4"])
        cli.run_experiment(cfg, str(tmp_path / "out"))
        assert len(loads) == 8

    @pytest.mark.parametrize("experiment", ["uniqueness", "energy-audit"])
    def test_dt_halving_leg_holds_each_forcing_snapshot_for_two_fine_steps(
            self, experiment, tmp_path, monkeypatch, capsys):
        # steps snapshots serve both legs: fine steps 2i and 2i + 1 see coarse step i's
        forcing = write_forcing_snapshots(tmp_path, 4)
        original, seen = cli.run, {}

        def recording(system, *args, **kwargs):
            seen[system.dt] = system.forcing
            return original(system, *args, **kwargs)

        monkeypatch.setattr(cli, "run", recording)
        overrides = [*self.FORCED, f"forcing.path={forcing}"]
        rc = cli.main([experiment, *(a for ov in overrides for a in ("--override", ov)),
                       "--out", str(tmp_path / "out")])
        assert rc == 0, capsys.readouterr()
        steps = np.arange(8)
        assert np.array_equal(galerkin.forcing_at(seen[0.0025], steps),
                              galerkin.forcing_at(seen[0.005], steps // 2))

    def test_simulate_drops_every_path_but_the_first(self, tmp_path, monkeypatch):
        # path 0 feeds the outputs; the paths run in stacks of one kernel
        # chunk, and any other path's trajectory is gone before the next
        # stack starts
        per_call = galerkin.states_per_call(32)
        original = cli.run
        refs = {}
        alive_at_start = {}

        def tracked(system, c0, lineages, *args, **kwargs):
            alive_at_start[lineages[0][1]] = sorted(p for p, ref in refs.items() if ref() is not None)
            results = original(system, c0, lineages, *args, **kwargs)
            refs.update((path, weakref.ref(traj)) for (_, path), traj in zip(lineages, results))
            return results

        monkeypatch.setattr(cli, "run", tracked)
        cfg = cli.parse_config(None, [
            "experiment=simulate", f"paths={2 * per_call + 1}", "ic.kind=random", "grid_n=32",
            "n_modes=16", "steps=4", "dt=0.005", "T=0.02",
        ])
        report = cli.run_experiment(cfg, str(tmp_path))
        assert report.passed
        assert alive_at_start == {0: [], per_call: [0], 2 * per_call: [0]}

    def test_propcheck_samples_the_configured_convection(self, tmp_path):
        # without convection the sampled drift and the envelope both lose the
        # convective term, so the monotonicity margin falls
        margins = {}
        for flag in ("true", "false"):
            cfg = cli.parse_config(None, [
                "experiment=propcheck", f"convection={flag}", "grid_n=16", "n_modes=16"])
            report = cli.run_experiment(cfg, str(tmp_path / flag))
            crit = next(c for c in report.criteria if c.name == "weak monotonicity margin nonnegative")
            margins[flag] = float(re.search(r"worst margin = (\S+),", crit.details).group(1))
        assert margins["false"] < margins["true"]

    @pytest.mark.parametrize("convection, criterion", [
        ("true", "weak coercivity margin nonnegative"),
        ("false", "weak monotonicity margin nonnegative"),
    ])
    def test_propcheck_solvability_fails_on_a_sign_flipped_stress(
            self, convection, criterion, tmp_path, monkeypatch):
        # -A in the kernel feeds energy in at the rate nu ||D u||_p^p; the
        # convective part of the monotonicity envelope covers that, so that
        # criterion is checked with convection off
        stress = galerkin.power_law_stress
        monkeypatch.setattr(galerkin, "power_law_stress", lambda *args, **kw: -stress(*args, **kw))
        cfg = cli.parse_config(None, [
            "experiment=propcheck", f"convection={convection}", "grid_n=16", "n_modes=16"])
        report = cli.run_experiment(cfg, str(tmp_path))
        crit = next(c for c in report.criteria if c.name == criterion)
        assert not crit.passed and not report.passed

    def test_bogovskii_ratio_criterion_fails_above_bound(self, tmp_path, monkeypatch):
        def zeros(xis, n):
            return np.zeros((len(xis), 2, n, n))

        monkeypatch.setattr(cli.pressure, "bogovskii_solve_batch", zeros)
        monkeypatch.setattr(cli.pressure, "gradient_ratio", lambda prob, w: 11.0)
        cfg = cli.parse_config(None, ["experiment=bogovskii"])
        report = cli.run_experiment(cfg, str(tmp_path))
        crit = next(c for c in report.criteria if c.name.startswith("gradient/source ratio"))
        assert not crit.passed
        assert "11.0000 < 10.0" in crit.details


    NOISY_AUDIT = [
        "--override", "noise.family=linear", "--override", "noise.amplitude=0.5",
        "--override", "steps=20", "--override", "dt=0.0025", "--override", "T=0.05",
    ]

    def test_energy_audit_one_noisy_path_rejected(self, tmp_path, capsys):
        # one path has no standard error, so the 3-SE criterion would pass vacuously
        rc = cli.main(["energy-audit", "--paths", "1", "--out", str(tmp_path), *self.NOISY_AUDIT])
        assert rc == 2
        assert "paths" in capsys.readouterr().err
        assert cli.parse_config(None, ["experiment=energy-audit", "paths=1"]).paths == 1

    def test_moments_one_path_rejected(self, tmp_path, capsys):
        # one path has no standard error, so the stability criteria would
        # divide by the SE floor
        rc = cli.main(["moments", "--paths", "1", "--out", str(tmp_path / "out"), *self.NOISY_AUDIT])
        assert rc == 2
        assert "paths" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_energy_audit_fails_without_the_ito_correction(self, tmp_path, capsys, monkeypatch):
        # with the trace term dropped the residual has mean -(Ito correction),
        # far outside 3 SE at the criterion-05 config
        monkeypatch.setattr(cli.NoiseModel, "trace_const", property(lambda self: 0.0))
        rc = cli.main(["energy-audit", "--paths", "8", "--seed", "1000", "--out", str(tmp_path), *(
            f"--override={kv}" for kv in (
                "nu=0.5", "p=2.5", "noise.family=linear", "noise.amplitude=0.5", "noise.modes=8",
                "ic.kind=random", "steps=100", "dt=0.0025", "T=0.25"))])
        assert rc == 1
        payload = json.loads((tmp_path / "report.json").read_text())
        [crit] = payload["criteria"]
        assert crit["name"].startswith("mean ledger residual within 3 SE") and not crit["passed"]
        assert payload["metrics"]["max_z"] > 3.0
        assert "[FAIL] mean ledger residual" in capsys.readouterr().out

    DETERMINISTIC_AUDIT = [
        "experiment=energy-audit", "nu=1", "p=1.5", "ic.kind=random", "grid_n=16", "n_modes=16",
        "steps=10", "dt=0.005", "T=0.05",
    ]

    @pytest.mark.parametrize("ratio", [0.35, 0.65])
    def test_energy_audit_halving_ratio_gated_on_0_4_to_0_6(self, ratio, tmp_path, monkeypatch):
        # the dt leg's residuals sum to 1 and the dt/2 leg's to ratio
        original = cli.analysis.ledger_from_trajectory

        def patched(traj):
            ledger = original(traj)
            residual = np.zeros_like(ledger.residual)
            residual[0] = ratio if traj.system.dt < 0.005 else 1.0
            return dataclasses.replace(ledger, residual=residual)

        monkeypatch.setattr(cli.analysis, "ledger_from_trajectory", patched)
        report = cli.run_experiment(cli.parse_config(None, self.DETERMINISTIC_AUDIT), str(tmp_path))
        crit = next(c for c in report.criteria if c.name == "residual halves under dt-halving")
        assert not crit.passed and crit.details == f"ratio = {ratio:.4f} in [0.4, 0.6]"

    def test_noise_off_energy_audit_forms_one_ledger_per_leg(self, tmp_path, monkeypatch):
        original = cli.analysis.ledger_from_trajectory
        steps = []

        def counted(traj):
            steps.append(traj.n_steps)
            return original(traj)

        monkeypatch.setattr(cli.analysis, "ledger_from_trajectory", counted)
        cli.run_experiment(cli.parse_config(None, self.DETERMINISTIC_AUDIT), str(tmp_path))
        assert sorted(steps) == [10, 20]

    def test_energy_audit_energy_law_checks_the_fine_leg(self, tmp_path, monkeypatch):
        # the dt/2 leg's last state gains energy; the dt leg is untouched
        original = cli.run

        def rising_fine_leg(system, c0, lineages, T, **kwargs):
            results = original(system, c0, lineages, T, **kwargs)
            if system.dt < 0.005:
                results[0].coeffs[-1] *= 2.0
            return results

        monkeypatch.setattr(cli, "run", rising_fine_leg)
        report = cli.run_experiment(cli.parse_config(None, self.DETERMINISTIC_AUDIT), str(tmp_path))
        crit = next(c for c in report.criteria if c.name == "energy nonincreasing")
        assert not crit.passed and crit.details.endswith("at dt and dt/2: [True, False]")

    def test_divergence_reports_failed_criterion(self, tmp_path, capsys):
        with pytest.warns(UserWarning, match="unstable"), np.errstate(all="ignore"):
            rc = cli.main([
                "simulate", "--out", str(tmp_path), "--override", "ic.kind=random",
                "--override", "ic.energy=1e8", "--override", "dt=0.025",
                "--override", "steps=20", "--override", "T=0.5",
            ])
        assert rc == 1
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["passed"] is False
        [crit] = payload["criteria"]
        assert not crit["passed"] and crit["details"] == "nonfinite state detected at step 8 of path 0"
        assert payload["metrics"]["divergence_step"] == 8
        assert payload["metrics"]["divergence_path"] == 0
        assert "[FAIL]" in capsys.readouterr().out


    def test_moments_excluded_path_fails(self, tmp_path, capsys, monkeypatch):
        original = cli.run

        def diverge_path_one(system, c0, lineages, T, **kwargs):
            results = original(system, c0, lineages, T, **kwargs)
            return [DivergenceError(3, 1) if path == 1 else traj for (_, path), traj in zip(lineages, results)]

        monkeypatch.setattr(cli, "run", diverge_path_one)
        rc = cli.main([
            "moments", "--paths", "4", "--out", str(tmp_path),
            *(f"--override={kv}" for kv in (
                "p=2", "q=4", "alpha=0.125", "grid_n=16", "n_modes=16", "steps=20",
                "dt=0.0025", "T=0.05", "noise.family=linear", "noise.amplitude=0.5",
                "noise.modes=6", "ic.kind=random")),
        ])
        assert rc == 1
        payload = json.loads((tmp_path / "report.json").read_text())
        crit = next(c for c in payload["criteria"] if c["name"] == "no divergent path excluded")
        assert not crit["passed"]
        assert crit["details"] == "base: 1 of 4, mode doubling: 1 of 4, alpha halving: 1 of 4"
        assert "[FAIL] no divergent path excluded" in capsys.readouterr().out

    @pytest.mark.parametrize("gamma", [2, 4])
    def test_moments_bound_holds_with_unequal_initial_energies(self, tmp_path, gamma):
        # unnormalised random starts: path 0 holds 0.28 of the mean E(0), so a
        # bound read at path 0's E(0) alone falls below the estimate
        cfg = cli.parse_config(None, [
            "experiment=moments", "paths=16", "ic.kind=random", "ic.energy=0", "noise.family=linear",
            "noise.amplitude=0.5", "steps=20", "dt=0.0025", "T=0.05", "grid_n=16", "n_modes=16",
            "seed=11", f"gamma={gamma}"])
        report = cli.run_experiment(cfg, str(tmp_path))
        crit = next(c for c in report.criteria if c.name == "sup-energy moment within explicit bound")
        assert crit.passed, crit.details

    def test_moments_mode_doubling_fails_on_a_scaled_doubled_basis(self, tmp_path, monkeypatch):
        # sqrt(2) times the initial field on the doubled basis only doubles
        # the sup energy there, far outside 2 SE of the base leg
        original = cli.initial_coefficients

        def scaled_on_doubled_basis(cfg, basis, path=0):
            c = original(cfg, basis, path)
            return np.sqrt(2.0) * c if basis.n == 32 else c   # n_modes = 16, doubled

        monkeypatch.setattr(cli, "initial_coefficients", scaled_on_doubled_basis)
        cfg = cli.parse_config(None, [
            "experiment=moments", "paths=8", "seed=7", "grid_n=16", "n_modes=16", "steps=20",
            "dt=0.0025", "T=0.05", "p=2", "q=4", "alpha=0.125", "noise.family=linear",
            "noise.amplitude=0.5", "noise.modes=6", "ic.kind=random"])
        report = cli.run_experiment(cfg, str(tmp_path))
        crit = next(c for c in report.criteria if c.name == "sup energy stable under mode doubling")
        assert not crit.passed and not report.passed

    def test_moments_alpha_halving_fails_on_a_scaled_half_alpha_leg(self, tmp_path, monkeypatch):
        # sqrt(2) times the initial field on the alpha/2 leg only doubles its
        # sup energy and its gradient integral, far outside 2 SE of the base leg
        original = cli.initial_coefficients

        def scaled_at_half_alpha(cfg, basis, path=0):
            c = original(cfg, basis, path)
            return np.sqrt(2.0) * c if cfg.alpha == 0.0625 else c   # alpha = 0.125, halved

        monkeypatch.setattr(cli, "initial_coefficients", scaled_at_half_alpha)
        cfg = cli.parse_config(None, [
            "experiment=moments", "paths=8", "seed=7", "grid_n=16", "n_modes=16", "steps=20",
            "dt=0.0025", "T=0.05", "p=2", "q=4", "alpha=0.125", "noise.family=linear",
            "noise.amplitude=0.5", "noise.modes=6", "ic.kind=random"])
        report = cli.run_experiment(cfg, str(tmp_path))
        assert [c.name for c in report.criteria if not c.passed] == [
            "sup energy stable under alpha halving", "gradient p-integral stable under alpha halving"]

    def test_moments_every_path_diverged_reports_the_lowest_index_path(self, tmp_path, monkeypatch):
        # each path diverges at a step that falls with its index, so the last
        # path of each stack diverges first; the report names path 0
        original = cli.run

        def diverge_all(system, c0, lineages, T, **kwargs):
            original(system, c0, lineages, T, **kwargs)
            return [DivergenceError(10 - path, path) for _, path in lineages]

        monkeypatch.setattr(cli, "run", diverge_all)
        cfg = cli.parse_config(None, [
            "experiment=moments", "paths=6", "grid_n=32", "n_modes=16", "steps=4", "dt=0.005",
            "T=0.02", "noise.family=linear", "noise.amplitude=0.5", "noise.modes=6", "ic.kind=random"])
        report = cli.run_experiment(cfg, str(tmp_path))
        assert [(c.name, c.details) for c in report.criteria] == [
            ("states stay finite", "nonfinite state detected at step 10 of path 0")]
        assert report.metrics == {"divergence_step": 10, "divergence_path": 0}

    def test_uniqueness_fails_on_a_nan_twin_ratio(self, tmp_path, monkeypatch):
        # only the perturbed legs run path 8 (the identical twins run paths
        # 0-7); its NaN ratio makes the Gronwall constant NaN at dt and dt/2
        original = cli.run

        def nan_path_8(system, c0, lineages, T, **kwargs):
            results = original(system, c0, lineages, T, **kwargs)
            for (_, path), traj in zip(lineages, results):
                if path == 8:
                    traj.coeffs[-1] = np.nan
            return results

        monkeypatch.setattr(cli, "run", nan_path_8)
        cfg = cli.parse_config(None, [
            "experiment=uniqueness", "paths=9", "grid_n=16", "n_modes=16", "steps=10", "dt=0.005",
            "T=0.05", "noise.family=linear", "noise.amplitude=0.5", "noise.modes=6", "ic.kind=random"])
        report = cli.run_experiment(cfg, str(tmp_path))
        assert [c.name for c in report.criteria if not c.passed] == [
            "weighted Gronwall constant stable under dt-halving"]
        assert np.isnan(report.metrics["per_path_max_ratio"])

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        # report.json stays strict JSON: each NaN is written as null
        payload = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
        for key in ("gronwall_constant", "gronwall_constant_half_dt", "per_path_max_ratio"):
            assert payload["metrics"][key] is None

    @pytest.mark.parametrize("criterion, entries", [
        # u_x at k = (1, 0) and at its conjugate (-1, 0): real, but k.u != 0
        ("reconstruction divergence-free", [(0, 1, 0), (0, -1, 0)]),
        # u_y at k = (1, 0) without its conjugate (-1, 0): solenoidal, but not
        # real; the ky = 0 column is the only place where a table holds both
        ("reconstruction real-valued", [(1, 1, 0)]),
    ])
    def test_simulate_reconstruction_check_fails_on_a_corrupted_field(
            self, criterion, entries, tmp_path, monkeypatch):
        field_at = galerkin.Trajectory.field_at

        def corrupted(traj, i):
            f = field_at(traj, i)
            for comp, kx, ky in entries:
                f.coeffs[comp, f.k_max + kx, ky] += 1.0
            return f

        monkeypatch.setattr(galerkin.Trajectory, "field_at", corrupted)
        cfg = cli.parse_config(None, [
            "experiment=simulate", "ic.kind=random", "grid_n=16", "n_modes=16", "steps=4", "dt=0.005", "T=0.02"])
        report = cli.run_experiment(cfg, str(tmp_path))
        assert [c.name for c in report.criteria if not c.passed] == [criterion]

    def test_pressure_stochastic_part_needs_a_nonlinear_shape(self, tmp_path):
        # shape(u) = u is divergence-free, so the linear family's stochastic
        # pressure is roundoff; the saturating family's is not
        pi_phi = {}
        for family in ("linear", "saturating"):
            cfg = cli.parse_config(None, [
                "experiment=pressure", "p=2.5", "q=4", "alpha=0.1", "grid_n=16", "n_modes=16",
                "steps=20", "dt=0.0025", "T=0.05", "seed=2024", f"noise.family={family}",
                "noise.amplitude=0.5", "noise.modes=6", "ic.kind=random",
            ])
            out = tmp_path / family
            report = cli.run_experiment(cfg, str(out))
            assert report.passed
            doubling = next(c for c in report.criteria if c.name.startswith("stochastic part doubles"))
            assert doubling.passed
            lines = (out / "pressure.csv").read_text().strip().splitlines()
            col = lines[0].split(",").index("pi_phi_l2")
            pi_phi[family] = max(float(line.split(",")[col]) for line in lines[1:])
        assert pi_phi["linear"] < 1e-14
        assert pi_phi["saturating"] > 1e-6


class TestReproducibility:
    ARGS = [
        "--paths", "2",
        "--override", "noise.family=linear", "--override", "noise.amplitude=0.5",
        "--override", "ic.kind=random", "--override", "steps=20",
        "--override", "dt=0.0025", "--override", "T=0.05",
    ]

    def _run(self, out):
        rc = cli.main(["simulate", "--out", str(out), "--seed", "99", *self.ARGS])
        assert rc == 0

    def test_byte_identical_outputs(self, tmp_path):
        self._run(tmp_path / "a")
        self._run(tmp_path / "b")
        for name in ("report.json", "trajectory.csv", "fields/final_path0.bin"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
