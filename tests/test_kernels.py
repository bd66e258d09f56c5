"""Backend parity for the direct RK4 stepper."""

import os
import subprocess
import sys

import numpy as np
import pytest

import dimer_nm
from dimer_nm import kernels, opalg
from dimer_nm.dynamics import liouvillian_matrix, rk4_transfer_matrix
from dimer_nm.harness import initial_state
from dimer_nm.model import ModelParams, apply_f, build_symmetric_model


def paper_model():
    return build_symmetric_model(apply_f(0.1, ModelParams.symmetric()))


def run_backend(stepper, model, rho0, dt, n_steps):
    jumps = [op for op, _ in model.jumps]
    rates = [rate for _, rate in model.jumps]
    return stepper(rho0, model.h_eff, jumps, rates, dt, n_steps)


class TestBackends:
    def test_reference_always_available(self):
        assert "reference" in kernels.available_backends()

    def test_backends_agree(self):
        model = paper_model()
        rho0 = initial_state(model)
        results = {
            name: run_backend(stepper, model, rho0, 1e-3, 500)
            for name, stepper in kernels.available_backends().items()
        }
        if len(results) < 2:
            pytest.skip("compiled backend not built")
        ref = results.pop("reference")
        for name, out in results.items():
            assert np.max(np.abs(out - ref)) <= 1e-12, name

    def test_deterministic(self):
        model = paper_model()
        rho0 = initial_state(model)
        for name, stepper in kernels.available_backends().items():
            a = run_backend(stepper, model, rho0, 1e-3, 200)
            b = run_backend(stepper, model, rho0, 1e-3, 200)
            assert np.array_equal(a, b), name

    def test_input_not_mutated(self):
        model = paper_model()
        rho0 = initial_state(model)
        snapshot = rho0.copy()
        for name, stepper in kernels.available_backends().items():
            out = run_backend(stepper, model, rho0, 1e-3, 50)
            assert np.array_equal(rho0, snapshot), name
            assert out is not rho0

    def test_single_step_matches_transfer_polynomial(self):
        # the stepper and the aggregated engine must implement the same
        # RK4 update; one step against P(dt) vec(rho) pins that down
        model = paper_model()
        rho0 = initial_state(model)
        dt = 1e-3
        p = rk4_transfer_matrix(liouvillian_matrix(model), dt)
        expect = opalg.unvec(p @ opalg.vec(rho0))
        for name, stepper in kernels.available_backends().items():
            out = run_backend(stepper, model, rho0, dt, 1)
            assert np.max(np.abs(out - expect)) <= 1e-13, name

    def test_no_jumps_is_unitary(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        rho0 = np.diag([0.0, 1.0]).astype(complex)
        for name, stepper in kernels.available_backends().items():
            out = stepper(rho0, h, [], [], 1e-3, 1000)
            assert abs(np.trace(out @ out).real - 1.0) < 1e-8, name
            assert out[1, 1].real == pytest.approx(np.cos(1.0) ** 2, abs=1e-6), name


class TestBackendSelection:
    def test_environment_forces_fallback(self):
        # the child imports the same dimer_nm as this process, installed or not
        pkg_root = os.path.dirname(os.path.dirname(dimer_nm.__file__))
        path = os.pathsep.join(p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, DIMER_NM_PURE_PYTHON="1", PYTHONPATH=path)
        out = subprocess.run(
            [sys.executable, "-c",
             "from dimer_nm import kernels; print(kernels.active_backend())"],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == "reference"

    def test_compiled_preferred_when_built(self):
        if "speedup" not in kernels.available_backends():
            pytest.skip("compiled backend not built")
        assert kernels.active_backend() == "speedup"
