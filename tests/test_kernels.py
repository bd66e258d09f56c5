"""The density-matrix RK4 stepper on the aggregated engine, and scipy
staying out of import."""

import os
import subprocess
import sys

import numpy as np
import pytest

import dimer_nm
from dimer_nm import kernels, opalg
from dimer_nm.dynamics import MAX_SUPEROP_DIM, liouvillian_matrix, rk4_transfer_matrix
from dimer_nm.errors import DimensionError
from dimer_nm.harness import initial_state
from dimer_nm.model import ModelParams, apply_f, build_symmetric_model


def paper_model():
    return build_symmetric_model(apply_f(0.1, ModelParams.symmetric()))


def run_backend(stepper, model, rho0, dt, n_steps):
    jumps = [op for op, _ in model.jumps]
    rates = [rate for _, rate in model.jumps]
    return stepper(rho0, model.h_eff, jumps, rates, dt, n_steps)


class TestBackends:
    def test_aggregated_is_the_only_backend(self):
        assert kernels.active_backend() == "aggregated"
        assert kernels.available_backends() == {"aggregated": kernels.rk4_lindblad_steps}

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
        # the stepper takes the RK4 update of the transfer polynomial;
        # one step against P(dt) vec(rho) pins that down
        model = paper_model()
        rho0 = initial_state(model)
        dt = 1e-3
        p = rk4_transfer_matrix(liouvillian_matrix(model), dt)
        expect = opalg.unvec(p @ opalg.vec(rho0))
        for name, stepper in kernels.available_backends().items():
            out = run_backend(stepper, model, rho0, dt, 1)
            assert np.max(np.abs(out - expect)) <= 1e-13, name

    def test_many_steps_are_a_power_of_the_transfer_polynomial(self):
        model = paper_model()
        rho0 = initial_state(model)
        dt = 1e-3
        p = rk4_transfer_matrix(liouvillian_matrix(model), dt)
        expect = opalg.unvec(np.linalg.matrix_power(p, 200) @ opalg.vec(rho0))
        for name, stepper in kernels.available_backends().items():
            out = run_backend(stepper, model, rho0, dt, 200)
            assert np.max(np.abs(out - expect)) <= 1e-13, name

    def test_dimension_past_the_superoperator_guard(self):
        d = MAX_SUPEROP_DIM + 1
        rho0 = np.eye(d, dtype=complex) / d
        for name, stepper in kernels.available_backends().items():
            with pytest.raises(DimensionError):
                stepper(rho0, np.zeros((d, d), dtype=complex), [], [], 1e-3, 1)

    def test_no_jumps_is_unitary(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        rho0 = np.diag([0.0, 1.0]).astype(complex)
        for name, stepper in kernels.available_backends().items():
            out = stepper(rho0, h, [], [], 1e-3, 1000)
            assert abs(np.trace(out @ out).real - 1.0) < 1e-8, name
            assert out[1, 1].real == pytest.approx(np.cos(1.0) ** 2, abs=1e-6), name


class TestImport:
    def test_no_scipy_until_a_sparse_path_runs(self):
        # scipy costs start-up time and resident memory, so importing the
        # package and running small dense work (the memory measure of the
        # symmetric model, alone and as a stacked sweep, and a 50-step
        # trace on the engine the dimension picks, included) must not
        # load it; nor may importing the package or a sweep that runs in
        # one process load multiprocessing. A direct-engine trace loads
        # scipy.sparse and not scipy.sparse.linalg
        pkg_root = os.path.dirname(os.path.dirname(dimer_nm.__file__))
        path = os.pathsep.join(p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p)
        script = (
            "import sys\n"
            "def loaded(top='scipy'):\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == top)\n"
            "import dimer_nm\n"
            "from dimer_nm import cli, kernels\n"
            "from dimer_nm.harness import initial_state\n"
            "from dimer_nm.model import ModelParams, apply_f, build_symmetric_model\n"
            "from dimer_nm.nonmarkov import map_tomography, nm_measure, nm_sweep\n"
            "print(loaded(), loaded('multiprocessing'))\n"
            "m = build_symmetric_model(apply_f(0.1, ModelParams.symmetric()))\n"
            "dimer_nm.steady_state(m)\n"
            "dimer_nm.integrate(m, initial_state(m), 1.0, method='aggregated')\n"
            "nm_measure(map_tomography(m, 0.05, 2.0))\n"
            "fs = (0.1, 1.0, 3.6554)\n"
            "ms = [build_symmetric_model(apply_f(f, ModelParams.symmetric())) for f in fs]\n"
            "assert nm_sweep(ms[:1], 0.05, 6.0)[0].d_nm >= 0.0\n"
            "print(loaded('multiprocessing'))\n"
            "assert all(r.d_nm >= 0.0 for r in nm_sweep(ms, 0.05, 6.0))\n"
            "dimer_nm.integrate(m, initial_state(m), 0.05)\n"
            "print(loaded())\n"
            "dimer_nm.integrate(m, initial_state(m), 0.01, method='direct')\n"
            "print('scipy.sparse' in loaded(), 'scipy.sparse.linalg' in loaded())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path), check=True,
        )
        assert out.stdout.split("\n")[:4] == ["[] []", "[]", "[]", "True False"]
