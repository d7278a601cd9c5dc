"""Guard rails on the package's public surface."""

import os
import subprocess
import sys

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_entries_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_headline_classes_importable(self):
        # The API a downstream user builds against.
        for name in (
            "LoadBalancer",
            "BalancerConfig",
            "BlockingRateFunction",
            "solve_minimax_fox",
            "ExperimentConfig",
            "run_experiment",
            "ParallelRegion",
            "Application",
            "StreamGraph",
            "Simulator",
            "plan_placement",
            "OverloadManager",
            "OverloadConfig",
            "RatedSource",
            "overload_scenario",
        ):
            assert name in repro.__all__, name

    def test_no_accidental_module_exports(self):
        # __all__ should list classes/functions, not submodules.
        import types

        for name in repro.__all__:
            if name == "__version__":
                continue
            assert not isinstance(getattr(repro, name), types.ModuleType), name


class TestImportFootprint:
    def test_runtime_modules_do_not_import_numpy(self):
        # The experiment runner and the process region are the entry
        # points of both backends; neither may pull numpy in, which would
        # cost every run and every spawned worker its import time and RSS.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys\n"
            "import repro.experiments.runner\n"
            "import repro.proc.region\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
