"""Workload inputs, the timed call of each workload, and its output check.

Every generated input derives from the workload seed.  The fit workloads
draw their inputs from a pool of ``POOL`` input sets, entry
``seed % POOL``, because their loss traces are checked against traces
recorded for every pool entry (``references.json``).  The plateau
workload needs no reference, so its Haar stream derives from the seed
itself.

A workload's ``call`` is the timed region; ``check`` runs outside it and
raises ``CheckFailed`` when an output is wrong.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

import numpy as np

from fourierqml import analysis, cli, trainer
from fourierqml.qfflm import AnsatzSpec, Serial, evaluate_batch, init_parameters
from fourierqml.rng import make_rng
from fourierqml.spectra import EncodingSpec

POOL = 16
REL_TOL = 1e-12
REFERENCES = Path(__file__).with_name("references.json")

# fit-q4: the paper's headline pair, quantum side (4 qubits, 1 layer,
# exponential weights) and classical side (degree 40, 64 leading features),
# on a random-Fourier target.  The paper trains for 500 steps; the quantum
# fit runs 100 so that a run holds several fits.
Q_STEPS = 100
C_STEPS = 500
TARGET = {"kind": "random_fourier", "kappa": 81, "split": 64, "r": 0.05}
# fit-serial6: Serial(reuploads=2, encoders_per_block=1), 6 qubits, 18 variables.
SERIAL_STEPS = 3
SERIAL_POINTS = 200
# plateau-haar: Haar blocks, first-rotation gradient.
PLATEAU_QUBITS = (2, 4, 6, 8)
PLATEAU_TRIALS = 128
PLATEAU_Z_MAX = 4.0


class CheckFailed(Exception):
    """An operation's output differs from what it must be."""


def derive(seed: int, tag: int) -> int:
    """Independent 32-bit seed for input ``tag`` of workload seed ``seed``."""
    return int(np.random.SeedSequence([tag, seed]).generate_state(1)[0])


def sampled(trace) -> list[float]:
    """Loss-trace entries kept in the references: every tenth step and the last."""
    n = len(trace)
    return [float(trace[i]) for i in sorted(set(range(0, n, 10)) | {n - 1})]


def check_trace(trace, reference: list[float] | None, label: str) -> None:
    if reference is None:
        return
    got = sampled(trace)
    if len(got) != len(reference):
        raise CheckFailed(f"{label}: {len(got)} sampled loss entries, reference has {len(reference)}")
    for i, (a, b) in enumerate(zip(got, reference)):
        if abs(a - b) > REL_TOL * abs(b):
            raise CheckFailed(f"{label}: sampled loss {i} is {a!r}, reference {b!r}")


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


class CliFit:
    """Repeated in-process ``fourier-qml train`` with one config file.

    The first call's loss trace is checked against the reference; every
    later call must write byte-identical ``result.json`` and ``trace.csv``
    (the ``run.log`` sidecar holds wall times and is not compared).
    """

    def __init__(self, name: str, family: str, seed: int, work_dir: Path, references: dict | None):
        self.name = name
        k = seed % POOL
        self.pool_index = k
        self.reference = None if references is None else references[name][str(k)]
        self.out = work_dir / name
        config = {
            "version": "train-v1",
            "seed": derive(k, 2),
            "output_dir": str(self.out),
            "family": family,
            "target": dict(TARGET, target_seed=derive(k, 1)),
            "n_points": 200,
            "learning_rate": 0.03,
        }
        if family == "quantum":
            config.update(n_qubits=4, n_layers=1, encoding="exponential", steps=Q_STEPS)
        else:
            config.update(degree=40, dimension=64, steps=C_STEPS)
        work_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = work_dir / f"{name}.json"
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        self.argv = ["train", "--config", str(self.config_path)]
        self.first_outputs = None

    def call(self):
        return cli.main(self.argv)  # looked up on the module so a tracer can wrap it

    def _outputs(self) -> tuple[bytes, bytes]:
        return (self.out / "result.json").read_bytes(), (self.out / "trace.csv").read_bytes()

    def check(self, code) -> dict:
        if code != 0:
            raise CheckFailed(f"{self.name}: train exited with {code}")
        outputs = self._outputs()
        doc = json.loads(outputs[0])
        if self.first_outputs is None:
            check_trace(doc["loss_trace"], self.reference, self.name)
            self.first_outputs = outputs
        elif outputs != self.first_outputs:
            raise CheckFailed(f"{self.name}: rerun of the same config wrote different outputs")
        return {
            "loss_trace": doc["loss_trace"],
            "circuit_evals_reported": doc["resource_counters"].get("circuit_evaluations", 0),
            "output_bytes": sum(len(b) for b in outputs)
            + (self.out / "config.json").stat().st_size,
        }


class SerialFit:
    """``trainer.train`` of a 6-qubit Serial model on teacher labels."""

    name = "fit-serial6"

    def __init__(self, seed: int, work_dir: Path, references: dict | None):
        k = seed % POOL
        self.pool_index = k
        self.reference = None if references is None else references[self.name][str(k)]
        self.spec = AnsatzSpec(
            n_variables=18, n_qubits=6, n_layers=1,
            topology=Serial(reuploads=2, encoders_per_block=1),
            encoding=EncodingSpec(weights=(1, 3)),
        )
        teacher = init_parameters(self.spec, make_rng(derive(k, 3)))
        inputs = make_rng(derive(k, 4)).uniform(-np.pi, np.pi, (SERIAL_POINTS, 18))
        self.data = trainer.Dataset(inputs, evaluate_batch(self.spec, teacher, inputs))
        self.cfg = trainer.TrainConfig(learning_rate=0.03, steps=SERIAL_STEPS, seed=derive(k, 5))

    def call(self):
        return trainer.train(self.spec, self.data, self.cfg)

    def check(self, record) -> dict:
        check_trace(record.loss_trace, self.reference, self.name)
        return {
            "loss_trace": [float(v) for v in record.loss_trace],
            "circuit_evals_reported": record.resource_counters["circuit_evaluations"],
            "output_bytes": 0,
        }


class PlateauSweep:
    """``analysis.plateau_sweep`` with Haar blocks, checked by acceptance 04's rules.

    Every call of one run draws the same Haar stream, so its reports must
    also be identical across calls.
    """

    name = "plateau-haar"

    def __init__(self, seed: int, work_dir: Path, references: dict | None):
        self.pool_index = None
        self.haar_seed = derive(seed, 6)
        self.first_reports = None

    def call(self):
        return analysis.plateau_sweep(
            PLATEAU_QUBITS, PLATEAU_TRIALS, make_rng(self.haar_seed),
            mode="haar", grad_case="II",
        )

    def check(self, result) -> dict:
        reports, _ = result
        docs = [r.to_dict() for r in reports]
        for r in reports:
            if abs(r.zscore_mean_f) > PLATEAU_Z_MAX or abs(r.zscore_mean_sq_f) > PLATEAU_Z_MAX:
                raise CheckFailed(
                    f"{self.name}: d={r.d} z(<f>)={r.zscore_mean_f:+.2f} "
                    f"z(<f^2>)={r.zscore_mean_sq_f:+.2f} (Haar seed {self.haar_seed})"
                )
            if not r.var_loss_grad <= r.bound_loss_grad:
                raise CheckFailed(
                    f"{self.name}: d={r.d} loss-gradient variance {r.var_loss_grad:.3g} "
                    f"above bound {r.bound_loss_grad:.3g} (Haar seed {self.haar_seed})"
                )
        if self.first_reports is None:
            self.first_reports = docs
        elif docs != self.first_reports:
            raise CheckFailed(f"{self.name}: the same Haar stream gave different reports")
        return {"circuit_evals_reported": 0, "output_bytes": 0}


WORKLOADS = {
    "fit-q4": partial(CliFit, "fit-q4", "quantum"),
    "fit-classical": partial(CliFit, "fit-classical", "classical"),
    "fit-serial6": SerialFit,
    "plateau-haar": PlateauSweep,
}
