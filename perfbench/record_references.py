"""Record the reference PSNR / SSIM / data residual that run.py checks against.

    python3 perfbench/record_references.py [--toy] [--workload NAME ...]

For each workload and input instance 0 .. instances-1, runs the same
reconstructions as run.py (the full method through `solver.run`, or the
ablation grid through `experiment.ablate`) and stores their row metrics in
perfbench/references.json. Re-record only when a change is meant to alter
the reconstructions, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import tempfile

import run as bench

INSTANCES = 10
# Measured between OPENBLAS_NUM_THREADS=1 and the default 2 threads on a 2-core
# AMD EPYC: lact128 moves by up to 0.0104 dB PSNR, 0.0036 SSIM and 8e-4 of the
# residual (1500 unconverged CG iterations on noisy data amplify the change in
# summation order); mri320 by 1e-14 and svct256-ablate by 1e-5. Each
# tolerance is about five times the measured change.
LOOSE = {"psnr_abs": 0.05, "ssim_abs": 0.015, "data_residual_rel": 0.005}
TIGHT = {"psnr_abs": 1e-3, "ssim_abs": 1e-4, "data_residual_rel": 1e-4}
TOLERANCE = {"lact128": LOOSE, "mri320": TIGHT, "svct256-ablate": TIGHT}


def record(dcpnp, workload: str, toy: bool, instance: int) -> dict:
    cfg = bench.workload_config(dcpnp, workload, toy)
    if workload == "svct256-ablate":
        bench.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=bench.OUT) as tmp:
            grid = dataclasses.replace(cfg, seeds=(instance,), out_dir=tmp)
            rows = dcpnp.experiment.ablate(grid)
        bad = [row.status for row in rows if row.status != "ok"]
        if bad:
            raise RuntimeError(f"{workload} instance {instance}: {bad}")
        return {row.variant: {"psnr": row.psnr, "ssim": row.ssim,
                              "data_residual": row.data_residual} for row in rows}
    inputs = bench.set_up(dcpnp, cfg, instance)
    recon = bench.solve(dcpnp, cfg, bench.FULL_METHOD, inputs, instance)
    op, truth, y = inputs
    return {bench.FULL_METHOD: bench.score(dcpnp, cfg, op, y, truth, recon)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--workload", action="append", choices=bench.WORKLOADS)
    args = parser.parse_args()
    dcpnp = bench.import_dcpnp()
    data = (json.loads(bench.REFERENCES.read_text()) if bench.REFERENCES.exists()
            else {"instances": INSTANCES, "full": {}, "toy": {}})
    data["tolerance"] = TOLERANCE
    table = data["toy" if args.toy else "full"]
    for workload in args.workload or bench.WORKLOADS:
        table[workload] = {}
        for instance in range(data["instances"]):
            table[workload][str(instance)] = record(dcpnp, workload, args.toy, instance)
            print(workload, instance, table[workload][str(instance)], flush=True)
            bench.REFERENCES.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
