"""Materialize the design space once, then serve it in O(1).

Every answer the serving layer can give is a pure function of
``(scenario, workload, design, node, f, r_max)`` -- and the paper's
whole design space is only megabytes when tabulated.  This script
walks the materialized-serving pipeline end to end, in process:

1. **Build** a tensor store: one prefix-argmax grid call per design
   evaluates its whole ``(node x f-grid x r-grid)`` block, and the
   results land as memory-mapped float64 channel tensors under a
   checksummed, atomically-published manifest.
2. **Serve** from it: a :class:`repro.service.app.ModelService` booted
   with ``tensor_dir`` answers on-grid requests straight from the
   mapped tensors -- bit-identical to live compute, verified here by
   comparing against a second, tensor-less service.
3. **Interpolate**: an off-grid ``f`` on ``/v1/speedup`` is answered
   harmonically (``1/speedup`` is linear in ``f`` under Amdahl's law)
   with a documented ``1e-9`` relative error bound and an
   ``interpolation`` block in the response.
4. **Fall back**: anything the store cannot answer exactly -- here an
   off-grid ``/v1/optimize`` -- silently takes the ordinary live path.
   The ``/metrics`` counters tally every outcome.

The CLI equivalent of steps 1-2 is::

    repro-hetsim materialize build --dir tensors/
    repro-hetsim serve --tensor-dir tensors/
"""

import asyncio
import json
import tempfile

from repro.perf.tensorstore import build_tensor_store
from repro.service.app import ModelService, ServiceConfig

#: A compact grid keeps this demo quick; the CLI default materializes
#: every percent (102 f points x 16 r_max values per design/node).
F_GRID = (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)


async def post(service, path, **body):
    status, payload = await service.handle(
        "POST", path, json.dumps(body).encode()
    )
    assert status == 200, payload
    return payload


async def main(tensor_dir):
    manifest = build_tensor_store(tensor_dir, f_grid=F_GRID)
    cells = sum(
        int(g["shape"][0]) * int(g["shape"][1])
        * int(g["shape"][2]) * int(g["shape"][3])
        for g in manifest["groups"]
    )
    designs = sum(len(g["designs"]) for g in manifest["groups"])
    print(
        f"built {len(manifest['groups'])} groups, "
        f"{designs} designs, {cells} cells"
    )

    tensor = ModelService(ServiceConfig(tensor_dir=tensor_dir))
    live = ModelService(ServiceConfig())
    try:
        _, health = await tensor.handle("GET", "/healthz")
        block = health["tensor"]
        print(
            f"healthz: tensor {block['status']} "
            f"({block['cells']} cells, {block['bytes']} bytes)"
        )

        # On-grid: answered from the mapped tensors, bit-identical.
        request = dict(workload="mmm", f=0.99, design="ASIC",
                       node_nm=22)
        from_tensor = await post(tensor, "/v1/speedup", **request)
        from_live = await post(live, "/v1/speedup", **request)
        assert json.dumps(from_tensor) == json.dumps(from_live)
        point = from_tensor["point"]
        print(
            f"on-grid hit: ASIC mmm f=0.99 @22nm -> "
            f"{point['speedup']:.2f}x (r={point['r']:g}), "
            f"bit-identical to live compute"
        )

        # Off-grid f: harmonic interpolation, error bound attached.
        interp = await post(
            tensor, "/v1/speedup",
            workload="mmm", f=0.6, design="GTX480", node_nm=22,
        )
        info = interp["interpolation"]
        print(
            f"off-grid f=0.6: interpolated between f={info['f_bracket']} "
            f"(rel error <= {info['rel_error_bound']:g})"
        )

        # Off-grid aggregate: refuses to guess, falls back to live.
        await post(tensor, "/v1/optimize", workload="mmm", f=0.6)
        _, metrics = await tensor.handle("GET", "/metrics")
        outcomes = {
            key: metrics["tensorstore"][key]
            for key in ("hit", "interp", "fallback")
        }
        print(f"outcomes: {outcomes}")
    finally:
        tensor.close()
        live.close()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="tensors-") as directory:
        asyncio.run(main(directory))
